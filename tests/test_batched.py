"""Stacked batches: the seeded sampler ``random_batch``, the tensor chain
``tensor_all`` and the identity residuals that take one stacked batch and
return one sup norm per entry."""

import math

import numpy as np
import pytest

from sepsym.hierarchy import (
    Generator,
    Hierarchy,
    bracket_hierarchy,
    lift_J,
    tensor_derivation_residual,
)
from sepsym.mixedpow import IndexPair
from sepsym.opcalc import (
    check_permutation_property,
    estimate_log_indices,
    euler_log_residual,
    euler_power_residual,
)
from sepsym.operators import (
    cross_ratio_op,
    lambda_op,
    log_modulus_op,
    rms_log_modulus_op,
    shift_all_op,
    shifted_log_modulus_op,
    site_matrix_op,
)
from sepsym.evolution import EvolutionConfig
from sepsym.space import ConfigSpace, random_batch, random_state, tensor_all
from sepsym.symmetry import (
    AffineMap,
    FiniteSymmetry,
    inf_symmetry_residual,
    lambda_index_symmetry,
    symmetry_residual,
)

SEEDS = [(7, j) for j in range(4)]


class TestRandomBatch:
    def test_repeated_generator_draws_in_turn(self, space3):
        [got] = random_batch((2,), space3, [np.random.default_rng(5)] * 4)
        rng = np.random.default_rng(5)
        want = [random_state(2, space3, rng, nowhere_zero=True) for _ in range(4)]
        assert got.shape == (3, 3, 4)
        assert np.array_equal(got, np.stack(want, axis=-1))

    def test_each_seed_draws_its_own_states(self, space3):
        [got] = random_batch((2,), space3, SEEDS, phase_cap=math.pi / 4)
        for k, seed in enumerate(SEEDS):
            want = random_state(2, space3, seed, nowhere_zero=True, phase_cap=math.pi / 4)
            assert np.array_equal(got[..., k], want)

    def test_sizes_are_drawn_in_order_within_an_entry(self, space3):
        ones, twos = random_batch((1, 2), space3, [np.random.default_rng(9)] * 2)
        rng = np.random.default_rng(9)
        draws = [random_state(n, space3, rng, nowhere_zero=True)
                 for _ in range(2) for n in (1, 2)]
        assert np.array_equal(ones, np.stack(draws[0::2], axis=-1))
        assert np.array_equal(twos, np.stack(draws[1::2], axis=-1))

    def test_smooth_states(self, grid8):
        [got] = random_batch((2,), grid8, [(3, 1)], smooth=True)
        want = random_state(2, grid8, (3, 1), nowhere_zero=True, smooth=True)
        assert np.array_equal(got[..., 0], want)


class TestTensorAll:
    def test_matches_outer_products_entry_by_entry(self, space3):
        factors = random_batch((1, 2, 1), space3, SEEDS)
        prod = tensor_all(factors)
        assert prod.shape == (3,) * 4 + (len(SEEDS),)
        for k, seed in enumerate(SEEDS):
            rng = np.random.default_rng(seed)
            f, g, h = (random_state(n, space3, rng, nowhere_zero=True) for n in (1, 2, 1))
            assert np.array_equal(prod[..., k], np.multiply.outer(np.multiply.outer(f, g), h))

    def test_single_factor_is_itself(self, space3):
        [data] = random_batch((2,), space3, SEEDS)
        assert tensor_all([data]) is data


class TestBatchWidth:
    @pytest.mark.parametrize("size", [3, 8])
    def test_site_matrix_entry_is_width_independent(self, size):
        # a BLAS product may round a column by its place in the column
        # blocking; site_matrix_op gives each entry one value at any width
        rng = np.random.default_rng(size)
        F = site_matrix_op(ConfigSpace(size), rng.standard_normal((size, size))
                           + 1j * rng.standard_normal((size, size)))
        data = rng.standard_normal((size, 9)) + 1j * rng.standard_normal((size, 9))
        full = F.apply(data)
        for k in range(1, 10):
            assert np.array_equal(full[..., :k], F.apply(data[..., :k]))


def one_by_one(residual, sizes, space, **kwargs):
    """The residual of a stack of the SEEDS states, and the list of the
    residuals of each entry as a one-entry stack."""
    stacked = residual(*random_batch(sizes, space, SEEDS, **kwargs))
    singles = [v for seed in SEEDS for v in residual(*random_batch(sizes, space, [seed], **kwargs))]
    return stacked, singles


def bracket_pair(space):
    F = Hierarchy.from_generators(
        [Generator(shifted_log_modulus_op(space, 0.8)),
         Generator(cross_ratio_op(space, coupling=0.5))], 3)
    G = Hierarchy.from_generators(
        [Generator(lambda_op(IndexPair(0.6 + 0.3j, 0.2 - 0.4j), 1, space)),
         Generator(rms_log_modulus_op(space, 0.7))], 3)
    return F, G


class TestStackedResiduals:
    """A stack of k states gives exactly the list from k one-entry stacks."""

    @pytest.mark.parametrize("sizes", [(1, 1), (1, 2), (2, 1), (1, 1, 1)])
    def test_tensor_derivation_residual(self, space3, sizes):
        for H in bracket_pair(space3):
            stacked, singles = one_by_one(
                lambda *fs: tensor_derivation_residual(H, fs), sizes, space3,
                phase_cap=math.pi / 4)
            assert len(stacked) == len(SEEDS) and stacked == singles

    @pytest.mark.parametrize("n", [2, 3])
    def test_permutation_property(self, space3, n):
        F, _ = bracket_pair(space3)
        for op in (F.op(n), lift_J(shifted_log_modulus_op(space3, 1.0), (0,), n)):
            stacked, singles = one_by_one(
                lambda data: check_permutation_property(op, data), (n,), space3)
            assert stacked == singles

    @pytest.mark.parametrize("fd_step", [None, 1e-3])
    def test_euler_residuals(self, space3, fd_step):
        lam = lambda_op(IndexPair(0.7 + 0.2j, 0.4 - 0.3j), 1, space3)
        cases = [
            lambda d: euler_log_residual(lam, d, 0.8 - 0.6j, fd_step=fd_step),
            lambda d: euler_log_residual(rms_log_modulus_op(space3, 0.9), d, 1j,
                                         indices=IndexPair(0, 0), fd_step=fd_step),
            lambda d: euler_power_residual(cross_ratio_op(space3, coupling=0.8), d,
                                           0.8 - 0.6j, IndexPair(1.0, 1.0), fd_step=fd_step),
        ]
        for residual, n in zip(cases, (1, 1, 2)):
            stacked, singles = one_by_one(residual, (n,), space3)
            assert stacked == singles

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetry_residual(self, grid8, n):
        H = Hierarchy.from_generators([Generator(log_modulus_op(grid8, 1.0))], 3)
        V = FiniteSymmetry(lambda t, k: shift_all_op(grid8, k, 2))
        stacked, singles = one_by_one(lambda d: symmetry_residual(V, H, 0.3, d), (n,), grid8)
        assert stacked == singles

    @pytest.mark.parametrize("n", [1, 2])
    def test_inf_symmetry_residual(self, space3, n):
        # a time-dependent K, so the residual's d_t K term is taken too
        H = Hierarchy.from_generators([Generator(lambda_op(IndexPair(1.1, 0.6), 1, space3))], 2)
        cfg = EvolutionConfig(dt=0.01, t0=0.0, t1=1.0)
        K = lambda_index_symmetry(1.1, 0.6, AffineMap(0.5, 0.2), IndexPair(0.9, 0.4), cfg, space3)
        stacked, singles = one_by_one(lambda d: inf_symmetry_residual(K, H, 0.4, d), (n,),
                                      space3)
        assert stacked == singles

    def test_estimate_log_indices_averages_state_by_state(self, space3):
        # the estimate over a stack equals the mean over the states' values
        # concatenated in batch order; the stack's C order sums them in
        # another order, which moves the last bits at these seeds
        op = bracket_hierarchy(*bracket_pair(space3)).op(1)
        [data] = random_batch((1,), space3, [(0, j) for j in range(4)], phase_cap=math.pi / 2)
        k_mod = 2.0
        parts = (op.apply(k_mod * data) - k_mod * op.apply(data)) / (
            k_mod * math.log(k_mod) * data)
        by_state = complex(np.concatenate([parts[..., j] for j in range(4)]).mean())
        assert complex(parts.ravel().mean()) != by_state
        est, _ = estimate_log_indices(op, data)
        assert est.a == by_state
