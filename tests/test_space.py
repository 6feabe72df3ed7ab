import math

import numpy as np
import pytest

import sepsym.space
from sepsym.errors import BadTuple, SizeCapExceeded, SpaceMismatch
from sepsym.space import (
    SMOOTH_COEFF_BUDGET,
    SMOOTH_MAX_MODE,
    ConfigSpace,
    _smooth_field,
    check_index_tuple,
    random_state,
    tensor_data,
)


def tensor(f, g):
    """Tensor product of two single states."""
    return tensor_data(f, g, f.ndim)


def brute_force_tensor(f, g):
    """Independent pointwise-product oracle."""
    n1 = f.ndim
    out = np.empty(f.shape + g.shape, dtype=complex)
    for idx in np.ndindex(*out.shape):
        out[idx] = f[idx[:n1]] * g[idx[n1:]]
    return out


class TestTensor:
    def test_frozen_example(self):
        f = np.array([1.0, 2.0], dtype=complex)
        g = np.array([3.0, 5.0], dtype=complex)
        assert np.array_equal(tensor(f, g).ravel(), [3.0, 5.0, 6.0, 10.0])

    def test_matches_brute_force(self, space3, rng):
        # vectorised and scalar complex products may differ in the last ulp
        f = random_state(1, space3, rng)
        g = random_state(2, space3, rng)
        assert np.allclose(tensor(f, g), brute_force_tensor(f, g), rtol=1e-14, atol=0)

    def test_ones_replication(self, space3, rng):
        f = random_state(2, space3, rng)
        out = tensor(f, np.ones(3, dtype=complex))
        for k in range(3):
            assert np.array_equal(out[:, :, k], f)

    def test_bilinearity(self, space3, rng):
        f = random_state(1, space3, rng)
        g = random_state(1, space3, rng)
        k = 0.7 - 1.3j
        lhs = tensor(k * f, g)
        rhs = k * tensor(f, g)
        assert np.allclose(lhs, rhs, rtol=1e-15, atol=0)

    def test_associativity_exact_on_integers(self, space3, rng):
        mk = lambda: rng.integers(-4, 5, 3) + 1j * rng.integers(-4, 5, 3)
        f, g, h = mk(), mk(), mk()
        left = tensor(tensor(f, g), h)
        right = tensor(f, tensor(g, h))
        assert np.array_equal(left, right)

    def test_associativity_float(self, space3, rng):
        f, g, h = (random_state(1, space3, rng) for _ in range(3))
        left = tensor(tensor(f, g), h)
        right = tensor(f, tensor(g, h))
        assert np.allclose(left, right, rtol=1e-14, atol=0)

    def test_sup_norm_multiplicative(self, space3, rng):
        f = random_state(1, space3, rng)
        g = random_state(2, space3, rng)
        prod = tensor(f, g)
        sup = [float(np.abs(x).max()) for x in (prod, f, g)]
        assert math.isclose(sup[0], sup[1] * sup[2], rel_tol=1e-13)

    @pytest.mark.parametrize("n1, n2", [(1, 1), (1, 2), (2, 1)])
    def test_batched_matches_per_entry_outer(self, space3, rng, n1, n2):
        fs = [random_state(n1, space3, rng) for _ in range(4)]
        gs = [random_state(n2, space3, rng) for _ in range(4)]
        out = tensor_data(np.stack(fs, axis=-1), np.stack(gs, axis=-1), n1)
        assert out.shape == (3,) * (n1 + n2) + (4,)
        for k, (f, g) in enumerate(zip(fs, gs)):
            outer = np.multiply.outer(f, g)
            assert np.array_equal(out[..., k], outer)
            assert np.array_equal(tensor(f, g), outer)


class TestPermute:
    def test_identity(self, space3, rng):
        f = random_state(3, space3, rng)
        assert np.array_equal(np.transpose(f, (0, 1, 2)), f)

    def test_swap_on_product(self, space3, rng):
        f = random_state(1, space3, rng)
        g = random_state(1, space3, rng)
        assert np.allclose(
            np.transpose(tensor(f, g), (1, 0)), tensor(g, f), rtol=1e-14, atol=0
        )

    def test_round_trip(self, space3, rng):
        f = random_state(3, space3, rng)
        perm = (2, 0, 1)
        inverse = tuple(int(k) for k in np.argsort(perm))
        assert np.array_equal(np.transpose(np.transpose(f, perm), inverse), f)

    def test_isometry(self, space3, rng):
        f = random_state(3, space3, rng)
        assert np.abs(np.transpose(f, (1, 2, 0))).max() == np.abs(f).max()

    def test_composition_consistency(self, space3, rng):
        # np.transpose(np.transpose(f, pi), sigma) agrees with a single pointwise oracle
        f = random_state(3, space3, rng)
        pi, sigma = (2, 0, 1), (1, 2, 0)
        two_step = np.transpose(np.transpose(f, pi), sigma)
        for idx in np.ndindex(*two_step.shape):
            inner = tuple(idx[sigma[k]] for k in range(3))
            outer = tuple(inner[pi[k]] for k in range(3))
            assert two_step[idx] == f[outer]


def smooth_field_loop(space, n, rng):
    """The band-limited sampler as a loop over all nmodes^n mode tuples,
    one outer product of wave rows each: the oracle of the sum-factorised
    ``_smooth_field``, with the same draws."""
    gsize, isize = space.grid_size, space.internal_size
    nmodes = 2 * SMOOTH_MAX_MODE + 1
    coef = rng.standard_normal((isize,) * n + (nmodes,) * n) + 1j * rng.standard_normal(
        (isize,) * n + (nmodes,) * n
    )
    coef *= SMOOTH_COEFF_BUDGET / np.abs(coef).sum(axis=tuple(range(n, 2 * n)), keepdims=True)
    modes = np.arange(-SMOOTH_MAX_MODE, SMOOTH_MAX_MODE + 1)
    waves = np.exp(1j * np.outer(modes, space.positions()))
    out = np.zeros((isize,) * n + (gsize,) * n, dtype=np.complex128)
    for kidx in np.ndindex((nmodes,) * n):
        phase = waves[kidx[0]]
        for k in kidx[1:]:
            phase = np.multiply.outer(phase, waves[k])
        out += coef[(Ellipsis,) + kidx].reshape((isize,) * n + (1,) * n) * phase
    order = [ax for j in range(n) for ax in (j, n + j)]
    return np.transpose(out, order).reshape((space.size,) * n)


class TestRandomState:
    @pytest.mark.parametrize("space,n", [
        (ConfigSpace(8, grid=True), 1), (ConfigSpace(16, grid=True), 2),
        (ConfigSpace(32, grid=True), 3), (ConfigSpace(8, factors=(2, 4), grid=True), 2),
        (ConfigSpace(6, factors=(2, 3), grid=True), 3),
    ])
    def test_sum_factorised_sampler_matches_mode_loop(self, space, n):
        for seed in range(3):
            got = _smooth_field(space, n, np.random.default_rng(seed))
            want = smooth_field_loop(space, n, np.random.default_rng(seed))
            assert got.shape == want.shape == (space.size,) * n
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_deterministic(self, space4):
        a = random_state(2, space4, 123)
        b = random_state(2, space4, 123)
        assert np.array_equal(a, b)

    def test_nowhere_zero_floor(self, space4):
        f = random_state(3, space4, 7, nowhere_zero=True)
        assert np.abs(f).min() >= 0.1

    def test_phase_cap(self, space4):
        f = random_state(2, space4, 11, nowhere_zero=True, phase_cap=math.pi / 4)
        assert np.abs(np.angle(f)).max() <= math.pi / 4

    def test_smooth_second_difference_bound(self):
        sp = ConfigSpace(16, grid=True)
        f = random_state(1, sp, 3, smooth=True)
        second = np.roll(f, -1) - 2 * f + np.roll(f, 1)
        bound = SMOOTH_COEFF_BUDGET * (SMOOTH_MAX_MODE * sp.spacing) ** 2
        assert np.abs(second).max() <= bound + 1e-12

    def test_smooth_refines_one_function(self):
        # the same seed on a finer grid samples the same band-limited field
        coarse = random_state(1, ConfigSpace(8, grid=True), 5, smooth=True, nowhere_zero=True)
        fine = random_state(1, ConfigSpace(16, grid=True), 5, smooth=True, nowhere_zero=True)
        assert np.allclose(fine[::2], coarse, rtol=0, atol=1e-12)

    def test_smooth_needs_grid(self, space4):
        with pytest.raises(SpaceMismatch, match="grid-ordered"):
            random_state(1, space4, 0, smooth=True)

    def test_smooth_factor_space(self, spin_space):
        f = random_state(2, spin_space, 9, smooth=True, nowhere_zero=True)
        assert np.abs(f).min() >= 0.1


    def test_state_array(self, space3, rng):
        for kwargs in ({}, {"nowhere_zero": True}):
            f = random_state(2, space3, rng, **kwargs)
            assert f.shape == (3, 3) and f.dtype == np.complex128

    def test_flat_size_cap(self):
        with pytest.raises(SizeCapExceeded):
            random_state(5, ConfigSpace(16), 0)

    def test_rejects_non_finite(self, grid8, monkeypatch):
        def bad_field(space, n, rng):
            field = np.ones((space.size,) * n, dtype=complex)
            field[1] = complex(float("nan"), 0)
            return field

        monkeypatch.setattr(sepsym.space, "_smooth_field", bad_field)
        with pytest.raises(ValueError, match="non-finite"):
            random_state(1, grid8, 0, smooth=True)


class TestConfigSpace:
    def test_factor_validation(self):
        with pytest.raises(ValueError):
            ConfigSpace(6, factors=(2, 2))
        with pytest.raises(ValueError, match="positive"):
            ConfigSpace(3, factors=(-1, -3))  # the product alone would pass
        sp = ConfigSpace(6, factors=(2, 3), grid=True)
        assert sp.grid_size == 3 and sp.internal_size == 2
        assert math.isclose(sp.spacing, 2 * math.pi / 3)

    @pytest.mark.parametrize("space, refined", [
        (ConfigSpace(5), ConfigSpace(10)),
        (ConfigSpace(8, grid=True), ConfigSpace(16, grid=True)),
        (ConfigSpace(8, factors=(2, 4), grid=True), ConfigSpace(16, factors=(2, 8), grid=True)),
        (ConfigSpace(12, factors=(3, 2, 2)), ConfigSpace(24, factors=(3, 2, 4))),
    ])
    def test_refined(self, space, refined):
        # k times the grid sites, every internal factor kept
        assert space.refined(1) == space and space.refined(2) == refined
        assert np.allclose(refined.positions()[::2], space.positions(), rtol=0, atol=1e-15)
        if space.grid:
            # site x of the grid is site 2x of the refined one, in every
            # internal component: a smooth draw refines one function
            coarse = random_state(1, space, 5, smooth=True)
            assert np.allclose(random_state(1, refined, 5, smooth=True)[::2], coarse,
                               rtol=0, atol=1e-12)

    def test_index_tuple_validation(self):
        assert check_index_tuple((0, 2), 3) == (0, 2)
        with pytest.raises(BadTuple):
            check_index_tuple((2, 0), 3)
        with pytest.raises(BadTuple):
            check_index_tuple((0, 3), 3)
        with pytest.raises(BadTuple):
            check_index_tuple((0,), 3, length=2)
