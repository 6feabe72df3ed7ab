import math
from dataclasses import replace

import numpy as np
import pytest

from sepsym.errors import IndexMismatch, SpaceMismatch, ZeroAmplitude
from sepsym.mixedpow import IndexPair, pair_action, pair_bracket
from sepsym.opcalc import (
    check_permutation_property,
    estimate_log_indices,
    euler_log_residual,
    euler_power_residual,
    lie_bracket,
    op_combine,
)
from sepsym.operators import (
    central_difference_op,
    cross_ratio_op,
    diag_mult_op,
    lambda_op,
    log_modulus_op,
    nonseparating_op,
    principal_log,
    relative_log_modulus_op,
    rms_log_modulus_op,
    shift_all_op,
    shifted_log_modulus_op,
    site_matrix_op,
    spin_rms_log_op,
    spin_rotation_op,
    zero_op,
)
from sepsym.scenario import random_hermitian
from sepsym.space import ConfigSpace, random_batch, random_state
from sepsym.hierarchy import Generator, canonical_lift, lift_J

CLOSED_TOL = 1e-10


def nz_state(n, space, rng, cap=None):
    return random_state(n, space, rng, nowhere_zero=True, phase_cap=cap)


def nz_stack(n, space, rng, k=1, cap=None):
    """k nowhere-zero n-particle states stacked on a trailing batch axis."""
    return random_batch((n,), space, [rng] * k, phase_cap=cap)[0]


class TestFrechet:
    def test_linear_is_exact(self, space4, rng):
        A = random_hermitian(space4, rng)
        F = site_matrix_op(space4, A)
        phi = random_state(1, space4, rng)
        eta = random_state(1, space4, rng)
        out = F.derivative(phi, eta)
        assert np.allclose(out, A @ eta, rtol=1e-14, atol=0)

    def test_lambda_closed_form(self, space4, rng):
        # hand formula ((a,b).(eta/phi)) phi + ((a,b).ln phi) eta
        idx = IndexPair(0.6 - 0.2j, 0.3 + 0.5j)
        F = lambda_op(idx, 1, space4)
        phi, eta = nz_state(1, space4, rng), random_state(1, space4, rng)
        got = F.derivative(phi, eta)
        expect = (
            pair_action(idx, eta / phi) * phi
            + pair_action(idx, np.log(phi)) * eta
        )
        assert np.allclose(got, expect, rtol=1e-13, atol=0)
        fd = F.derivative(phi, eta, fd_step=1e-6)
        assert np.abs(fd - got).max() <= 1e-8

    def test_additivity(self, space4, rng):
        F = rms_log_modulus_op(space4, 0.9)
        phi = nz_state(1, space4, rng)
        e1, e2 = random_state(1, space4, rng), random_state(1, space4, rng)
        both = F.derivative(phi, e1 + e2)
        split = F.derivative(phi, e1) + F.derivative(phi, e2)
        assert np.abs(both - split).max() <= 1e-13
        fd_both = F.derivative(phi, e1 + e2, fd_step=1e-5)
        fd_split = F.derivative(phi, e1, fd_step=1e-5) + F.derivative(phi, e2, fd_step=1e-5)
        assert np.abs(fd_both - fd_split).max() <= 1e-8  # O(h^2)

    def test_real_scalar_homogeneity(self, space4, rng):
        # DF(phi).(c eta) = c DF(phi).eta for real c, closed form and FD
        F = rms_log_modulus_op(space4, 0.9)
        phi = nz_state(1, space4, rng)
        eta = random_state(1, space4, rng)
        for c in (2.0, -0.7, 0.0):
            lhs = F.derivative(phi, c * eta)
            rhs = c * F.derivative(phi, eta)
            assert np.abs(lhs - rhs).max() <= 1e-13
        fd_l = F.derivative(phi, 2.0 * eta, fd_step=1e-5)
        fd_r = 2.0 * F.derivative(phi, eta, fd_step=1e-5)
        assert np.abs(fd_l - fd_r).max() <= 1e-8

    def test_real_linearity_only(self, space4, rng):
        # multiplying the direction by i does not factor out of DF
        F = log_modulus_op(space4, 1.0)
        phi = nz_state(1, space4, rng)
        eta = random_state(1, space4, rng)
        lhs = F.derivative(phi, 1j * eta)
        rhs = 1j * F.derivative(phi, eta)
        assert np.abs(lhs - rhs).max() > 0.01

    def test_log_domain_failure_is_domain_error(self, space4, rng):
        from sepsym.errors import DomainError

        F = log_modulus_op(space4, 1.0)
        phi = np.ones(4, dtype=complex)
        phi[1] = 0.0
        with pytest.raises(DomainError):
            F.derivative(phi, random_state(1, space4, rng))


    def test_fd_fallback_is_batch_clean(self, space3, rng):
        # the step is scaled per batch entry, so a batch entry's derivative
        # does not depend on its neighbours: batched equals per-state
        F = replace(rms_log_modulus_op(space3, 0.9), derivative_fn=None)
        phis = [3.0 * nz_state(1, space3, rng), 7.0 * nz_state(1, space3, rng)]
        etas = [random_state(1, space3, rng) for _ in phis]
        norms = [np.abs(phi).max() for phi in phis]
        assert min(norms) > 1.0 and norms[0] != norms[1]
        batched = F.derivative(np.stack(phis, axis=-1), np.stack(etas, axis=-1))
        for k, (phi, eta) in enumerate(zip(phis, etas)):
            assert np.array_equal(batched[..., k], F.derivative(phi, eta))


class TestPrincipalLog:
    """``principal_log`` is numpy's principal complex log, computed as
    ln|z| + i atan2(Im z, Re z)."""

    def test_matches_numpy_log(self):
        rng = np.random.default_rng(7)
        for scale in (1e-3, 1.0, 1e3):
            z = scale * (rng.standard_normal((16, 16, 4)) + 1j * rng.standard_normal((16, 16, 4)))
            got, want = principal_log(z), np.log(z)
            ulp = np.spacing(np.maximum(1.0, np.abs(want)))
            assert np.all(np.abs(got.real - want.real) <= 4 * ulp)
            assert np.all(np.abs(got.imag - want.imag) <= 4 * ulp)

    def test_branch_cut_sign(self):
        tiny = 1e-300
        z = np.array([
            complex(-1.0, 0.0), complex(-1.0, -0.0), complex(-2.0, 0.0), complex(-2.0, -0.0),
            complex(-1.0, tiny), complex(-1.0, -tiny), complex(-3.0, 1e-17), complex(-3.0, -1e-17),
        ])
        got, want = principal_log(z), np.log(z)
        assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
        assert np.all(np.abs(got.imag) == np.abs(want.imag))
        assert np.allclose(got.real, want.real, rtol=0, atol=1e-15)
        assert got[0].imag == math.pi and got[1].imag == -math.pi


class TestLieBracket:
    def test_self_bracket_vanishes(self, space4, rng):
        F = rms_log_modulus_op(space4, 0.8)
        B = lie_bracket(F, F)
        phi = nz_state(1, space4, rng)
        assert np.abs(B.apply(phi)).max() <= 1e-14

    def test_linear_reduces_to_matrix_commutator(self, space4, rng):
        A = random_hermitian(space4, rng)
        Bm = random_hermitian(space4, rng)
        br = lie_bracket(site_matrix_op(space4, A), site_matrix_op(space4, Bm))
        phi = random_state(1, space4, rng)
        oracle = (A @ Bm - Bm @ A) @ phi
        assert np.allclose(br.apply(phi), oracle, rtol=1e-13, atol=1e-14)

    def test_lambda_bracket_is_lambda_of_pair_bracket(self, space4, rng):
        p = IndexPair(0.7 + 0.3j, -0.2 + 0.6j)
        q = IndexPair(-0.4 + 0.1j, 0.9 - 0.5j)
        br = lie_bracket(lambda_op(p, 1, space4), lambda_op(q, 1, space4))
        lam = lambda_op(pair_bracket(p, q), 1, space4)
        phi = nz_state(1, space4, rng)
        assert np.abs(br.apply(phi) - lam.apply(phi)).max() <= 1e-12

    def test_bracket_indices_propagate(self, space4):
        p = IndexPair(0.7, 0.3)
        q = IndexPair(0.1, -0.4)
        br = lie_bracket(lambda_op(p, 1, space4), lambda_op(q, 1, space4))
        expect = pair_bracket(p, q)
        assert br.indices is not None and br.indices.close_to(expect, 1e-14)

    def test_jacobi_with_closed_second_derivatives(self, rng):
        # Lambda and the complex-linear families carry second derivatives
        space = ConfigSpace(5, grid=True)
        ops = [
            lambda_op(IndexPair(0.8, 0.2), 1, space),
            diag_mult_op(space, rng.standard_normal(5) + 1j * rng.standard_normal(5)),
            central_difference_op(space),
        ]
        F, G, H = ops
        inner = [lie_bracket(F, G), lie_bracket(G, H), lie_bracket(H, F)]
        # the inner brackets inherit closed-form derivatives, so the outer
        # bracket evaluations below never touch finite differences
        assert all(op.has_closed_derivative for op in inner)
        jac_ops = [
            lie_bracket(inner[0], H),
            lie_bracket(inner[1], F),
            lie_bracket(inner[2], G),
        ]
        worst = 0.0
        for _ in range(4):
            phi = nz_state(1, space, rng)
            total = sum(op.apply(phi) for op in jac_ops)
            worst = max(worst, float(np.abs(total).max()))
        assert worst <= 1e-8

    def test_mismatched_levels(self, space4):
        with pytest.raises(SpaceMismatch):
            lie_bracket(log_modulus_op(space4, 1.0), cross_ratio_op(space4))


class TestIndexEstimation:
    def test_linear_gives_zero(self, space4, rng):
        F = site_matrix_op(space4, random_hermitian(space4, rng))
        batch = nz_stack(1, space4, rng, 3)
        est, residual = estimate_log_indices(F, batch)
        assert abs(est.a) <= 1e-12 and abs(est.b) <= 1e-12
        assert residual <= 1e-10

    def test_lambda_recovers_indices(self, space4, rng):
        idx = IndexPair(0.8 - 0.3j, 0.5 + 0.4j)
        F = lambda_op(idx, 1, space4)
        batch = nz_stack(1, space4, rng, 3, cap=math.pi / 2)
        est, residual = estimate_log_indices(F, batch)
        assert est.close_to(idx, 1e-10)
        assert residual <= 1e-10

    def test_log_modulus_is_one_zero(self, space4, rng):
        F = log_modulus_op(space4, 1.0)
        batch = nz_stack(1, space4, rng, 3, cap=math.pi / 2)
        est, _ = estimate_log_indices(F, batch)
        assert est.close_to(IndexPair(1.0, 0.0), 1e-10)

    def test_declared_mismatch_raises(self, space4, rng):
        from dataclasses import replace

        F = replace(log_modulus_op(space4, 1.0), indices=IndexPair(2.0, 0.0))
        batch = nz_stack(1, space4, rng, 3, cap=math.pi / 2)
        with pytest.raises(IndexMismatch):
            estimate_log_indices(F, batch)

    def test_zero_amplitude_raises(self, space4):
        F = log_modulus_op(space4, 1.0)
        flat = np.ones(4, dtype=complex)
        flat[2] = 0.0
        with pytest.raises(ZeroAmplitude):
            estimate_log_indices(F, flat[:, None])


class TestPermutationProperty:
    def test_one_particle_vacuous(self, space4, rng):
        F = rms_log_modulus_op(space4, 1.0)
        assert check_permutation_property(F, nz_stack(1, space4, rng, 2)) == [0.0] * 2

    def test_symmetrised_operator(self, space3, rng):
        G = cross_ratio_op(space3, refs=(1, 2), coupling=0.9)
        batch = nz_stack(2, space3, rng, 3)
        assert max(check_permutation_property(G, batch)) <= 1e-12

    def test_asymmetric_counterexample(self, space3, rng):
        lone = lift_J(shifted_log_modulus_op(space3, 1.0), (0,), 2)
        batch = nz_stack(2, space3, rng, 3)
        assert min(check_permutation_property(lone, batch)) > 0.1


class TestEuler:
    def test_linear_any_eta(self, space4, rng):
        F = site_matrix_op(space4, random_hermitian(space4, rng))
        phi = nz_stack(1, space4, rng, 2)
        for eta in (1.0, 1j, 0.4 - 1.1j):
            assert max(euler_log_residual(F, phi, eta, indices=IndexPair(0, 0))) <= 1e-13

    def test_lambda_closed(self, space4, rng):
        idx = IndexPair(0.5 + 0.2j, -0.3 + 0.7j)
        F = lambda_op(idx, 1, space4)
        phi = nz_stack(1, space4, rng, 2)
        for eta in (1.0, 1j, 0.8 - 0.6j):
            assert max(euler_log_residual(F, phi, eta)) <= CLOSED_TOL

    def test_cross_ratio_both_forms(self, space3, rng):
        G = cross_ratio_op(space3, coupling=0.8)
        phi = nz_stack(2, space3, rng, 2)
        for eta in (1.0, 1j, 0.8 - 0.6j):
            assert max(euler_power_residual(G, phi, eta, IndexPair(1, 1))) <= CLOSED_TOL
            assert max(euler_log_residual(G, phi, eta, indices=IndexPair(0, 0))) <= CLOSED_TOL

    def test_richardson_ratio(self, space4, rng):
        F = log_modulus_op(space4, 1.0)
        phi = nz_stack(1, space4, rng)
        [r1] = euler_log_residual(F, phi, 0.8 - 0.6j, fd_step=1e-3)
        [r2] = euler_log_residual(F, phi, 0.8 - 0.6j, fd_step=5e-4)
        assert 3.5 <= r1 / r2 <= 4.5

    def test_eta_equals_one_matches_frechet_of_phi(self, space4, rng):
        # DF(phi).phi = F(phi) + ((p,q).1) phi for mixed-log F
        idx = IndexPair(0.9, 0.4)
        F = lambda_op(idx, 1, space4)
        phi = nz_state(1, space4, rng)
        lhs = F.derivative(phi, phi)
        rhs = F.apply(phi) + pair_action(idx, 1.0) * phi
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestCombinators:
    def test_sum_indices_add(self, space4):
        a = lambda_op(IndexPair(0.5, 0.1), 1, space4)
        b = log_modulus_op(space4, 0.25)
        s = op_combine([a, b])
        assert s.indices.close_to(IndexPair(0.75, 0.1), 1e-14)

    def test_scale_scales_indices(self, space4):
        a = lambda_op(IndexPair(0.5, 0.1), 1, space4)
        s = op_combine([a], [2j])
        assert s.indices.close_to(IndexPair(1j, 0.2j), 1e-14)

    def test_zero_op(self, space4, rng):
        z = zero_op(space4, 2)
        phi = random_state(2, space4, rng)
        assert np.abs(z.apply(phi)).max() == 0.0
        assert np.abs(z.derivative(phi, phi)).max() == 0.0


def bundled_families(space):
    """One operator of every bundled family on a factored grid space, with
    the cross ratio at coincident and distinct refs and couplings != 1."""
    rng = np.random.default_rng(5)
    size = space.size
    idx = IndexPair(0.7 - 0.4j, 0.2 + 0.9j)
    return {
        "zero": zero_op(space, 1),
        "site-matrix": site_matrix_op(space, rng.normal(size=(size, size))
                                      + 1j * rng.normal(size=(size, size))),
        "diag-mult": diag_mult_op(space, rng.normal(size=size) + 1j * rng.normal(size=size)),
        "spin-rotation": spin_rotation_op(space),
        "shift-all": shift_all_op(space, 1, 2),
        "central-difference": central_difference_op(space),
        "lambda": lambda_op(idx, 1, space),
        "log-modulus": log_modulus_op(space, 0.8),
        "shifted-log-modulus": shifted_log_modulus_op(space, 0.9, 2),
        "relative-log-modulus": relative_log_modulus_op(space, 0.7),
        "rms-log-modulus": rms_log_modulus_op(space, 0.9),
        "spin-rms-log": spin_rms_log_op(space, 0.6 + 0.2j),
        "non-separating": nonseparating_op(space, 1, 0.5 - 0.1j),
        "cross-ratio": cross_ratio_op(space),
        "cross-ratio-coupled": cross_ratio_op(space, (3, 3), 1.3 + 0.4j),
        "cross-ratio-distinct": cross_ratio_op(space, (1, 2), 0.7 - 0.2j),
    }


SPIN_GRID = ConfigSpace(8, factors=(2, 4), grid=True)
FAMILIES = sorted(bundled_families(SPIN_GRID))


def linearize_cases(F):
    """(label, operator) for F as it is, lifted by lift_J and by
    canonical_lift to 2 and 3 particles, and inside op_combine sums."""
    space = F.space
    cases = [("as-is", F)]
    for m in (2, 3):
        if m > F.n:
            cases.append((f"lift_J-{m}", lift_J(F, tuple(range(m - F.n, m)), m)))
            if F.n > 1 or F.indices is not None:
                cases.append((f"canonical-{m}", canonical_lift(Generator(F), m)))
    for label, op in list(cases):
        lam = lambda_op(IndexPair(0.3, -0.5), op.n, space)
        cases.append((f"combined-{label}", op_combine([op, lam], [0.7 - 0.2j, 1.3])))
    return cases


class TestLinearize:
    """linearize(data) is (apply, derivative) from one preparation of
    the state, for every bundled family, its lifts and its sums."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_value_and_tangent_equal_apply_and_derivative(self, family):
        rng = np.random.default_rng(17)
        for label, op in linearize_cases(bundled_families(SPIN_GRID)[family]):
            data, eta, zeta = random_batch((op.n,) * 3, SPIN_GRID, [rng] * 2,
                                           phase_cap=np.pi / 8)
            value, tangent = op.linearize(data)
            assert np.array_equal(value, op.apply(data)), label
            for direction in (eta, zeta):  # the tangent serves many directions
                got = tangent(direction)
                assert np.array_equal(got, op.derivative(data, direction)), label
                fd = op.derivative(data, direction, fd_step=1e-6)
                assert np.abs(fd - got).max() <= 1e-8, label

    def test_which_operators_carry_a_linearize_kernel(self):
        # every logarithmic family linearises by its own kernel, not by the
        # (apply, derivative) fallback, and so does every lift and sum with
        # closed derivatives; a plain linear or non-separating operator falls back
        fallback = {"zero", "site-matrix", "diag-mult", "spin-rotation", "shift-all",
                    "central-difference", "non-separating"}
        for family, F in bundled_families(SPIN_GRID).items():
            for label, op in linearize_cases(F):
                lifted_linear = family in fallback and label in ("as-is",)
                assert (op.linearize_fn is None) == lifted_linear, (family, label)

    def test_stripped_derivative_falls_back_to_finite_differences(self):
        # a lift or sum of an operator without a closed derivative has no
        # linearize kernel: its tangent is the whole operator's difference
        F = replace(rms_log_modulus_op(SPIN_GRID, 0.9), derivative_fn=None, linearize_fn=None)
        rng = np.random.default_rng(3)
        for op in (lift_J(F, (1,), 2), op_combine([F, log_modulus_op(SPIN_GRID)])):
            assert op.linearize_fn is None
            data, eta = random_batch((op.n,) * 2, SPIN_GRID, [rng] * 2)
            value, tangent = op.linearize(data)
            assert np.array_equal(value, op.apply(data))
            assert np.array_equal(tangent(eta), op.derivative(data, eta))


def rolled_difference(space, data):
    """The central difference as it was formed before the gathers: the
    grid axis split off by a reshape and rolled both ways."""
    arr = data.reshape(space.internal_size, space.grid_size, -1)
    fwd = np.roll(arr, -1, axis=1).reshape(data.shape)
    bwd = np.roll(arr, 1, axis=1).reshape(data.shape)
    return (fwd - bwd) * (1.0 / (2.0 * space.spacing))


class TestCentralDifferenceGathers:
    """central_difference_op shifts sites by two gathers along the particle
    axis; it equals the roll-based difference bit for bit."""

    @pytest.mark.parametrize("space", [ConfigSpace(8, grid=True), SPIN_GRID],
                             ids=["grid", "spin-grid"])
    def test_equals_rolls(self, space):
        D = central_difference_op(space)
        rng = np.random.default_rng(11)
        one, three = random_batch((1, 3), space, [rng] * 3)
        assert np.array_equal(D.apply(one), rolled_difference(space, one))
        # a transposed lifted view: particle 2 in front, strides untouched
        view = three.transpose(2, 0, 1, 3)
        assert not view.flags.c_contiguous
        assert np.array_equal(D.apply(view), rolled_difference(space, view))
        lifted = lift_J(D, (2,), 3).apply(three)
        want = rolled_difference(space, view).transpose(1, 2, 0, 3)
        assert np.array_equal(lifted, want)
