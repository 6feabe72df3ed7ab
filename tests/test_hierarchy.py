import dataclasses
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from sepsym.errors import BadRange, BadTuple, NotDerivation, SpaceMismatch
from sepsym.hierarchy import (
    MAX_PARTICLES,
    Generator,
    Hierarchy,
    bracket_hierarchy,
    canonical_decompose,
    canonical_lift,
    lift_J,
    natural_part,
    tensor_derivation_residual,
)
from sepsym import operators
from sepsym.mixedpow import IndexPair, ZERO_PAIR
from sepsym.opcalc import NonlinearOperator, estimate_log_indices, lie_bracket, op_combine
from sepsym.operators import (
    central_difference_op,
    cross_ratio_op,
    diag_mult_op,
    lambda_op,
    linear_op,
    log_modulus_op,
    nonseparating_op,
    relative_log_modulus_op,
    rms_log_modulus_op,
    shift_all_op,
    shifted_log_modulus_op,
    site_matrix_op,
    spin_rms_log_op,
    spin_rotation_op,
    zero_op,
)
from sepsym.scenario import build_generator, random_hermitian
from sepsym.space import ConfigSpace, random_batch, random_state
from sepsym.symmetry import (
    PointSymmetrySpec,
    named_profile,
    point_symmetry_parts,
)


def nz(n, space, rng, cap=None):
    return random_state(n, space, rng, nowhere_zero=True, phase_cap=cap)


def gen_shifted(space, c=0.8):
    return Generator(shifted_log_modulus_op(space, c))


def gen_cross(space, coupling=0.6, refs=(0, 0)):
    return Generator(cross_ratio_op(space, refs, coupling))


class TestLiftJ:
    def test_linear_kron_oracle(self, space3, rng):
        A = random_hermitian(space3, rng)
        F = site_matrix_op(space3, A)
        phi = random_state(2, space3, rng)
        eye = np.eye(3)
        left = lift_J(F, (0,), 2).apply(phi)
        assert np.allclose(
            left.reshape(-1), np.kron(A, eye) @ phi.reshape(-1), rtol=1e-13, atol=1e-14
        )
        right = lift_J(F, (1,), 2).apply(phi)
        assert np.allclose(
            right.reshape(-1), np.kron(eye, A) @ phi.reshape(-1), rtol=1e-13, atol=1e-14
        )

    def test_parameters_factor_out(self, space3, rng):
        F = rms_log_modulus_op(space3, 0.9)
        f, g = nz(1, space3, rng), nz(1, space3, rng)
        lifted = lift_J(F, (0,), 2).apply(np.multiply.outer(f, g))
        expect = np.multiply.outer(F.apply(f), g)
        assert np.allclose(lifted, expect, rtol=1e-12, atol=1e-14)

    def test_permutation_covariance(self, space3, rng):
        F = shifted_log_modulus_op(space3, 1.0)
        phi = nz(2, space3, rng)
        via_swap = lift_J(F, (0,), 2).apply(phi.T).T
        direct = lift_J(F, (1,), 2).apply(phi)
        assert np.allclose(via_swap, direct, rtol=1e-13, atol=1e-15)

    def test_pointwise_shortcut_matches_slicing(self, space3, rng):
        lam = lambda_op(IndexPair(0.4, 0.7), 1, space3)
        phi = nz(2, space3, rng)
        lifted = lift_J(lam, (1,), 2)
        lam2 = lambda_op(IndexPair(0.4, 0.7), 2, space3)
        assert np.allclose(
            lifted.apply(phi), lam2.apply(phi), rtol=1e-14, atol=0
        )

    def test_identity_lift_is_same_object(self, space3):
        G = cross_ratio_op(space3)
        assert lift_J(G, (0, 1), 2) is G

    def test_bad_tuples(self, space3):
        F = log_modulus_op(space3, 1.0)
        with pytest.raises(BadTuple):
            lift_J(F, (2,), 2)
        with pytest.raises(BadTuple):
            lift_J(cross_ratio_op(space3), (1, 0), 3)
        with pytest.raises(BadTuple):
            lift_J(cross_ratio_op(space3), (0,), 3)


def sliced_oracle(fn, m, J, arrays):
    """The per-slice lifting loop: the kernel sees one parameter slice at
    a time, so no batch axis ever reaches it."""
    ell = len(J)
    rest = tuple(ax for ax in range(m) if ax not in J)
    perm = J + rest
    inv = tuple(int(k) for k in np.argsort(perm))
    s = arrays[0].shape[0]
    blocks = [np.transpose(a, perm).reshape((s,) * ell + (-1,)) for a in arrays]
    out = np.empty_like(blocks[0])
    for p in range(blocks[0].shape[-1]):
        out[..., p] = fn(*(b[..., p] for b in blocks))
    return np.transpose(out.reshape((s,) * m), inv)


def pair_matrix(space, square):
    """Kernel of the two-particle matrix ``square`` acting on the flattened pair."""
    def ev(data):
        return (square @ data.reshape(space.size**2, -1)).reshape(data.shape)
    return ev


def _contract_cases():
    """Every operator factory, the point-symmetry drift, one combination
    and one bracket, on a factored grid (spin x sites) and a plain grid."""
    spin = ConfigSpace(6, factors=(2, 3), grid=True)
    plain = ConfigSpace(5, grid=True)
    rng = np.random.default_rng(7)
    sine = named_profile("sine", amplitude=0.7, phase=0.3)
    drift_spec = PointSymmetrySpec(xi=lambda pos: sine(pos))
    cases = []
    for sp in (spin, plain):
        s = sp.size
        site_vals = rng.standard_normal(s) + 1j * rng.standard_normal(s)
        square = rng.standard_normal((s * s, s * s)) + 1j * rng.standard_normal((s * s, s * s))
        cases += [
            (sp, zero_op(sp, 1)),
            (sp, zero_op(sp, 2)),
            (sp, site_matrix_op(sp, random_hermitian(sp, rng))),
            (sp, linear_op(sp, 2, pair_matrix(sp, square), "pair-matrix")),
            (sp, diag_mult_op(sp, site_vals)),
            (sp, lambda_op(IndexPair(0.4 - 0.2j, 0.7), 1, sp)),
            (sp, lambda_op(IndexPair(0.4, 0.7), 2, sp)),
            (sp, log_modulus_op(sp, 0.8)),
            (sp, shifted_log_modulus_op(sp, 0.8 + 0.1j, 2)),
            (sp, relative_log_modulus_op(sp, 0.9)),
            (sp, rms_log_modulus_op(sp, 0.9 - 0.3j)),
            (sp, cross_ratio_op(sp, (1, 2), 0.6)),
            (sp, nonseparating_op(sp, 1, 0.5)),
            (sp, nonseparating_op(sp, 2, 0.5)),
            (sp, shift_all_op(sp, 1, 1)),
            (sp, shift_all_op(sp, 2, -1)),
            (sp, central_difference_op(sp)),
            (sp, point_symmetry_parts(drift_spec, sp)["drift"]),
            (sp, op_combine(
                [rms_log_modulus_op(sp, 0.9), shifted_log_modulus_op(sp, 0.8)], [0.5, 1j]
            )),
            (sp, lie_bracket(rms_log_modulus_op(sp, 0.9), shifted_log_modulus_op(sp, 0.8))),
        ]
    cases += [(spin, spin_rms_log_op(spin, 0.7)), (spin, spin_rotation_op(spin))]
    return cases


CONTRACT_CASES = _contract_cases()


def _close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())


class TestKernelContract:
    """One batched kernel call per lifting agrees with the slice loop."""

    @pytest.mark.parametrize(
        "space, op", CONTRACT_CASES,
        ids=[f"{op.name}-n{op.n}-size{sp.size}" for sp, op in CONTRACT_CASES],
    )
    def test_lift_matches_slice_loop(self, space, op):
        rng = np.random.default_rng(11)
        for m in range(op.n + 1, 4):
            data, u, v = (nz(m, space, rng) for _ in range(3))
            for J in itertools.combinations(range(m), op.n):
                lifted = lift_J(op, J, m)
                _close(lifted.apply(data), sliced_oracle(op.eval_fn, m, J, (data,)))
                if op.derivative_fn is not None:
                    _close(lifted.derivative(data, u), sliced_oracle(op.derivative_fn, m, J, (data, u)))
                if op.second_derivative_fn is not None:
                    _close(
                        lifted.second_derivative_fn(data, u, v),
                        sliced_oracle(op.second_derivative_fn, m, J, (data, u, v)),
                    )

    @pytest.mark.parametrize(
        "space, op", [c for c in CONTRACT_CASES if c[1].n == 1],
        ids=[f"{op.name}-size{sp.size}" for sp, op in CONTRACT_CASES if op.n == 1],
    )
    def test_batch_length_equal_to_size(self, space, op):
        # a (size, size) batch is where broadcasting a site function along
        # the last axis instead of the particle axis goes unnoticed by shape
        rng = np.random.default_rng(12)
        batch = np.stack([nz(1, space, rng) for _ in range(space.size)], axis=-1)
        got = op.apply(batch)
        for k in range(space.size):
            _close(got[:, k], op.apply(batch[:, k]))


class TestClosedFormDerivatives:
    """Each closed-form derivative kernel is the central difference of the
    kernel below it, on a batch of nowhere-zero states whose phases keep
    every logarithm, the cross ratio's included, off its branch cut."""

    @pytest.mark.parametrize(
        "space, op", CONTRACT_CASES,
        ids=[f"{op.name}-n{op.n}-size{sp.size}" for sp, op in CONTRACT_CASES],
    )
    def test_kernels_match_central_differences(self, space, op):
        rng = np.random.default_rng(13)
        h = 1e-5
        data, u, v = (
            np.stack([nz(op.n, space, rng, cap=np.pi / 8) for _ in range(3)], axis=-1)
            for _ in range(3)
        )

        def central(fn, step, *dirs):
            return (fn(data + h * step, *dirs) - fn(data - h * step, *dirs)) / (2 * h)

        # the worst case reads about 2e-9: O(h^2) truncation plus round-off
        if op.derivative_fn is not None:
            _close(op.derivative_fn(data, u), central(op.eval_fn, u), rel=1e-7)
        if op.second_derivative_fn is not None:
            _close(op.second_derivative_fn(data, u, v), central(op.derivative_fn, v, u), rel=1e-7)


class TestCanonicalLift1p:
    def test_linear_is_kron_sum(self, space3, rng):
        A = random_hermitian(space3, rng)
        g = Generator(site_matrix_op(space3, A))
        op2 = canonical_lift(g, 2)
        phi = random_state(2, space3, rng)
        eye = np.eye(3)
        oracle = (np.kron(A, eye) + np.kron(eye, A)) @ phi.reshape(-1)
        assert np.allclose(op2.apply(phi).reshape(-1), oracle, rtol=1e-13, atol=1e-14)

    def test_lambda_lifts_to_lambda(self, space3, rng):
        idx = IndexPair(0.7 - 0.4j, 0.2 + 0.9j)
        g = Generator(lambda_op(idx, 1, space3))
        for n in (2, 3):
            lifted = canonical_lift(g, n)
            direct = lambda_op(idx, n, space3)
            phi = nz(n, space3, rng)
            assert (
                np.abs(lifted.apply(phi) - direct.apply(phi)).max()
                <= 1e-12
            )

    def test_log_modulus_leibniz_on_products(self, space3, rng):
        g = Generator(log_modulus_op(space3, 1.0))
        op2 = canonical_lift(g, 2)
        f1, f2 = nz(1, space3, rng), nz(1, space3, rng)
        lhs = op2.apply(np.multiply.outer(f1, f2))
        rhs = np.multiply.outer(g.op.apply(f1), f2) + np.multiply.outer(
            f1, g.op.apply(f2)
        )
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_level_one_is_generator(self, space3):
        g = gen_shifted(space3)
        assert canonical_lift(g, 1) is g.op

    @pytest.mark.parametrize("c", [0.9, 0.4j])
    def test_indices_declared_exactly(self, space3, c):
        # n idx - (n-1) idx rounds 0.4j to 0.40000000000000013j at n = 3
        g = gen_shifted(space3, c)
        for n in range(2, MAX_PARTICLES + 1):
            assert canonical_lift(g, n).indices == g.indices

    def test_strict_case_consolidates_with_plain_slot_sum(self, space3, rng):
        # with vanishing indices the one-particle formula is the bare
        # tuple sum, the same rule the higher-threshold lifting uses
        g = Generator(rms_log_modulus_op(space3, 0.7))
        lifted = canonical_lift(g, 2)
        plain = op_combine([lift_J(g.op, (j,), 2) for j in range(2)])
        phi = nz(2, space3, rng)
        assert np.abs(lifted.apply(phi) - plain.apply(phi)).max() <= 1e-14


class TestCanonicalLiftGen:
    def test_level_ell_is_generator(self, space3):
        g = gen_cross(space3)
        assert canonical_lift(g, 2) is g.op

    def test_vanishes_on_products(self, space3, rng):
        g = gen_cross(space3, coupling=1.0)
        op3 = canonical_lift(g, 3)
        for _ in range(4):
            fs = [nz(1, space3, rng) for _ in range(3)]
            prod = np.multiply.outer(np.multiply.outer(fs[0], fs[1]), fs[2])
            assert np.abs(op3.apply(prod)).max() <= 1e-12

    def test_brute_force_tuple_oracle(self, space3, rng):
        # independent slice enumeration for l = 2, n = 3: apply the raw
        # generator to every pair of slots with the third held fixed
        G = cross_ratio_op(space3, coupling=0.7)
        phi = nz(3, space3, rng)
        acc = np.zeros_like(phi)
        for x in range(space3.size):
            acc[:, :, x] += G.apply(phi[:, :, x])
            acc[:, x, :] += G.apply(phi[:, x, :])
            acc[x, :, :] += G.apply(phi[x, :, :])
        total = canonical_lift(gen_cross(space3, 0.7), 3).apply(phi)
        assert np.allclose(total, acc, rtol=1e-13, atol=1e-15)

    def test_range_errors(self, space3):
        with pytest.raises(BadRange):
            canonical_lift(gen_cross(space3), 1)
        with pytest.raises(BadRange):
            canonical_lift(gen_shifted(space3), 0)

    def test_undeclared_indices_take_the_slot_sum(self, space3, rng):
        # a bracket with an operand that declares no indices declares none
        # itself; its pointwise_lambda is None too, which must not read as
        # "Lambda of its indices"
        op = lie_bracket(gen_cross(space3, 0.7).op, replace(cross_ratio_op(space3, refs=(1, 2)),
                                                            indices=None))
        gen = Generator(op)
        assert gen.indices is None and op.pointwise_lambda is None
        phi = nz(3, space3, rng)
        got = canonical_lift(gen, 3).apply(phi)
        want = slot_loop_oracle(gen, 3).apply(phi)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


def slot_loop_oracle(gen, n):
    """The per-slot construction: one lift_J operator per tuple, summed by
    op_combine with the -(n-1) Lambda correction at one particle."""
    parts = [lift_J(gen.op, J, n) for J in itertools.combinations(range(n), gen.ell)]
    coeffs = [1.0] * len(parts)
    if gen.ell == 1 and not gen.indices.is_zero():
        parts.append(lambda_op(gen.indices, n, gen.op.space))
        coeffs.append(-(n - 1.0))
    return op_combine(parts, coeffs)


def _fused_cases(space):
    lam = IndexPair(0.7 - 0.4j, 0.2 + 0.9j)
    zero = IndexPair(0, 0)
    return {
        "lambda": Generator(lambda_op(lam, 1, space)),
        "log-modulus": Generator(log_modulus_op(space, 0.8)),
        "shifted": gen_shifted(space, 0.8),
        "rms": Generator(rms_log_modulus_op(space, 0.9)),
        "relative": Generator(relative_log_modulus_op(space, 0.7)),
        "cross-ratio-00": gen_cross(space, 0.6, (0, 0)),
        "cross-ratio-12": gen_cross(space, 0.5, (1, 2)),
    }


# Lambda generators lift to the pointwise Lambda_n, one evaluation, where
# the slot-loop oracle adds n slot copies and subtracts (n - 1) Lambda_n
POINTWISE_CASES = ("lambda", "log-modulus")


class TestFusedCanonicalLift:
    """A canonical lift is one kernel call over the stacked slot
    permutations and equals the per-slot lift_J sum."""

    SPACE = ConfigSpace(3)
    CASES = _fused_cases(SPACE)

    @staticmethod
    def _sides(gen, n, batch):
        rng = np.random.default_rng(31 + n)
        shape = () if batch is None else (batch,)

        def draw():
            states = [nz(n, gen.op.space, rng, cap=np.pi / 4)
                      for _ in range(batch or 1)]
            return np.stack(states, axis=-1).reshape(states[0].shape + shape)

        data, u, v = draw(), draw(), draw()
        fused, oracle = canonical_lift(gen, n), slot_loop_oracle(gen, n)
        out = [(fused.apply(data), oracle.apply(data)),
               (fused.derivative(data, u), oracle.derivative(data, u))]
        if oracle.second_derivative_fn is not None:
            out.append((fused.second_derivative_fn(data, u, v),
                        oracle.second_derivative_fn(data, u, v)))
        else:
            assert fused.second_derivative_fn is None
        return out

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("n", range(2, MAX_PARTICLES + 1))
    @pytest.mark.parametrize("name", [k for k in CASES if k not in POINTWISE_CASES])
    def test_elementwise_families_bit_for_bit(self, name, n, batch):
        for got, want in self._sides(self.CASES[name], n, batch):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("n", range(2, MAX_PARTICLES + 1))
    @pytest.mark.parametrize("name", POINTWISE_CASES)
    def test_pointwise_lambda_to_round_off(self, name, n, batch):
        # the oracle's sum of n + 1 terms rounds n times: n ulps at most
        for got, want in self._sides(self.CASES[name], n, batch):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= n * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("n", range(2, MAX_PARTICLES + 1))
    def test_matrix_op_to_round_off(self, n, batch):
        # BLAS may sum a wider batch in another order: round-off only
        rng = np.random.default_rng(5)
        square = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gen = Generator(site_matrix_op(self.SPACE, square))
        for got, want in self._sides(gen, n, batch):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("name", ["shifted", "cross-ratio-12"])
    def test_one_kernel_call_per_evaluation(self, name):
        gen = self.CASES[name]
        calls = []

        def counted(fn):
            def kernel(*arrays):
                calls.append(arrays[0].shape)
                return fn(*arrays)
            return kernel

        op = replace(
            gen.op,
            eval_fn=counted(gen.op.eval_fn),
            derivative_fn=counted(gen.op.derivative_fn),
        )
        lifted = canonical_lift(replace(gen, op=op), 3)
        data = nz(3, self.SPACE, np.random.default_rng(2))
        # every tuple's copy of the other slots on one gathered batch axis
        tuples = math.comb(3, gen.ell)
        stacked = (3,) * gen.ell + (tuples * 3 ** (3 - gen.ell),)
        lifted.apply(data)
        assert calls == [stacked]
        lifted.derivative(data, data)
        assert calls == [stacked] * 2

    def test_lift_J_kernel_sees_a_view(self):
        # a lone lifting stacks nothing: grid-32 lifts would copy every state
        base = self.CASES["shifted"].op
        data = nz(3, self.SPACE, np.random.default_rng(3))
        shared = []

        def kernel(d):
            shared.append(np.shares_memory(d, data))
            return base.eval_fn(d)

        lift_J(replace(base, eval_fn=kernel), (2,), 3).apply(data)
        assert shared == [True]


class TestPointwiseLambdaLift:
    """lambda_op marks itself as the pointwise Lambda of its static indices,
    and only such an operator lifts to Lambda_n in one evaluation."""

    SPACE = ConfigSpace(3, grid=True)
    IDX = IndexPair(0.7 - 0.4j, 0.2 + 0.9j)

    @staticmethod
    def kernel_shapes(monkeypatch):
        # every multiplier_op kernel checks its state's floor exactly once
        shapes = []

        def counted(data):
            shapes.append(data.shape)
            return np.abs(data)

        monkeypatch.setattr(operators, "require_nowhere_zero", counted)
        return shapes

    def test_marked_lift_is_one_plain_kernel_call(self, monkeypatch):
        data = nz(3, self.SPACE, np.random.default_rng(6))
        for op in (lambda_op(self.IDX, 1, self.SPACE), log_modulus_op(self.SPACE, 0.8)):
            assert op.pointwise_lambda == op.indices
            lifted = canonical_lift(Generator(op), 3)
            assert lifted.name == f"{op.name}#_3" and lifted.indices == op.indices
            shapes = self.kernel_shapes(monkeypatch)
            lifted.apply(data)
            lifted.derivative(data, data)
            lifted.second_derivative_fn(data, data, data)
            assert shapes == [(3, 3, 3)] * 3

    def test_derived_operators_carry_no_marker(self):
        lam = lambda_op(self.IDX, 1, self.SPACE)
        derived = [
            op_combine([lam]),
            op_combine([lam, log_modulus_op(self.SPACE)], [1.0, -1.0]),
            lie_bracket(lam, lam),
            lift_J(lam, (1,), 2),
            canonical_lift(Generator(op_combine([lam])), 2),
            natural_part(Generator(lam)),
        ]
        assert [op.pointwise_lambda for op in derived] == [None] * len(derived)

    def test_zero_lambda_carries_no_marker(self):
        assert lambda_op(ZERO_PAIR, 1, self.SPACE).pointwise_lambda is None

    def test_lambda_sum_takes_the_slot_sum(self, monkeypatch):
        # pieces + [lambda] is an op_combine sum, not a Lambda generator,
        # even when the pieces are absent and the sum has one term
        data = nz(3, self.SPACE, np.random.default_rng(7))
        lam = lambda_op(IndexPair(0.4j, 0.2j), 1, self.SPACE)
        phase = diag_mult_op(self.SPACE, 1j * np.sin(self.SPACE.positions()))
        for parts in ([lam], [phase, lam]):
            level = canonical_lift(Generator(op_combine(parts)), 3)
            shapes = self.kernel_shapes(monkeypatch)
            level.apply(data)
            assert shapes == [(3, 27), (3, 3, 3)]

    def test_redeclared_indices_take_the_slot_sum(self, rng):
        # a marked operator whose indices were replaced is no longer
        # Lambda of its indices: its lift is n Lambda - (n-1) Lambda'
        op = replace(log_modulus_op(self.SPACE), indices=IndexPair(2.0, 0.0))
        phi = nz(2, self.SPACE, rng)
        want = 2 * lambda_op(IndexPair(1.0, 0.0), 2, self.SPACE).apply(phi) - (
            lambda_op(IndexPair(2.0, 0.0), 2, self.SPACE).apply(phi))
        got = canonical_lift(Generator(op), 2).apply(phi)
        assert np.abs(got - want).max() <= 1e-14

    def test_marked_rms_mutant_fails_liftdeltal_identity(self, monkeypatch):
        # rms-log-modulus declares (0, 0) but is not pointwise: forcing the
        # pointwise path lifts it to zero, and theorem10's bundled
        # liftdeltal-identity check must see that
        from sepsym import checks_lifts, scenario
        from sepsym.checks import CHECKS, run_check

        def mark(op):
            return replace(op, pointwise_lambda=op.indices)

        plain = operators.rms_log_modulus_op
        keys, build = scenario.GENERATOR_KINDS["rms-log-modulus"]
        monkeypatch.setattr(checks_lifts, "rms_log_modulus_op",
                            lambda *args, **kwargs: mark(plain(*args, **kwargs)))
        # the scenario's named generators come from the kind table's builder
        monkeypatch.setitem(scenario.GENERATOR_KINDS, "rms-log-modulus",
                            (keys, lambda *args: mark(build(*args))))
        sc = scenario.load_scenario("theorem10", set(CHECKS))
        entry = next(e for e in sc.checks if e["name"] == "liftdeltal-identity")
        assert run_check("liftdeltal-identity", sc, entry["params"]).status == "fail"


def two_evaluation_cross_ratio(space, refs, coupling):
    """The cross-ratio generator with its slot symmetrisation evaluated as
    the average of G on ``data`` and of swap . G . swap, at any refs."""
    r1, r2 = refs
    c = complex(coupling)

    def slices(arr):
        return arr, arr[r1, r2], arr[:, r2][:, None], arr[r1, :][None, :]

    def ratio(data):
        u, v, w, y = slices(data)
        return u * ((v / w) * (1 / y))

    def rdot(data, eta):
        # the reference-slice terms of DR.eta / R; the eta / phi term gives
        # phi (eta / phi) = eta in the product rule
        u, v, w, y = slices(data)
        eu, evv, ew, ey = slices(eta)
        return evv / v - ew / w - ey / y

    def raw_ev(data):
        return data * operators.principal_log(ratio(data))

    def raw_deriv(data, eta):
        return eta * operators.principal_log(ratio(data)) + data * rdot(data, eta) + eta

    def averaged(fn):
        def kernel(data, *dirs):
            direct = fn(data, *dirs)
            swapped = np.swapaxes(
                fn(np.swapaxes(data, 0, 1), *(np.swapaxes(d, 0, 1) for d in dirs)), 0, 1
            )
            return 0.5 * c * (direct + swapped)
        return kernel

    return NonlinearOperator(
        n=2, space=space, eval_fn=averaged(raw_ev), derivative_fn=averaged(raw_deriv),
        indices=ZERO_PAIR,
        name=f"two-evaluation-cross-ratio{refs}",
    )


class TestCrossRatioShortcut:
    """At coincident reference sites the cross ratio is evaluated once; the
    two-evaluation average is the oracle."""

    SPACE = ConfigSpace(3)

    @staticmethod
    def _pairs(refs, n, batch, coupling=0.7 - 0.2j):
        # level n = 2 is the bare operator: canonical_lift returns it
        space = TestCrossRatioShortcut.SPACE
        rng = np.random.default_rng(41 + n)
        shape = () if batch is None else (batch,)

        def draw():
            states = [nz(n, space, rng) for _ in range(batch or 1)]
            return np.stack(states, axis=-1).reshape(states[0].shape + shape)

        data, u = draw(), draw()
        ops = [canonical_lift(Generator(op), n)
               for op in (cross_ratio_op(space, refs, coupling),
                          two_evaluation_cross_ratio(space, refs, coupling))]
        return [(op.apply(data), op.derivative(data, u)) for op in ops]

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("n", range(2, MAX_PARTICLES + 1))
    @pytest.mark.parametrize("refs", [(0, 0), (2, 2)])
    def test_coincident_refs_match_average_to_round_off(self, refs, n, batch):
        for got, want in zip(*self._pairs(refs, n, batch)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", range(2, MAX_PARTICLES + 1))
    @pytest.mark.parametrize("refs", [(0, 0), (2, 2)])
    def test_unit_coupling_matches_average_to_round_off(self, refs, n):
        # at c = 1 the coincident-site kernels skip the coupling's pass
        for got, want in zip(*self._pairs(refs, n, 3, coupling=1.0)):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("n", range(2, MAX_PARTICLES + 1))
    def test_distinct_refs_keep_the_average_bit_for_bit(self, n, batch):
        for got, want in zip(*self._pairs((1, 2), n, batch)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("refs, logs", [((0, 0), 1), ((2, 2), 1), ((1, 2), 2)])
    def test_principal_logs_per_evaluation(self, monkeypatch, refs, logs):
        calls = []

        def counted(z):
            calls.append(z.shape)
            return np.log(z)

        monkeypatch.setattr(operators, "principal_log", counted)
        G = cross_ratio_op(self.SPACE, refs, 0.7)
        data = nz(2, self.SPACE, np.random.default_rng(4))
        G.apply(data)
        assert len(calls) == logs
        G.derivative(data, data)
        assert len(calls) == 2 * logs


def quotient_form_ratio(data, refs):
    """The cross ratio as the kernel formed it before its divisions moved
    onto the reference slices: u v / (w y), two full-array products and a
    full-array division."""
    r1, r2 = refs
    u, v, w, y = data, data[r1, r2], data[:, r2][:, None], data[r1, :][None, :]
    return u * v / (w * y)


class TestCrossRatioForm:
    """The kernel forms the ratio as u ((v / w) (1 / y)); the quotient
    form u v / (w y) is the oracle, to a few ulps, for every ratio a
    kernel takes the log of (the direct and, at distinct sites, the
    swapped evaluation)."""

    ULPS = 8

    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("refs", [(0, 0), (2, 2), (1, 2), (3, 0)])
    def test_ratio_matches_quotient_form(self, monkeypatch, refs, batch):
        seen = []
        monkeypatch.setattr(operators, "principal_log", lambda z: seen.append(z) or np.log(z))
        space = ConfigSpace(4)
        rng = np.random.default_rng(17)
        states = [nz(2, space, rng) for _ in range(batch or 1)]
        data = np.stack(states, axis=-1).reshape(states[0].shape + ((batch,) if batch else ()))
        cross_ratio_op(space, refs, 0.7).apply(data)
        wants = [quotient_form_ratio(data, refs)]
        if refs[0] != refs[1]:
            wants.append(quotient_form_ratio(np.swapaxes(data, 0, 1), refs))
        assert len(seen) == len(wants)
        for got, want in zip(seen, wants):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= self.ULPS * np.finfo(float).eps * np.abs(want))


class TestLambdaOp:
    def test_zero_pair_is_zero_operator(self, space3, rng):
        z = lambda_op(IndexPair(0, 0), 2, space3)
        phi = random_state(2, space3, rng)  # zeros allowed: no log evaluated
        assert np.abs(z.apply(phi)).max() == 0.0

    def test_unit_modulus_kernel(self, space3, rng):
        th = rng.uniform(-math.pi, math.pi, (3, 3))
        phi = np.exp(1j * th)
        lam = lambda_op(IndexPair(1.0, 0.0), 2, space3)
        assert np.abs(lam.apply(phi)).max() <= 1e-14

    def test_index_estimate(self, space3, rng):
        idx = IndexPair(0.5 + 0.1j, -0.8 + 0.6j)
        lam = lambda_op(idx, 1, space3)
        [batch] = random_batch((1,), space3, [rng] * 3, phase_cap=math.pi / 2)
        est, _ = estimate_log_indices(lam, batch)
        assert est.close_to(idx, 1e-10)


class TestNaturalPart:
    def test_lambda_natural_is_zero(self, space3, rng):
        idx = IndexPair(0.4, 0.8)
        nat = natural_part(Generator(lambda_op(idx, 1, space3)))
        phi = nz(1, space3, rng)
        assert np.abs(nat.apply(phi)).max() <= 1e-14

    def test_linear_unchanged(self, space3, rng):
        F = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        assert natural_part(F) is F.op

    def test_strictly_homogeneous_result(self, space3, rng):
        nat = natural_part(gen_shifted(space3, 1.0))
        [batch] = random_batch((1,), space3, [rng] * 3, phase_cap=math.pi / 2)
        est, _ = estimate_log_indices(nat, batch)
        assert est.close_to(IndexPair(0, 0), 1e-9)


class TestTensorDerivation:
    def hierarchy(self, space):
        return Hierarchy.from_generators([gen_shifted(space), gen_cross(space)], 3)

    def test_canonical_lift_is_derivation(self, space3, rng):
        H = self.hierarchy(space3)
        for sizes in [(1, 1), (1, 2), (2, 1), (1, 1, 1)]:
            factors = random_batch(sizes, space3, [rng] * 2, phase_cap=math.pi / 4)
            assert max(tensor_derivation_residual(H, factors)) <= 1e-10

    def test_single_factor_identically_zero(self, space3, rng):
        H = self.hierarchy(space3)
        factors = random_batch((2,), space3, [rng] * 2)
        assert tensor_derivation_residual(H, factors) == [0.0] * 2

    def test_non_separating_counterexample(self, space3, rng):
        H = self.hierarchy(space3)
        ops = list(H.ops)
        ops[1] = op_combine([ops[1], nonseparating_op(space3, 2, 0.5)])
        bad = Hierarchy(tuple(ops))
        factors = random_batch((1, 1), space3, [rng])
        assert max(tensor_derivation_residual(bad, factors)) > 0.01

    def test_level_cap(self, space3, rng):
        H = self.hierarchy(space3)
        with pytest.raises(BadRange):
            tensor_derivation_residual(H, random_batch((2, 2), space3, [rng]))


class TestBracketHierarchy:
    def test_bracket_is_derivation_with_bracket_indices(self, space3, rng):
        F = Hierarchy.from_generators([gen_shifted(space3), gen_cross(space3)], 3)
        G = Hierarchy.from_generators(
            [
                Generator(lambda_op(IndexPair(0.6 + 0.3j, 0.2 - 0.4j), 1, space3)),
                Generator(rms_log_modulus_op(space3, 0.7)),
            ],
            3,
        )
        Bk = bracket_hierarchy(F, G)
        for sizes in [(1, 1), (1, 2), (1, 1, 1)]:
            factors = random_batch(sizes, space3, [rng], phase_cap=math.pi / 4)
            assert max(tensor_derivation_residual(Bk, factors)) <= 1e-8

    def test_threshold_grows(self, space3, rng):
        F = Hierarchy.from_generators([gen_shifted(space3)], 3)
        H2 = Hierarchy.from_generators([gen_cross(space3)], 3)
        Bk = bracket_hierarchy(F, H2)
        phi = nz(1, space3, rng)
        assert np.abs(Bk.op(1).apply(phi)).max() <= 1e-12
        # the threshold level of the bracket vanishes on products
        factors = random_batch((1, 1), space3, [rng], phase_cap=math.pi / 4)
        assert max(tensor_derivation_residual(Bk, factors)) <= 1e-10


def _direct_sum_gens(space):
    rng = np.random.default_rng(5)
    return {
        "log-modulus+cross-ratio": [Generator(log_modulus_op(space, 1.0)), gen_cross(space, 0.25)],
        "site-matrix": [Generator(site_matrix_op(space, random_hermitian(space, rng)))],
        "shifted-log-modulus": [gen_shifted(space)],
        "non-separating": [Generator(nonseparating_op(space, 2, 0.5))],
        "rms+distinct-refs": [Generator(rms_log_modulus_op(space, 0.7)),
                              gen_cross(space, 0.4, refs=(0, 2))],
    }


class TestDirectSum:
    """One evaluation of the stacked levels equals, row block by row block,
    each level's own ``apply`` bit for bit."""

    LEVELS = [(1, 2, 3), (1, 1, 2), (1, 1), (2, 2), (3,)]

    def blocks(self, H, ns, batch, rng):
        states = random_batch(ns, H.space, [rng] * math.prod(batch))
        states = [phi.reshape(phi.shape[:-1] + batch) for phi in states]
        out = H.direct_sum(ns).apply(np.concatenate(
            [phi.reshape((-1,) + batch) for phi in states]))
        cuts = np.cumsum([phi.size // math.prod(batch) for phi in states])[:-1]
        return zip(states, np.split(out, cuts))

    @pytest.mark.parametrize("batch", [(4,), (2, 2), (2, 3)])
    @pytest.mark.parametrize("case", list(_direct_sum_gens(ConfigSpace(3))))
    def test_blocks_equal_level_apply(self, space3, rng, case, batch):
        H = Hierarchy.from_generators(_direct_sum_gens(space3)[case], 3)
        for ns in self.LEVELS:
            for phi, block in self.blocks(H, ns, batch, rng):
                level = H.op(phi.ndim - len(batch)).apply(phi)
                assert np.array_equal(block.reshape(phi.shape), level)

    @pytest.mark.parametrize("batch", [(4,), (2, 3)])
    def test_hand_built_levels_apply_each_block(self, space3, rng, batch):
        ops = list(Hierarchy.from_generators(_direct_sum_gens(space3)["shifted-log-modulus"], 3).ops)
        ops[1] = op_combine([ops[1], nonseparating_op(space3, 2, 0.5)])
        H = Hierarchy(tuple(ops))
        for ns in self.LEVELS:
            for phi, block in self.blocks(H, ns, batch, rng):
                level = H.op(phi.ndim - len(batch)).apply(phi)
                assert np.array_equal(block.reshape(phi.shape), level)

    @pytest.mark.parametrize("batch", [(4,), (2, 3)])
    @pytest.mark.parametrize("case", list(_direct_sum_gens(ConfigSpace(3))))
    def test_blocks_equal_slot_loop_oracle(self, space3, rng, case, batch):
        # op(n) runs the same gathered slot sum as direct_sum; this oracle
        # shares none of it: lift_J per tuple, op_combine and Lambda, summed
        # over the generators that reach level n
        gens = _direct_sum_gens(space3)[case]
        H = Hierarchy.from_generators(gens, 3)
        for ns in self.LEVELS:
            for phi, block in self.blocks(H, ns, batch, rng):
                n = phi.ndim - len(batch)
                parts = [slot_loop_oracle(g, n) for g in gens if g.ell <= n]
                want = op_combine(parts).apply(phi) if parts else np.zeros_like(phi)
                err = np.abs(block.reshape(phi.shape) - want).max()
                assert err <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("batch", [(4,), (2, 3)])
    @pytest.mark.parametrize("case", list(_direct_sum_gens(ConfigSpace(3))))
    def test_derivative_and_linearize_blocks_equal_level_ones(self, space3, rng, case, batch):
        H = Hierarchy.from_generators(_direct_sum_gens(space3)[case], 3)

        def draw(ns):
            return [phi.reshape(phi.shape[:-1] + batch)
                    for phi in random_batch(ns, H.space, [rng] * math.prod(batch))]

        def stack(states):
            return np.concatenate([phi.reshape((-1,) + batch) for phi in states])

        for ns in self.LEVELS:
            states, etas = draw(ns), draw(ns)
            F, data, eta = H.direct_sum(ns), stack(states), stack(etas)
            value, tangent = F.linearize(data)
            kernels = [F.derivative(data, eta), value, tangent(eta)]
            if F.second_derivative_fn is not None:
                kernels.append(F.second_derivative_fn(data, eta, data))
            cuts = np.cumsum([phi.size // math.prod(batch) for phi in states])[:-1]
            for phi, d, *blocks in zip(states, etas, *(np.split(k, cuts) for k in kernels)):
                level = H.op(phi.ndim - len(batch))
                level_value, level_tangent = level.linearize(phi)
                want = [level.derivative(phi, d), level_value, level_tangent(d)]
                if F.second_derivative_fn is not None:
                    want.append(level.second_derivative_fn(phi, d, phi))
                for block, w in zip(blocks, want, strict=True):
                    assert np.array_equal(block.reshape(phi.shape), w)

    def test_sliced_state_and_metadata(self, space3, rng):
        # a march slices finished step sizes off the batch axis
        H = Hierarchy.from_generators(_direct_sum_gens(space3)["log-modulus+cross-ratio"], 3)
        F = H.direct_sum((1, 2, 3))
        assert (F.n, F.space.size) == (1, 3 + 9 + 27)
        [data] = random_batch((1,), ConfigSpace(39), [rng] * 6)
        assert np.array_equal(F.apply(data[:, :4]), F.apply(data)[:, :4])
        with pytest.raises(BadRange):
            H.direct_sum((1, 4))
        with pytest.raises(ValueError, match="increasing"):
            H.direct_sum((2, 1, 3))


class TestDecomposition:
    def test_round_trip(self, space3, rng):
        gens = [gen_shifted(space3, 0.9), gen_cross(space3, 0.7)]
        H = Hierarchy.from_generators(gens, 3)
        rec = canonical_decompose(H, seed=17)
        assert [g.ell for g in rec] == [1, 2, 3]
        for orig, got in zip(gens, rec):
            for _ in range(4):
                phi = nz(orig.ell, space3, rng)
                diff = np.abs(
                    got.op.apply(phi) - orig.op.apply(phi)
                ).max()
                assert diff <= 1e-8
        # nothing was injected at threshold 3
        phi3 = nz(3, space3, rng)
        assert np.abs(rec[2].op.apply(phi3)).max() <= 1e-8

    def test_pure_one_particle_hierarchy(self, space3, rng):
        g = gen_shifted(space3, 1.1)
        H = Hierarchy.from_generators([g], 3)
        rec = canonical_decompose(H, seed=3)
        phi = nz(1, space3, rng)
        assert np.abs(rec[0].op.apply(phi) - g.op.apply(phi)).max() <= 1e-12
        for level in (2, 3):
            probe = nz(level, space3, rng)
            assert np.abs(rec[level - 1].op.apply(probe)).max() <= 1e-9

    def test_idempotence(self, space3, rng):
        gens = [gen_shifted(space3, 0.9), gen_cross(space3, 0.7)]
        H = Hierarchy.from_generators(gens, 3)
        first = canonical_decompose(H, seed=17)
        rebuilt = Hierarchy.from_generators(first, 3)
        second = canonical_decompose(rebuilt, seed=23)
        for g1, g2 in zip(first, second):
            phi = nz(g1.ell, space3, rng)
            assert (
                np.abs(g2.op.apply(phi) - g1.op.apply(phi)).max()
                <= 1e-9
            )

    def test_estimates_missing_indices(self, space3, rng):
        from dataclasses import replace

        g = gen_shifted(space3, 0.8)
        H = Hierarchy.from_generators([g], 2)
        stripped = Hierarchy((replace(H.op(1), indices=None), H.op(2)))
        rec = canonical_decompose(stripped, seed=5)
        assert rec[0].indices.close_to(IndexPair(0.8, 0), 1e-6)

    def test_rejects_non_derivation(self, space3):
        bad_ops = (
            log_modulus_op(space3, 1.0),
            nonseparating_op(space3, 2, 1.0),
            zero_op(space3, 3),
        )
        bad = Hierarchy(bad_ops)
        with pytest.raises(NotDerivation):
            canonical_decompose(bad, seed=1)


class TestHierarchyConstruction:
    def test_levels_below_threshold_are_zero(self, space3, rng):
        H = Hierarchy.from_generators([gen_cross(space3)], 3)
        phi = random_state(1, space3, rng)
        assert np.abs(H.op(1).apply(phi)).max() == 0.0

    def test_level_indices_shared(self, space3):
        H = Hierarchy.from_generators([gen_shifted(space3, 0.7), gen_cross(space3)], 3)
        for n in (1, 2, 3):
            assert H.op(n).indices.close_to(IndexPair(0.7, 0), 1e-13)

    def test_level_bounds(self, space3):
        H = Hierarchy.from_generators([gen_shifted(space3)], 2)
        with pytest.raises(BadRange):
            H.op(3)
        with pytest.raises(BadRange):
            Hierarchy.from_generators([gen_shifted(space3)], 5)
        with pytest.raises(TypeError):  # n_max has no default; MAX_PARTICLES is the one cap
            Hierarchy.from_generators([gen_shifted(space3)])

    def test_generator_validation(self, space3):
        g = Generator(log_modulus_op(space3, 1.0))
        assert [f.name for f in dataclasses.fields(Generator)] == ["op"]
        assert (g.ell, g.indices) == (1, IndexPair(1.0, 0))
        with pytest.raises(ValueError, match="declare"):
            Generator(replace(log_modulus_op(space3, 1.0), indices=None))
        with pytest.raises(ValueError, match="strictly homogeneous"):
            Generator(replace(cross_ratio_op(space3), indices=IndexPair(1.0, 0)))
        assert Generator(cross_ratio_op(space3)).indices == ZERO_PAIR
        nonsep = build_generator(space3, {"kind": "non-separating"})
        assert (nonsep.ell, nonsep.indices) == (2, None)

    def test_hierarchy_validation(self, space3, space4):
        levels = [lambda_op(IndexPair(1.0, 0), n, space3) for n in range(1, MAX_PARTICLES + 2)]
        assert [f.name for f in dataclasses.fields(Hierarchy)] == ["ops", "gens"]
        H = Hierarchy(tuple(levels[:3]))
        assert (H.space, H.n_max, H.gens) == (space3, 3, None)
        gens = [Generator(log_modulus_op(space3)), Generator(cross_ratio_op(space3))]
        assert Hierarchy.from_generators(gens, 2).gens == tuple(gens)
        for ops in [(), tuple(levels)]:
            with pytest.raises(BadRange):
                Hierarchy(ops)
        with pytest.raises(SpaceMismatch):
            Hierarchy((levels[0], levels[2]))
        with pytest.raises(SpaceMismatch):
            Hierarchy((levels[0], lambda_op(IndexPair(1.0, 0), 2, space4)))
        with pytest.raises(ValueError):
            Hierarchy.from_generators([], 3)
