import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sepsym import checks_lifts, operators
from sepsym.checks import CHECKS, run_check
from sepsym.errors import BadRange
from sepsym.hierarchy import Generator, lift_J, natural_part
from sepsym.mixedpow import IndexPair
from sepsym.obstruction import (
    bracket_generator,
    corollary1_obstruction,
    corollary2_obstruction,
    obstruction_lhs,
    obstruction_rhs,
)
from sepsym.operators import (
    cross_ratio_op,
    lambda_op,
    relative_log_modulus_op,
    rms_log_modulus_op,
    shifted_log_modulus_op,
    site_matrix_op,
    spin_rms_log_op,
    spin_rotation_op,
    zero_op,
)
from sepsym.scenario import load_scenario, random_hermitian
from sepsym.space import ConfigSpace, random_state, sup_norms
from sepsym.symmetry import PointSymmetrySpec, point_symmetry_parts

IDENTITY_TOL = 1e-8
LINEAR_TOL = 1e-10


def nz(n, space, rng):
    return random_state(n, space, rng, nowhere_zero=True)


def gen_rms(space, c=0.9):
    return Generator(rms_log_modulus_op(space, c))


def gen_shifted(space, c=0.8):
    return Generator(shifted_log_modulus_op(space, c))


def gen_cross(space, coupling=0.6, refs=(0, 0)):
    return Generator(cross_ratio_op(space, refs, coupling))


def stacked(n, space, seed, size):
    """``size`` nowhere-zero states drawn in turn from one seeded generator,
    on a trailing batch axis."""
    rng = np.random.default_rng(seed)
    return np.stack([nz(n, space, rng) for _ in range(size)], axis=-1)


def identity_residual(F, G, n, data):
    """Worst relative gap between the two sides of the identity over a
    batch, and the largest right side."""
    lhs = obstruction_lhs(F, G, n, 0.0, data)
    rhs = obstruction_rhs(F, G, n, 0.0, data)
    gaps = zip(sup_norms(lhs - rhs), sup_norms(lhs), sup_norms(rhs))
    return max(gap / (1.0 + max(ln, rn)) for gap, ln, rn in gaps), max(sup_norms(rhs))


def corollary1_oracle(F, K, t, data):
    """The two-particle defect written out slot by slot."""
    Fnat = natural_part(F)
    Knat = natural_part(K)
    acc = np.zeros_like(data)
    for jF, jK in ((0, 1), (1, 0)):
        Fl = lift_J(Fnat, (jF,), 2)
        Kl = lift_J(Knat, (jK,), 2)
        acc += Fl.derivative(t, data, Kl.apply(t, data))
        acc -= Kl.derivative(t, data, Fl.apply(t, data))
    return acc


def corollary2_oracle(G, K, t, data):
    """The added-generator defect sum_j [G^{comp(j)}, K^nat(j)] written out."""
    n = G.ell + 1
    Knat = natural_part(K)
    acc = np.zeros_like(data)
    for j in range(n):
        comp = tuple(k for k in range(n) if k != j)
        Gl = lift_J(G.op, comp, n)
        Kl = lift_J(Knat, (j,), n)
        acc += Gl.derivative(t, data, Kl.apply(t, data))
        acc -= Kl.derivative(t, data, Gl.apply(t, data))
    return acc


def assert_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * max(1.0, np.abs(want).max())


class TestIdentity:
    @pytest.mark.parametrize(
        "case",
        [
            ("one-one", 2),
            ("one-one", 3),
            ("one-two", 3),
            ("two-two", 3),
            ("two-two", 4),
        ],
    )
    def test_lhs_equals_rhs(self, space3, rng, case):
        kind, n = case
        if kind == "one-one":
            F, G = gen_rms(space3), gen_shifted(space3)
        elif kind == "one-two":
            F, G = gen_rms(space3), gen_cross(space3)
        else:
            F, G = gen_cross(space3, 0.6, (0, 0)), gen_cross(space3, 0.5, (1, 2))
        worst_gap = 0.0
        nonzero = 0.0
        for _ in range(4):
            wf = nz(n, space3, rng)
            lhs = obstruction_lhs(F, G, n, 0.0, wf)
            rhs = obstruction_rhs(F, G, n, 0.0, wf)
            scale = 1.0 + max(np.abs(lhs).max(), np.abs(rhs).max())
            worst_gap = max(worst_gap, float(np.abs(lhs - rhs).max()) / scale)
            nonzero = max(nonzero, float(np.abs(rhs).max()))
        assert worst_gap <= IDENTITY_TOL
        assert nonzero > 1e-3  # these pairs genuinely obstruct

    def test_batch_identity_residual(self, space3):
        residual, rhs_norm = identity_residual(
            gen_rms(space3), gen_cross(space3), 3, stacked(3, space3, 7, 8)
        )
        assert residual <= IDENTITY_TOL
        assert rhs_norm > 1e-3

    def test_index_half_of_bracket_generator(self, space3):
        # a one-particle bracket generator with a non-zero index bracket:
        # its canonical lift subtracts (n-1) Lambda of exactly that pair,
        # so a wrong declared index breaks the identity at every n > 1
        F = Generator(lambda_op(IndexPair(1j, 1j), 1, space3))
        G = gen_shifted(space3, 0.8)
        assert bracket_generator(F, G).indices == IndexPair(0.8j, -0.8j)
        for n in (2, 3):
            residual, _ = identity_residual(F, G, n, stacked(n, space3, 7, 8))
            assert residual <= IDENTITY_TOL

    def test_same_generator_cancels(self, space3, rng):
        F = gen_rms(space3)
        wf = nz(2, space3, rng)
        assert np.abs(obstruction_rhs(F, F, 2, 0.0, wf)).max() <= 1e-13

    def test_lambda_pair_closes(self, space3, rng):
        p = Generator(lambda_op(IndexPair(0.7, 0.2), 1, space3))
        q = Generator(lambda_op(IndexPair(0.1, 0.9), 1, space3))
        wf = nz(2, space3, rng)
        assert np.abs(obstruction_rhs(p, q, 2, 0.0, wf)).max() <= 1e-13
        assert np.abs(obstruction_lhs(p, q, 2, 0.0, wf)).max() <= 1e-12

    def test_real_linear_degeneration(self, space3, rng):
        A = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        B = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        for n in (2, 3):
            wf = nz(n, space3, rng)
            assert np.abs(obstruction_rhs(A, B, n, 0.0, wf)).max() <= LINEAR_TOL
            assert np.abs(obstruction_lhs(A, B, n, 0.0, wf)).max() <= LINEAR_TOL

    def test_permutation_equivariance(self, space3, rng):
        F, G = gen_rms(space3), gen_cross(space3)
        wf = nz(3, space3, rng)
        perm = (2, 0, 1)
        direct = obstruction_rhs(F, G, 3, 0.0, np.transpose(wf, perm))
        swapped = np.transpose(obstruction_rhs(F, G, 3, 0.0, wf), perm)
        assert np.abs(direct - swapped).max() <= 1e-10

    def test_range_validation(self, space3, rng):
        F, G = gen_rms(space3), gen_cross(space3)
        wf = nz(2, space3, rng)
        with pytest.raises(BadRange):
            obstruction_rhs(F, G, 2, 0.0, wf)  # n must exceed m
        with pytest.raises(BadRange):
            obstruction_rhs(G, F, 3, 0.0, wf)  # l <= m ordering

    def test_bracket_generator_levels(self, space3):
        F, G = gen_rms(space3), gen_cross(space3)
        H = bracket_generator(F, G, verify=True, seed=3)
        assert H.ell == 2
        assert H.indices.close_to(IndexPair(0, 0), 1e-14)

    def test_natural_generator_strips_lambda(self, space3, rng):
        F = gen_shifted(space3, 0.7)
        nat = natural_part(F)
        assert nat.indices.close_to(IndexPair(0, 0), 1e-14)
        G = gen_cross(space3)
        assert natural_part(G) is G.op


class TestCorollary1:
    def test_lambda_symmetry_has_no_obstruction(self, space3, rng):
        F = gen_shifted(space3)
        K = Generator(lambda_op(IndexPair(0.3, 0.8), 1, space3))
        wf = nz(2, space3, rng)
        assert np.abs(corollary1_obstruction(F, K, 0.0, wf)).max() <= 1e-13

    def test_linear_pair_vanishes(self, space3, rng):
        F = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        K = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        wf = nz(2, space3, rng)
        assert np.abs(corollary1_obstruction(F, K, 0.0, wf)).max() <= LINEAR_TOL

    def test_spin_counterexample(self, spin_space):
        F = Generator(spin_rms_log_op(spin_space, 1.0))
        K = Generator(spin_rotation_op(spin_space))
        norms1 = sup_norms(corollary1_obstruction(F, K, 0.0, stacked(2, spin_space, 1, 8)))
        norms2 = sup_norms(corollary1_obstruction(F, K, 0.0, stacked(2, spin_space, 2, 8)))
        assert len(norms1) == 8
        assert min(norms1) > 1e-3 and min(norms2) > 1e-3
        assert abs(max(norms2) / max(norms1) - 1.0) < 0.25

    def test_requires_one_particle(self, space3, rng):
        with pytest.raises(BadRange):
            corollary1_obstruction(gen_cross(space3), gen_rms(space3), 0.0, nz(2, space3, rng))


class TestCorollary2:
    def test_zero_generator(self, space3, rng):
        G = Generator(zero_op(space3, 2))
        K = gen_rms(space3)
        wf = nz(3, space3, rng)
        assert np.abs(corollary2_obstruction(G, K, 0.0, wf)).max() == 0.0

    def test_spin_rotation_vs_cross_ratio(self, spin_space, rng):
        G = gen_cross(spin_space, coupling=1.0)
        K = Generator(spin_rotation_op(spin_space))
        rng5 = np.random.default_rng(5)
        states = [nz(3, spin_space, rng5) for _ in range(4)]
        assert corollary2_obstruction(G, K, 0.0, states[0]).shape == (8,) * 3
        batch = np.stack(states, axis=-1)
        norms = sup_norms(corollary2_obstruction(G, K, 0.0, batch))
        assert max(norms) > 1e-3

    def test_level_validation(self, space3, rng):
        with pytest.raises(BadRange):
            corollary2_obstruction(gen_rms(space3), gen_rms(space3), 0.0, nz(2, space3, rng))
        with pytest.raises(BadRange):
            corollary2_obstruction(gen_cross(space3), gen_cross(space3), 0.0, nz(3, space3, rng))


class TestSpecialisations:
    """Each corollary is the one double sum at fixed (l, m, n); it agrees
    with the slot-by-slot loop it replaced."""

    def test_shifted_vs_relative_log_modulus(self, grid8, rng):
        F = gen_shifted(grid8)
        K = Generator(relative_log_modulus_op(grid8, 0.7))
        for _ in range(4):
            data = nz(2, grid8, rng)
            assert_close(corollary1_obstruction(F, K, 0.0, data), corollary1_oracle(F, K, 0.0, data))

    def test_spin_rms_vs_spin_rotation(self, spin_space, rng):
        F = Generator(spin_rms_log_op(spin_space, 1.0))
        K = Generator(spin_rotation_op(spin_space))
        for _ in range(4):
            data = nz(2, spin_space, rng)
            got = corollary1_obstruction(F, K, 0.0, data)
            assert np.abs(got).max() > 1e-3
            assert_close(got, corollary1_oracle(F, K, 0.0, data))

    @pytest.mark.parametrize("label", ["phase", "mult", "drift"])
    def test_cross_ratio_vs_point_symmetry_parts(self, grid8, label):
        space = grid8
        spec = PointSymmetrySpec(
            eta=lambda pos: 0.7 * np.sin(pos) + 0.3,
            xi=lambda pos: 0.8 * np.sin(pos + 0.5) + 0.2,
        )
        G = gen_cross(space, coupling=0.8)
        K = Generator(point_symmetry_parts(spec, space)[label])
        for k in range(4):
            data = random_state(3, space, k, nowhere_zero=True, smooth=True)
            assert_close(corollary2_obstruction(G, K, 0.0, data), corollary2_oracle(G, K, 0.0, data))


def per_state(fn):
    """``fn`` evaluated one batch entry at a time and restacked: the
    per-state loop the checks made before they batched."""
    def loop(*args, **kwargs):
        *head, data = args
        return np.stack([fn(*head, data[..., k], **kwargs) for k in range(data.shape[-1])],
                        axis=-1)
    return loop


class TestBatchedObstructions:
    """The corollary obstruction of a stacked batch equals the per-state
    loop bit for bit."""

    @pytest.mark.parametrize("fname,kname", [("rms", "shifted"), ("shifted", "rms")])
    def test_corollary1_matches_per_state(self, space3, fname, kname):
        gens = {"rms": gen_rms, "shifted": gen_shifted}
        F, K = gens[fname](space3), gens[kname](space3)
        data = stacked(2, space3, 9, 16)
        batched = corollary1_obstruction(F, K, 0.0, data)
        assert np.array_equal(batched, per_state(corollary1_obstruction)(F, K, 0.0, data))

    def test_corollary1_spin_matches_per_state(self, spin_space):
        F = Generator(spin_rms_log_op(spin_space, 1.0))
        K = Generator(spin_rotation_op(spin_space))
        data = stacked(2, spin_space, 3, 8)
        batched = corollary1_obstruction(F, K, 0.0, data)
        assert np.array_equal(batched, per_state(corollary1_obstruction)(F, K, 0.0, data))

    def test_sup_norms_per_entry(self, rng):
        values = rng.standard_normal((3, 3, 5)) + 1j * rng.standard_normal((3, 3, 5))
        norms = sup_norms(values)
        assert norms == [float(np.abs(values[..., k]).max()) for k in range(5)]
        assert all(type(v) is float for v in norms)


class TestFamilies:
    """A family of same-level generators on one side shares the other
    side's lifted values; every entry equals the one-generator call bit
    for bit."""

    def point_parts(self, space):
        spec = PointSymmetrySpec(eta=lambda pos: 0.7 * np.sin(pos) + 0.3,
                                 xi=lambda pos: 0.8 * np.sin(pos + 0.5) + 0.2)
        return [Generator(op) for op in point_symmetry_parts(spec, space).values()]

    def assert_entries(self, family_call, single_call, family):
        got = family_call(family)
        assert isinstance(got, list) and len(got) == len(family)
        for entry, gen in zip(got, family):
            assert np.array_equal(entry, single_call(gen))

    def test_corollary1_shared_first_side(self, grid8):
        F = gen_rms(grid8)
        family = [gen_shifted(grid8), Generator(relative_log_modulus_op(grid8, 0.7)),
                  *self.point_parts(grid8)]
        data = stacked(2, grid8, 3, 4)
        self.assert_entries(lambda Ks: corollary1_obstruction(F, Ks, 0.0, data),
                            lambda K: corollary1_obstruction(F, K, 0.0, data), family)

    @pytest.mark.parametrize("refs", [(0, 0), (1, 3)])
    def test_corollary2_shared_second_side(self, grid8, refs):
        G = gen_cross(grid8, 0.8, refs)
        family = self.point_parts(grid8)
        data = np.stack([random_state(3, grid8, k, nowhere_zero=True, smooth=True)
                         for k in range(2)], axis=-1)
        self.assert_entries(lambda Ks: corollary2_obstruction(G, Ks, 0.0, data),
                            lambda K: corollary2_obstruction(G, K, 0.0, data), family)

    def test_rhs_one_one_three_either_side(self, space3):
        family = [gen_rms(space3), gen_shifted(space3),
                  Generator(lambda_op(IndexPair(0.5, 0.2), 1, space3))]
        other = Generator(relative_log_modulus_op(space3, 0.7))
        data = stacked(3, space3, 5, 3)
        self.assert_entries(lambda Fs: obstruction_rhs(Fs, other, 3, 0.0, data),
                            lambda F: obstruction_rhs(F, other, 3, 0.0, data), family)
        self.assert_entries(lambda Gs: obstruction_rhs(other, Gs, 3, 0.0, data),
                            lambda G: obstruction_rhs(other, G, 3, 0.0, data), family)

    def test_one_entry_family(self, space3, rng):
        F, G = gen_rms(space3), gen_cross(space3)
        data = nz(3, space3, rng)
        (entry,) = obstruction_rhs([F], G, 3, 0.0, data)
        assert np.array_equal(entry, obstruction_rhs(F, G, 3, 0.0, data))

    def test_mixed_levels_raise(self, space3, rng):
        one, two = gen_rms(space3), gen_cross(space3)
        data = nz(3, space3, rng)
        with pytest.raises(BadRange):
            obstruction_rhs([one, two], two, 3, 0.0, data)
        with pytest.raises(BadRange):
            obstruction_rhs(one, [one, two], 3, 0.0, data)
        with pytest.raises(BadRange):
            corollary1_obstruction(one, [one, two], 0.0, nz(2, space3, rng))
        with pytest.raises(BadRange):
            corollary2_obstruction(two, [one, two], 0.0, data)

    def test_family_on_one_side_only(self, space3, rng):
        one = gen_rms(space3)
        with pytest.raises(BadRange):
            obstruction_rhs([one, one], [one, one], 2, 0.0, nz(2, space3, rng))


class TestWorkCounts:
    """obstruction_rhs linearises each lift once per state: the cross
    ratio's log and every multiplier's floor check run once per lift, not
    once per term of the double sum."""

    @staticmethod
    def floor_checks(monkeypatch):
        shapes = []

        def counted(data):
            shapes.append(data.shape)
            return np.abs(data)

        monkeypatch.setattr(operators, "require_nowhere_zero", counted)
        return shapes

    def test_freelift_log_calls(self, monkeypatch):
        # 6 three-particle states with 3 lifted cross ratios each: 18 logs,
        # where a value and a derivative per term took 72
        calls = []
        plain = operators.principal_log

        def counted(z):
            calls.append(z.shape)
            return plain(z)

        monkeypatch.setattr(operators, "principal_log", counted)
        sc = load_scenario("freelift-grid-ladder", set(CHECKS))
        assert run_check("freelift-grid-ladder", sc, {}).status == "pass"
        assert len(calls) <= 24

    def test_one_floor_check_per_lifted_cross_ratio(self, monkeypatch):
        space = ConfigSpace(4, grid=True)
        family = [Generator(op) for op in point_symmetry_parts(
            PointSymmetrySpec(eta=np.sin, xi=np.cos), space).values()]
        data = np.stack([nz(3, space, np.random.default_rng(s)) for s in (1, 2)], axis=-1)
        shapes = self.floor_checks(monkeypatch)
        corollary2_obstruction(Generator(cross_ratio_op(space, (1, 2), 0.7)), family, 0.0, data)
        # three lifts K, each linearised once, on its view of data and that
        # view's slot swap
        assert shapes == [data.shape] * 6
        shapes.clear()
        corollary2_obstruction(Generator(cross_ratio_op(space)), family, 0.0, data)
        assert shapes == [data.shape] * 3

    def test_one_floor_check_per_lifted_multiplier(self, monkeypatch):
        space = ConfigSpace(4, grid=True)
        data = np.stack([nz(2, space, np.random.default_rng(s)) for s in (3, 4)], axis=-1)
        shapes = self.floor_checks(monkeypatch)
        family = [Generator(site_matrix_op(space, np.eye(4) * k)) for k in (1.0, 2.0, 3.0)]
        corollary1_obstruction(Generator(rms_log_modulus_op(space, 0.9)), family, 0.0, data)
        # the rms lift at each of the two slots, once for all three entries
        assert len(shapes) == 2


class TestFreeliftMemory:
    """The grid-32 three-particle pass of freelift-grid-ladder sets the
    peak memory of the obstruction workload.  Its traced peak at the
    bundled seed was 5.29 MiB before the parts shared one obstruction call
    per state and 5.22 MiB after.  Stacking each side's states on a
    trailing batch axis reads 9.3 MiB, and keeping one state's obstruction
    values alive through the next state's call 6.2 MiB."""

    BUDGET_MIB = 5.6

    def test_traced_peak_within_budget(self):
        sc = load_scenario("freelift-grid-ladder", set(CHECKS))
        run_check("freelift-grid-ladder", sc, {})  # first-call allocations aside
        tracemalloc.start()
        try:
            result = run_check("freelift-grid-ladder", sc, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == "pass"
        assert peak / 2**20 <= self.BUDGET_MIB


def stripped_rms(space, **fields):
    """rms-log-modulus without the closed derivative kernels named, and
    without the linearize kernel that shares their formula."""
    return Generator(replace(rms_log_modulus_op(space, 0.9), linearize_fn=None, **fields))


def run_batched_and_looped(monkeypatch, check, sc, params, fns):
    """The check's result as it runs, then with ``fns`` evaluated per state."""
    batched = run_check(check, sc, params)
    for name in fns:
        monkeypatch.setattr(checks_lifts, name, per_state(getattr(checks_lifts, name)))
    return batched, run_check(check, sc, params)


class TestBatchedChecks:
    """The obstruction checks evaluate their seeded states as one batch;
    every detail equals the per-state loop bit for bit, and
    real-linear's residual to round-off."""

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("scenario,check,fns", [
        ("corollary1", "corollary1-equivalence", ("corollary1_obstruction", "obstruction_lhs")),
        ("corollary2", "corollary2-pointsym", ("corollary2_obstruction",)),
        ("theorem10", "liftdeltal-identity", ("obstruction_lhs", "obstruction_rhs")),
        ("internal-dof-demo", "internal-dof-demo", ("corollary1_obstruction",)),
    ])
    def test_check_matches_per_state(self, monkeypatch, scenario, check, fns, seed):
        sc = load_scenario(scenario, set(CHECKS))
        if seed is not None:
            sc = replace(sc, seed=seed)
        params = next(c.get("params", {}) for c in sc.checks if c["name"] == check)
        batched, looped = run_batched_and_looped(monkeypatch, check, sc, params, fns)
        assert batched.status == "pass"
        assert batched.to_json_dict() == looped.to_json_dict()

    @pytest.mark.parametrize("fname,gname,n", [
        ("rms", "shifted", 2), ("rms", "shifted", 3), ("rms", "shifted", 4),
        ("shifted", "rms", 2), ("rms", "cr0", 3), ("shifted", "cr1", 4),
        ("cr0", "cr1", 3), ("cr0", "cr1", 4),
    ])
    def test_liftdeltal_pair_matches_per_state(self, monkeypatch, fname, gname, n):
        # pairs of the bundled generators beyond the bundled ones, up to
        # n = 4, where the batch shrinks to 6
        sc = replace(load_scenario("theorem10", set(CHECKS)), seed=40)
        batched, looped = run_batched_and_looped(
            monkeypatch, "liftdeltal-identity", sc, {"pairs": [[fname, gname, [n]]]},
            ("obstruction_lhs", "obstruction_rhs"),
        )
        entry = batched.details["pairs"][f"{fname}-vs-{gname}-n{n}"]
        assert batched.status == "pass"
        assert entry["seed"] == 40 + n and entry["batch_size"] == (16 if n <= 3 else 6)
        assert batched.to_json_dict() == looped.to_json_dict()

    def test_liftdeltal_fd_fallback_matches_per_state(self, monkeypatch):
        # without a closed derivative the finite-difference route batches too
        space = ConfigSpace(3)
        sc = replace(load_scenario("theorem10", set(CHECKS)), seed=3, generators={
            "stripped": stripped_rms(space, derivative_fn=None), "shifted": gen_shifted(space)})
        batched, looped = run_batched_and_looped(
            monkeypatch, "liftdeltal-identity", sc, {"pairs": [["stripped", "shifted", [2]]]},
            ("obstruction_lhs", "obstruction_rhs"),
        )
        assert batched.status == "pass"
        assert batched.details["pairs"]["stripped-vs-shifted-n2"]["warnings"]
        assert batched.to_json_dict() == looped.to_json_dict()

    @pytest.mark.parametrize("seed", [None, 3, 11])
    def test_real_linear_degeneration_matches_per_state(self, monkeypatch, seed):
        # site_matrix_op's BLAS sums a wider batch in another order, so the
        # round-off-sized residual moves by round-off only
        sc = load_scenario("theorem10", set(CHECKS))
        if seed is not None:
            sc = replace(sc, seed=seed)
        batched, looped = run_batched_and_looped(
            monkeypatch, "real-linear-degeneration", sc, {}, ("obstruction_rhs", "obstruction_lhs")
        )
        assert batched.status == looped.status == "pass"
        assert batched.details == looped.details
        assert abs(batched.max_residual - looped.max_residual) <= 1e-14


class TestReport:
    """The obstruction fields that liftdeltal-identity writes per pair and
    internal-dof-demo writes for its base batch."""

    def test_json_field_names(self):
        sc = load_scenario("internal-dof-demo", set(CHECKS))
        doc = json.loads(json.dumps(run_check("internal-dof-demo", sc, {}).details["report"]))
        assert set(doc) == {
            "kind", "ell", "m", "n", "rhs_norm",
            "vanishes", "seed", "batch_size", "state_norms", "warnings",
        }
        assert doc["kind"] == "corollary1"
        assert doc["seed"] == sc.seed
        assert doc["batch_size"] == 16
        assert len(doc["state_norms"]) == 16
        assert not doc["vanishes"] and doc["warnings"] == []

    def test_vanishes_flag(self):
        space = ConfigSpace(3)
        sc = replace(load_scenario("theorem10", set(CHECKS)), generators={
            "eye": Generator(site_matrix_op(space, np.eye(3))),
            "diag": Generator(site_matrix_op(space, np.diag([1.0, 2.0, 3.0])))})
        pairs = [["eye", "diag", [2]]]
        res = run_check("liftdeltal-identity", sc, {"pairs": pairs})
        entry = res.details["pairs"]["eye-vs-diag-n2"]
        assert entry["vanishes"] and entry["rhs_norm"] <= 1e-12
        assert (entry["ell"], entry["m"], entry["n"]) == (1, 1, 2)

    def test_fd_warning_surfaces(self):
        space = ConfigSpace(3)
        sc = replace(load_scenario("theorem10", set(CHECKS)), generators={
            "stripped": stripped_rms(space, derivative_fn=None), "shifted": gen_shifted(space)})
        pairs = [["stripped", "shifted", [2]]]
        res = run_check("liftdeltal-identity", sc, {"pairs": pairs})
        entry = res.details["pairs"]["stripped-vs-shifted-n2"]
        assert entry["warnings"] == [
            "operator 'rms-log-modulus' lacks a closed-form derivative; finite differences in use"
        ]
