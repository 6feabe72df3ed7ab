import json
from dataclasses import replace

import numpy as np
import pytest

from sepsym import checks
from sepsym.checks import CHECKS, run_check
from sepsym.errors import BadRange
from sepsym.hierarchy import Generator, lift_J
from sepsym.mixedpow import IndexPair
from sepsym.obstruction import (
    bracket_generator,
    corollary1_obstruction,
    corollary1_report,
    corollary2_obstruction,
    natural_generator_op,
    obstruction_lhs,
    obstruction_rhs,
    theorem10_report,
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
from sepsym.space import permute_data, random_state, sup_norms
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


def corollary1_oracle(F, K, t, data):
    """The two-particle defect written out slot by slot."""
    Fnat = natural_generator_op(F)
    Knat = natural_generator_op(K)
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
    Knat = natural_generator_op(K)
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
            lhs = obstruction_lhs(F, G, n, 0.0, wf.data)
            rhs = obstruction_rhs(F, G, n, 0.0, wf.data)
            scale = 1.0 + max(np.abs(lhs).max(), np.abs(rhs).max())
            worst_gap = max(worst_gap, float(np.abs(lhs - rhs).max()) / scale)
            nonzero = max(nonzero, float(np.abs(rhs).max()))
        assert worst_gap <= IDENTITY_TOL
        assert nonzero > 1e-3  # these pairs genuinely obstruct

    def test_report_identity_residual(self, space3):
        rep = theorem10_report(gen_rms(space3), gen_cross(space3), 3, seed=7, batch_size=8)
        assert rep.identity_residual <= IDENTITY_TOL
        assert not rep.vanishes

    def test_index_half_of_bracket_generator(self, space3):
        # a one-particle bracket generator with a non-zero index bracket:
        # its canonical lift subtracts (n-1) Lambda of exactly that pair,
        # so a wrong declared index breaks the identity at every n > 1
        F = Generator(lambda_op(IndexPair(1j, 1j), 1, space3))
        G = gen_shifted(space3, 0.8)
        assert bracket_generator(F, G).indices == IndexPair(0.8j, -0.8j)
        for n in (2, 3):
            rep = theorem10_report(F, G, n, seed=7, batch_size=8)
            assert rep.identity_residual <= IDENTITY_TOL

    def test_same_generator_cancels(self, space3, rng):
        F = gen_rms(space3)
        wf = nz(2, space3, rng)
        assert np.abs(obstruction_rhs(F, F, 2, 0.0, wf.data)).max() <= 1e-13

    def test_lambda_pair_closes(self, space3, rng):
        p = Generator(lambda_op(IndexPair(0.7, 0.2), 1, space3))
        q = Generator(lambda_op(IndexPair(0.1, 0.9), 1, space3))
        wf = nz(2, space3, rng)
        assert np.abs(obstruction_rhs(p, q, 2, 0.0, wf.data)).max() <= 1e-13
        assert np.abs(obstruction_lhs(p, q, 2, 0.0, wf.data)).max() <= 1e-12

    def test_real_linear_degeneration(self, space3, rng):
        A = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        B = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        for n in (2, 3):
            wf = nz(n, space3, rng)
            assert np.abs(obstruction_rhs(A, B, n, 0.0, wf.data)).max() <= LINEAR_TOL
            assert np.abs(obstruction_lhs(A, B, n, 0.0, wf.data)).max() <= LINEAR_TOL

    def test_permutation_equivariance(self, space3, rng):
        F, G = gen_rms(space3), gen_cross(space3)
        wf = nz(3, space3, rng)
        perm = (2, 0, 1)
        direct = obstruction_rhs(F, G, 3, 0.0, permute_data(wf.data, perm))
        swapped = permute_data(obstruction_rhs(F, G, 3, 0.0, wf.data), perm)
        assert np.abs(direct - swapped).max() <= 1e-10

    def test_range_validation(self, space3, rng):
        F, G = gen_rms(space3), gen_cross(space3)
        wf = nz(2, space3, rng)
        with pytest.raises(BadRange):
            obstruction_rhs(F, G, 2, 0.0, wf.data)  # n must exceed m
        with pytest.raises(BadRange):
            obstruction_rhs(G, F, 3, 0.0, wf.data)  # l <= m ordering

    def test_bracket_generator_levels(self, space3):
        F, G = gen_rms(space3), gen_cross(space3)
        H = bracket_generator(F, G, verify=True, seed=3)
        assert H.ell == 2
        assert H.indices.close_to(IndexPair(0, 0), 1e-14)


class TestCorollary1:
    def test_lambda_symmetry_has_no_obstruction(self, space3, rng):
        F = gen_shifted(space3)
        K = Generator(lambda_op(IndexPair(0.3, 0.8), 1, space3))
        wf = nz(2, space3, rng)
        assert np.abs(corollary1_obstruction(F, K, 0.0, wf.data)).max() <= 1e-13

    def test_linear_pair_vanishes(self, space3, rng):
        F = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        K = Generator(site_matrix_op(space3, random_hermitian(space3, rng)))
        wf = nz(2, space3, rng)
        assert np.abs(corollary1_obstruction(F, K, 0.0, wf.data)).max() <= LINEAR_TOL

    def test_spin_counterexample(self, spin_space):
        F = Generator(spin_rms_log_op(spin_space, 1.0))
        K = Generator(spin_rotation_op(spin_space))
        r1, norms1 = corollary1_report(F, K, seed=1, batch_size=8)
        r2, _ = corollary1_report(F, K, seed=2, batch_size=8)
        assert r1.rhs_norm == max(norms1) and len(norms1) == 8
        assert r1.rhs_norm > 1e-3 and r2.rhs_norm > 1e-3
        assert abs(r2.rhs_norm / r1.rhs_norm - 1.0) < 0.25
        assert not r1.vanishes

    def test_requires_one_particle(self, space3, rng):
        with pytest.raises(BadRange):
            corollary1_obstruction(gen_cross(space3), gen_rms(space3), 0.0, nz(2, space3, rng).data)


class TestCorollary2:
    def test_zero_generator(self, space3, rng):
        G = Generator(zero_op(space3, 2))
        K = gen_rms(space3)
        wf = nz(3, space3, rng)
        assert np.abs(corollary2_obstruction(G, K, 0.0, wf.data)).max() == 0.0

    def test_spin_rotation_vs_cross_ratio(self, spin_space, rng):
        G = gen_cross(spin_space, coupling=1.0)
        K = Generator(spin_rotation_op(spin_space))
        rng5 = np.random.default_rng(5)
        states = [nz(3, spin_space, rng5) for _ in range(4)]
        assert corollary2_obstruction(G, K, 0.0, states[0].data).shape == (8,) * 3
        batch = np.stack([wf.data for wf in states], axis=-1)
        norms = sup_norms(corollary2_obstruction(G, K, 0.0, batch))
        assert max(norms) > 1e-3

    def test_level_validation(self, space3, rng):
        with pytest.raises(BadRange):
            corollary2_obstruction(gen_rms(space3), gen_rms(space3), 0.0, nz(2, space3, rng).data)
        with pytest.raises(BadRange):
            corollary2_obstruction(gen_cross(space3), gen_cross(space3), 0.0, nz(3, space3, rng).data)


class TestSpecialisations:
    """Each corollary is the one double sum at fixed (l, m, n); it agrees
    with the slot-by-slot loop it replaced."""

    def test_shifted_vs_relative_log_modulus(self, grid8, rng):
        F = gen_shifted(grid8)
        K = Generator(relative_log_modulus_op(grid8, 0.7))
        for _ in range(4):
            data = nz(2, grid8, rng).data
            assert_close(corollary1_obstruction(F, K, 0.0, data), corollary1_oracle(F, K, 0.0, data))

    def test_spin_rms_vs_spin_rotation(self, spin_space, rng):
        F = Generator(spin_rms_log_op(spin_space, 1.0))
        K = Generator(spin_rotation_op(spin_space))
        for _ in range(4):
            data = nz(2, spin_space, rng).data
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
            data = random_state(3, space, k, nowhere_zero=True, smooth=True).data
            assert_close(corollary2_obstruction(G, K, 0.0, data), corollary2_oracle(G, K, 0.0, data))


def theorem10_oracle(F, G, n, seed, batch_size):
    """The report fields as the per-state loop computed them."""
    rng = np.random.default_rng(seed)
    states = [nz(n, F.op.space, rng) for _ in range(batch_size)]
    Hgen = bracket_generator(F, G, verify=True, seed=seed)
    lhs = [obstruction_lhs(F, G, n, 0.0, wf.data, bracket_gen=Hgen) for wf in states]
    rhs = [obstruction_rhs(F, G, n, 0.0, wf.data) for wf in states]
    lhs_norms = [float(np.abs(a).max()) for a in lhs]
    rhs_norms = [float(np.abs(b).max()) for b in rhs]
    gaps = [float(np.abs(a - b).max()) for a, b in zip(lhs, rhs)]
    residuals = [g / (1.0 + max(ln, rn)) for g, ln, rn in zip(gaps, lhs_norms, rhs_norms)]
    return {
        "lhs_norm": max(lhs_norms),
        "rhs_norm": max(rhs_norms),
        "identity_residual": max(residuals),
        "state_norms": tuple(round(wf.norm_inf(), 12) for wf in states),
    }


def corollary1_oracle_norms(F, K, seed, batch_size):
    rng = np.random.default_rng(seed)
    states = [nz(2, F.op.space, rng) for _ in range(batch_size)]
    return [float(np.abs(corollary1_obstruction(F, K, 0.0, wf.data)).max()) for wf in states]


class TestBatchedReports:
    """The reports evaluate their seeded batch as one array; every field
    equals the per-state loop bit for bit."""

    GENS = {
        "rms": gen_rms,
        "shifted": gen_shifted,
        "cr0": lambda sp: gen_cross(sp, 0.6, (0, 0)),
        "cr1": lambda sp: gen_cross(sp, 0.5, (1, 2)),
    }

    @pytest.mark.parametrize("fname,gname,n", [
        ("rms", "shifted", 2), ("rms", "shifted", 3), ("rms", "shifted", 4),
        ("shifted", "rms", 2), ("rms", "cr0", 3), ("shifted", "cr1", 4),
        ("cr0", "cr1", 3), ("cr0", "cr1", 4),
    ])
    def test_theorem10_matches_per_state(self, space3, fname, gname, n):
        F, G = self.GENS[fname](space3), self.GENS[gname](space3)
        batch = 16 if n <= 3 else 6
        rep = theorem10_report(F, G, n, seed=40 + n, batch_size=batch)
        want = theorem10_oracle(F, G, n, 40 + n, batch)
        assert rep.lhs_norm == want["lhs_norm"]
        assert rep.rhs_norm == want["rhs_norm"]
        assert rep.identity_residual == want["identity_residual"]
        assert rep.state_norms == want["state_norms"]
        assert rep.batch_size == batch and rep.seed == 40 + n

    def test_theorem10_fd_fallback_matches_per_state(self, space3):
        F = gen_rms(space3)
        stripped = Generator(replace(F.op, derivative_fn=None))
        rep = theorem10_report(stripped, gen_shifted(space3), 2, seed=5, batch_size=4)
        want = theorem10_oracle(stripped, gen_shifted(space3), 2, 5, 4)
        assert rep.warnings
        assert rep.identity_residual == want["identity_residual"]
        assert rep.rhs_norm == want["rhs_norm"]

    @pytest.mark.parametrize("fname,kname", [("rms", "shifted"), ("shifted", "rms")])
    def test_corollary1_matches_per_state(self, space3, fname, kname):
        F, K = self.GENS[fname](space3), self.GENS[kname](space3)
        rep, norms = corollary1_report(F, K, seed=9, batch_size=16)
        assert norms == corollary1_oracle_norms(F, K, 9, 16)
        assert rep.rhs_norm == max(norms)

    def test_corollary1_spin_matches_per_state(self, spin_space):
        F = Generator(spin_rms_log_op(spin_space, 1.0))
        K = Generator(spin_rotation_op(spin_space))
        _, norms = corollary1_report(F, K, seed=3, batch_size=8)
        assert norms == corollary1_oracle_norms(F, K, 3, 8)

    def test_sup_norms_per_entry(self, rng):
        values = rng.standard_normal((3, 3, 5)) + 1j * rng.standard_normal((3, 3, 5))
        norms = sup_norms(values)
        assert norms == [float(np.abs(values[..., k]).max()) for k in range(5)]
        assert all(type(v) is float for v in norms)


def per_state(fn):
    """``fn`` evaluated one batch entry at a time and restacked: the
    per-state loop the checks made before they batched."""
    def loop(*args):
        *head, data = args
        return np.stack([fn(*head, data[..., k]) for k in range(data.shape[-1])], axis=-1)
    return loop


class TestBatchedChecks:
    """corollary1-equivalence, corollary2-pointsym and real-linear-degeneration
    evaluate their seeded states as one batch; every detail equals the
    per-state loop bit for bit, and real-linear's residual to round-off."""

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("scenario,check,fns", [
        ("corollary1", "corollary1-equivalence", ("corollary1_obstruction", "obstruction_lhs")),
        ("corollary2", "corollary2-pointsym", ("corollary2_obstruction",)),
    ])
    def test_check_matches_per_state(self, monkeypatch, scenario, check, fns, seed):
        sc = load_scenario(scenario, set(CHECKS))
        if seed is not None:
            sc = replace(sc, seed=seed)
        params = next(c.get("params", {}) for c in sc.checks if c["name"] == check)
        batched = run_check(check, sc, params)
        for name in fns:
            monkeypatch.setattr(checks, name, per_state(getattr(checks, name)))
        looped = run_check(check, sc, params)
        assert batched.status == "pass"
        assert batched.to_json_dict() == looped.to_json_dict()

    @pytest.mark.parametrize("seed", [None, 3, 11])
    def test_real_linear_degeneration_matches_per_state(self, monkeypatch, seed):
        # site_matrix_op's BLAS sums a wider batch in another order, so the
        # round-off-sized residual moves by round-off only
        sc = load_scenario("theorem10", set(CHECKS))
        if seed is not None:
            sc = replace(sc, seed=seed)
        batched = run_check("real-linear-degeneration", sc, {})
        for name in ("obstruction_rhs", "obstruction_lhs"):
            monkeypatch.setattr(checks, name, per_state(getattr(checks, name)))
        looped = run_check("real-linear-degeneration", sc, {})
        assert batched.status == looped.status == "pass"
        assert batched.details == looped.details
        assert abs(batched.max_residual - looped.max_residual) <= 1e-14


class TestReport:
    def test_json_field_names(self, space3):
        rep = theorem10_report(gen_rms(space3), gen_shifted(space3), 2, seed=3, batch_size=4)
        doc = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
        assert set(doc) == {
            "kind", "ell", "m", "n", "lhs_norm", "rhs_norm", "identity_residual",
            "vanishes", "seed", "batch_size", "state_norms", "warnings",
        }
        assert doc["kind"] == "theorem10"
        assert doc["batch_size"] == 4
        assert len(doc["state_norms"]) == 4

    def test_vanishes_flag(self, space3):
        lin = Generator(site_matrix_op(space3, np.eye(3)))
        lin2 = Generator(site_matrix_op(space3, np.diag([1.0, 2.0, 3.0])))
        rep = theorem10_report(lin, lin2, 2, seed=1, batch_size=4)
        assert rep.vanishes and rep.rhs_norm <= 1e-12

    def test_natural_generator_strips_lambda(self, space3, rng):
        F = gen_shifted(space3, 0.7)
        nat = natural_generator_op(F)
        assert nat.indices.close_to(IndexPair(0, 0), 1e-14)
        G = gen_cross(space3)
        assert natural_generator_op(G) is G.op

    def test_fd_warning_surfaces(self, space3):
        F = gen_rms(space3)
        stripped = Generator(replace(F.op, derivative_fn=None, second_derivative_fn=None))
        rep = theorem10_report(stripped, gen_shifted(space3), 2, seed=2, batch_size=2)
        assert rep.warnings
