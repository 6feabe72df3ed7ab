import cmath
import inspect
import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

from sepsym import checks_evolution, evolution
from sepsym.checks import CHECKS, run_check
from sepsym.cli import report_text
from sepsym.errors import StepMismatch, ZeroAmplitude
from sepsym.evolution import (
    MAX_STEPS,
    EvolutionConfig,
    _march,
    extract_indices,
    pair_flow,
    replaced_level_gaps,
    rk4_affine_step,
    rk4_trajectory,
    scaling_flow,
    scaling_test,
    separation_test,
)
from sepsym.hierarchy import Generator, Hierarchy
from sepsym.mixedpow import IndexPair, matrix_components, mixed_power, pair_action
from sepsym.opcalc import op_combine
from sepsym.operators import (
    cross_ratio_op,
    lambda_op,
    log_modulus_op,
    nonseparating_op,
    rms_log_modulus_op,
    site_matrix_op,
    zero_op,
)
from sepsym.scenario import evolution_config, load_scenario, random_hermitian
from sepsym.space import random_batch, random_state, tensor_data


def nz(n, space, rng):
    return random_state(n, space, rng, nowhere_zero=True)


class TestEvolve:
    def test_zero_operator_keeps_state(self, space4, rng):
        phi = random_state(2, space4, rng)
        cfg = EvolutionConfig(dt=0.01, t0=0.0, t1=0.2)
        [out] = _march(zero_op(space4, 2), phi, [cfg])
        assert np.array_equal(out, phi)

    def test_linear_matches_expm_oracle(self, space4, rng):
        A = random_hermitian(space4, rng)
        F = site_matrix_op(space4, A)
        phi = random_state(1, space4, rng)
        errs = []
        for dt in (0.02, 0.01):
            cfg = EvolutionConfig(dt=dt, t0=0.0, t1=1.0)
            [out] = _march(F, phi, [cfg])
            oracle = scipy.linalg.expm(-1j * A) @ phi
            errs.append(np.abs(out - oracle).max())
            # Hermitian drive conserves the 2-norm up to the same order
            assert abs(np.linalg.norm(out) - np.linalg.norm(phi)) <= 10 * errs[-1] + 1e-12
        assert errs[0] <= 1e-6
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_lambda_unit_modulus_phase_rotation(self, space4, rng):
        # i dw/dt = p w ln w with |w| = 1: ln w(t) = i theta e^{-ipt}, t in
        # units of hbar
        p = 1.2
        F = lambda_op(IndexPair(p, p), 1, space4)
        theta = rng.uniform(-2.0, 2.0, 4)
        phi = np.exp(1j * theta)
        cfg = EvolutionConfig(dt=0.001, t0=0.0, t1=1.0)
        [out] = _march(F, phi, [cfg])
        oracle = np.exp(1j * theta * cmath.exp(-1j * p))
        assert np.abs(out - oracle).max() <= 1e-10

    def test_lambda_general_pointwise_oracle(self, space4, rng):
        # d(ln w)/ds is the real-linear action of -i(p,q) on ln w, with s in
        # units of hbar: the absolute horizon 0.5 is s = 0.5 / hbar
        idx = IndexPair(0.8 + 0.3j, 0.5 - 0.2j)
        hbar = 1.7
        F = lambda_op(idx, 1, space4)
        phi = nz(1, space4, rng)
        cfg = evolution_config({"dt": 0.0005, "t1": 0.5}, hbar)
        assert cfg.t1 == 0.5 / hbar
        [out] = _march(F, phi, [cfg])
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])  # multiplication by -i
        M = rot @ matrix_components(idx.a, idx.b)
        flow = scipy.linalg.expm(cfg.t1 * M)
        ln0 = np.log(phi)
        comps = np.stack([ln0.real, ln0.imag])
        ln1 = flow @ comps
        oracle = np.exp(ln1[0] + 1j * ln1[1])
        assert np.abs(out - oracle).max() <= 1e-9

    def test_zero_crossing_aborts(self, space4):
        # imaginary first index drains the modulus towards the floor
        F = lambda_op(IndexPair(5j, 0), 1, space4)
        phi = np.full(4, 0.3 + 0j)
        cfg = EvolutionConfig(dt=0.01, t0=0.0, t1=2.0)
        with pytest.raises(ZeroAmplitude):
            _march(F, phi, [cfg])

    def test_step_mismatch(self):
        with pytest.raises(StepMismatch):
            EvolutionConfig(dt=0.3, t0=0.0, t1=1.0)
        with pytest.raises(StepMismatch):
            EvolutionConfig(dt=0.1, t0=1.0, t1=0.5)

    def test_step_count_cap(self):
        assert EvolutionConfig(dt=1e-5, t0=0.0, t1=1.0).n_steps() == MAX_STEPS
        with pytest.raises(StepMismatch, match="step-count cap"):
            EvolutionConfig(dt=1e-9, t0=0.0, t1=1.0)

    def test_step_count_beyond_floats_is_a_mismatch(self):
        # span / dt overflows to inf, which round() cannot take
        with pytest.raises(StepMismatch):
            EvolutionConfig(dt=1e-300, t0=0.0, t1=1e300)


def separating_hierarchy(space):
    gens = [
        Generator(log_modulus_op(space, 1.0)),
        Generator(cross_ratio_op(space, coupling=0.25)),
    ]
    return Hierarchy.from_generators(gens, 3)


def perturbed_hierarchy(space):
    ops = list(separating_hierarchy(space).ops)
    ops[1] = op_combine([ops[1], nonseparating_op(space, 2, 0.5)])
    return Hierarchy(tuple(ops))


class TestSeparation:
    def pairs(self, space, rng, count):
        # pair k's one- and two-particle states, drawn in turn
        return random_batch((1, 2), space, [rng] * count)

    def test_fourth_order_decay(self, space3, rng):
        H = separating_hierarchy(space3)
        phi1, phi2 = self.pairs(space3, rng, 3)
        cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=0.5) for dt in (0.02, 0.01)]
        res = [sum(run.gaps) for run in separation_test(H, phi1, phi2, cfgs)]
        assert res[0] <= 1e-6
        assert 10.0 <= res[0] / res[1] <= 22.0

    def test_linear_hierarchy_separates(self, space3, rng):
        A = random_hermitian(space3, rng)
        g = Generator(site_matrix_op(space3, A))
        H = Hierarchy.from_generators([g], 3)
        phi1, phi2 = self.pairs(space3, rng, 1)
        cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=0.5) for dt in (0.02, 0.01)]
        res = [run.gaps[0] for run in separation_test(H, phi1, phi2, cfgs)]
        assert res[0] <= 1e-5  # pure time-discretisation error
        assert 12.0 <= res[0] / res[1] <= 20.0

    def test_non_separating_plateau(self, space3, rng):
        bad = perturbed_hierarchy(space3)
        phi1, phi2 = self.pairs(space3, rng, 1)
        cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=0.5) for dt in (0.02, 0.01)]
        r1, r2 = [run.gaps[0] for run in separation_test(bad, phi1, phi2, cfgs)]
        assert r1 > 1e-2 and r2 > 1e-2
        assert abs(r1 - r2) / r1 < 0.01  # dt-independent limit

    @pytest.mark.parametrize("perturbed", [False, True])
    def test_batch_matches_per_pair_reference(self, space3, rng, perturbed):
        H = perturbed_hierarchy(space3) if perturbed else separating_hierarchy(space3)
        phi1, phi2 = self.pairs(space3, rng, 4)
        cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=0.5) for dt in (0.02, 0.01, 0.005)]
        for cfg, run in zip(cfgs, separation_test(H, phi1, phi2, cfgs)):
            assert len(run.gaps) == 4
            for k in range(4):
                [psi1] = _march(H.op(1), phi1[..., k], [cfg])
                [psi2] = _march(H.op(2), phi2[..., k], [cfg])
                [psi12] = _march(H.op(3), tensor_data(phi1[..., k], phi2[..., k], 1), [cfg])
                assert np.array_equal(run.evolved[0][..., k], psi1)
                assert np.array_equal(run.evolved[1][..., k], psi2)
                assert run.gaps[k] == float(np.abs(np.multiply.outer(psi1, psi2) - psi12).max())

    @pytest.mark.parametrize("sizes", [(1, 1), (2, 1), (1, 2)])
    @pytest.mark.parametrize("perturbed", [False, True])
    def test_stacked_levels_equal_level_marches(self, space3, rng, sizes, perturbed):
        # one march of the stacked levels, in any order of the factor sizes
        H = perturbed_hierarchy(space3) if perturbed else separating_hierarchy(space3)
        phi1, phi2 = random_batch(sizes, space3, [rng] * 4)
        cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=0.5) for dt in (0.02, 0.01)]
        n1, n2 = sizes
        levels = (_march(H.op(n1), phi1, cfgs), _march(H.op(n2), phi2, cfgs),
                  _march(H.op(n1 + n2), tensor_data(phi1, phi2, n1), cfgs))
        for run, psi1, psi2, psi12 in zip(separation_test(H, phi1, phi2, cfgs), *levels):
            assert np.array_equal(run.evolved[0], psi1) and np.array_equal(run.evolved[1], psi2)
            assert np.array_equal(run.psi12, psi12)

    def test_replaced_level_reuses_the_unperturbed_marches(self, space3, rng):
        H, bad = separating_hierarchy(space3), perturbed_hierarchy(space3)
        phi1, phi2 = self.pairs(space3, rng, 4)
        cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=0.5) for dt in (0.02, 0.01)]
        runs = separation_test(H, phi1, phi2, cfgs)
        for k in (1, 2):
            assert replaced_level_gaps(runs, bad.op(2), phi2[..., :k], cfgs) == [
                run.gaps for run in separation_test(bad, phi1[..., :k], phi2[..., :k], cfgs)]

    @pytest.mark.parametrize("seed", [None, 3])
    def test_check_plateau_equals_perturbed_hierarchy_march(self, monkeypatch, seed):
        # the check's plateau against full one-step-size marches of the
        # perturbed hierarchy
        sc = load_scenario("separation-evolution", set(CHECKS))
        if seed is not None:
            sc = replace(sc, seed=seed)
        params = next(c.get("params", {}) for c in sc.checks
                      if c["name"] == "separation-evolution")
        seen = []

        def recording(H, phi1, phi2, cfgs):
            seen.append((H, phi1, phi2, cfgs))
            return separation_test(H, phi1, phi2, cfgs)

        monkeypatch.setattr(checks_evolution, "separation_test", recording)
        result = run_check("separation-evolution", sc, params)
        [(H, phi1, phi2, cfgs)] = seen
        ops = list(H.ops)
        ops[1] = op_combine([ops[1], nonseparating_op(H.space, 2, 0.5)])
        bad = Hierarchy(tuple(ops))
        assert result.details["criteria"]["plateau"]["value"] == [
            separation_test(bad, phi1[..., :1], phi2[..., :1], [cfg])[0].gaps[0]
            for cfg in cfgs[:2]
        ]

    @pytest.mark.parametrize("seed", range(10))
    def test_check_passes_off_the_bundled_seed(self, seed):
        # the check's factors keep |arg phi| <= pi/4, so no cross ratio
        # crosses the principal log's cut along the march; uncapped factors
        # fail at seeds 4, 5 and 8
        sc = replace(load_scenario("separation-evolution", set(CHECKS)), seed=seed)
        result = run_check("separation-evolution", sc, {})
        assert result.status == "pass", result.details["criteria"]

    @pytest.mark.parametrize("cap", [None, math.pi / 4])
    def test_branch_margin_matches_a_fine_march(self, space3, cap):
        # pi less the largest |arg R| along a dt = 1e-3 march of level 2,
        # one margin per set of four pairs, wherever the closed form is
        # positive (where it is not, the principal arg wraps)
        coupling = 0.25
        level2 = Hierarchy.from_generators(
            [Generator(log_modulus_op(space3, 1.0)),
             Generator(cross_ratio_op(space3, coupling=coupling))], 3).op(2)
        kw = {} if cap is None else {"phase_cap": cap}
        [phi2] = random_batch((2,), space3, [(seed, k) for seed in range(10) for k in range(4)],
                              **kw)
        cfg = EvolutionConfig(dt=0.02, t0=0.0, t1=0.5)
        sets = [slice(4 * j, 4 * j + 4) for j in range(10)]
        closed = [checks_evolution.branch_margin(phi2[..., s], coupling, cfg) for s in sets]

        def top_arg(y):
            ratio = y * y[:1, :1] / (y[:, :1] * y[:1, :])
            return np.abs(np.angle(ratio)).max(axis=(0, 1))

        dt, y, top = 1e-3, phi2, top_arg(phi2)
        for _ in range(500):
            y = rk4_trajectory(lambda x: -1j * level2.apply(x), y, dt, 1)
            top = np.maximum(top, top_arg(y))
        marched = [math.pi - float(top[s].max()) for s in sets]
        positive = [(c, m) for c, m in zip(closed, marched) if c > 0]
        assert len(positive) >= 3
        for c, m in positive:
            assert abs(c - m) <= 1e-3

    def test_uncapped_factors_fail_on_the_branch_margin(self, monkeypatch):
        # at the bundled seed uncapped factors still pass the ratio band,
        # but a cross ratio crosses the cut, and the margin floor says so
        def uncapped(sizes, space, seeds, **kwargs):
            return random_batch(sizes, space, seeds)

        monkeypatch.setattr(checks_evolution, "random_batch", uncapped)
        sc = load_scenario("separation-evolution", set(CHECKS))
        criteria = run_check("separation-evolution", sc, {}).details["criteria"]
        assert criteria["branch_margin"]["value"] < 0
        assert criteria["branch_margin"]["defect"] > 1
        assert criteria["ratios"]["defect"] <= 1


class TestLadder:
    """A dt ladder marched in one lock-step loop ends, entry by entry, bit
    for bit where a march at each step size alone ends."""

    DTS = (0.02, 0.01, 0.005)

    def cfgs(self, dts=DTS, t1=0.5):
        return [EvolutionConfig(dt=dt, t0=0.0, t1=t1) for dt in dts]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_march_equals_one_step_size_marches(self, space3, seed):
        F = separating_hierarchy(space3).op(3)
        [data] = random_batch((3,), space3, [(seed, k) for k in range(2)])
        # the ladder's order is the caller's, not the march's finest-first one
        cfgs = self.cfgs((0.01, 0.02, 0.005))
        for cfg, out in zip(cfgs, _march(F, data, cfgs)):
            assert np.array_equal(out, _march(F, data, [cfg])[0])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_separation_and_plateau_equal_one_step_size_runs(self, space3, seed):
        H = separating_hierarchy(space3)
        bad2 = perturbed_hierarchy(space3).op(2)
        phi1, phi2 = random_batch((1, 2), space3, [(seed, k) for k in range(4)])
        cfgs = self.cfgs()
        runs = separation_test(H, phi1, phi2, cfgs)
        plateau = replaced_level_gaps(runs[:2], bad2, phi2[..., :1], cfgs[:2])
        for i, cfg in enumerate(cfgs):
            [alone] = separation_test(H, phi1, phi2, [cfg])
            assert runs[i].gaps == alone.gaps
            assert np.array_equal(runs[i].psi12, alone.psi12)
            for ladder, single in zip(runs[i].evolved, alone.evolved):
                assert np.array_equal(ladder, single)
            if i < 2:
                assert plateau[i] == replaced_level_gaps([alone], bad2, phi2[..., :1], [cfg])[0]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("make", [
        lambda sp: lambda_op(IndexPair(1.3, 0.7), 1, sp),
        lambda sp: rms_log_modulus_op(sp, 0.8),
    ])
    def test_scaling_equals_one_step_size_runs(self, space4, seed, make):
        F = make(space4)
        [data] = random_batch((1,), space4, [(seed, k) for k in range(2)])
        cfgs = self.cfgs(t1=1.0)
        for cfg, (gaps, flow) in zip(cfgs, scaling_test(F, data, 1.4 + 0.3j, cfgs)):
            [(alone_gaps, alone_flow)] = scaling_test(F, data, 1.4 + 0.3j, [cfg])
            assert gaps == alone_gaps
            for t in node_times(cfg):
                assert flow(t) == alone_flow(t)

    def test_each_level_takes_the_finest_step_count(self, space3, rng):
        # (0.02, 0.01, 0.005) over 0.5 is 25 + 50 + 100 steps one at a time,
        # but 100 steps, 4 apply calls each, in lock step
        calls = {}

        def counted(op):
            def ev(data):
                calls[op.n] = calls.get(op.n, 0) + 1
                return op.eval_fn(data)
            return replace(op, eval_fn=ev)

        H = separating_hierarchy(space3)
        phi1, phi2 = random_batch((1, 2), space3, [rng] * 4)
        separation_test(Hierarchy(tuple(counted(op) for op in H.ops)), phi1, phi2, self.cfgs())
        assert calls == {1: 400, 2: 400, 3: 400}

    def test_each_generator_kernel_runs_once_per_stage(self, space3, rng):
        # all three levels march as one stacked state: 100 steps of 4 stages,
        # one kernel call per generator each, however many levels and tuples
        calls = {}

        def counted(gen):
            def ev(data):
                calls[gen.op.name] = calls.get(gen.op.name, 0) + 1
                return gen.op.eval_fn(data)
            return Generator(replace(gen.op, eval_fn=ev))

        H = separating_hierarchy(space3)
        phi1, phi2 = random_batch((1, 2), space3, [rng] * 4)
        counted_H = Hierarchy.from_generators([counted(g) for g in H.gens], 3)
        separation_test(counted_H, phi1, phi2, self.cfgs())
        assert calls == {"log-modulus": 400, "cross-ratio(0, 0)": 400}

    @pytest.mark.parametrize("other", [
        EvolutionConfig(dt=0.01, t0=0.0, t1=1.0),
        EvolutionConfig(dt=0.01, t0=0.1, t1=0.5),
    ])
    def test_mismatched_horizon_raises(self, space3, rng, other):
        [data] = random_batch((1,), space3, [rng])
        with pytest.raises(ValueError, match="share t0 and t1"):
            _march(log_modulus_op(space3), data, [EvolutionConfig(dt=0.02, t0=0.0, t1=0.5), other])

    def test_ladder_needs_a_batch_axis(self, space3, rng):
        [data] = random_batch((1,), space3, [rng])
        with pytest.raises(ValueError, match="batch axis"):
            _march(log_modulus_op(space3), data[..., 0], self.cfgs(self.DTS[:2]))


def random_affine_law(seed):
    """A random real-linear law on (c, d), a random offset, and the
    right-hand side of the whole law on a 2-entry complex array."""
    rng = np.random.default_rng(seed)
    A, b = rng.standard_normal((4, 4)), rng.standard_normal(4)

    def linear(c, d):
        y = A @ [c.real, c.imag, d.real, d.imag]
        return complex(y[0], y[1]), complex(y[2], y[3])

    offset = (complex(b[0], b[1]), complex(b[2], b[3]))

    def rhs(y):
        lc, ld = linear(complex(y[0]), complex(y[1]))
        return np.array([lc + offset[0], ld + offset[1]])

    return linear, offset, rhs, rng.standard_normal(2) + 1j * rng.standard_normal(2)


def map_march(step, y0, n_steps):
    y = tuple(y0)
    for _ in range(n_steps):
        y = step(*y)
    return np.array(y)


class TestAffineStep:
    """One precomputed step map against the staged RK4 march of the same
    affine law on a 2-entry array."""

    @pytest.mark.parametrize("seed", range(5))
    def test_one_step_to_a_few_ulps(self, seed):
        linear, offset, rhs, y0 = random_affine_law(seed)
        for dt in (0.02, -0.005):
            got = map_march(rk4_affine_step(linear, offset, dt), y0, 1)
            want = rk4_trajectory(rhs, y0, dt, 1)
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * np.abs(want).max()

    @pytest.mark.parametrize("seed", range(5))
    def test_thousand_steps_to_round_off(self, seed):
        linear, offset, rhs, y0 = random_affine_law(seed)
        got = map_march(rk4_affine_step(linear, offset, 1e-3), y0, 1000)
        want = rk4_trajectory(rhs, y0, 1e-3, 1000)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("anchor, mutant", [
        ("eye / 6 + M / 24", "eye / 6"),  # the polynomial cut after M^3
        ("_real4(*offset)", "np.zeros(4)"),  # the offset dropped
        ("(dt * S @", "(dt / 2 * S @"),  # half a step of the offset
    ], ids=["truncated", "no-offset", "half-dt"])
    def test_mutant_maps_miss_the_staged_march(self, anchor, mutant):
        source = inspect.getsource(rk4_affine_step)
        assert source.count(anchor) == 1
        namespace = dict(vars(evolution))
        exec(source.replace(anchor, mutant), namespace)
        for seed in range(5):
            linear, offset, rhs, y0 = random_affine_law(seed)
            got = map_march(namespace["rk4_affine_step"](linear, offset, 0.02), y0, 50)
            want = rk4_trajectory(rhs, y0, 0.02, 50)
            assert np.abs(got - want).max() >= 1e-8


def node_times(cfg):
    """cfg.t0 and every RK4 node of cfg's horizon, as the flow's nodes."""
    return [cfg.t0 + k * cfg.dt for k in range(cfg.n_steps() + 1)]


class TestPairFlow:
    """``pair_flow`` of a random affine law against its step maps and the
    staged march."""

    @pytest.mark.parametrize("seed", range(3))
    def test_nodes_are_map_marches_both_ways(self, seed):
        linear, offset, rhs, y0 = random_affine_law(seed)
        cfg = EvolutionConfig(dt=0.01, t0=0.25, t1=0.5)
        flow = pair_flow(linear, offset, IndexPair(*y0), cfg)
        for k in (3, -2, 7, 0, -5, 1):
            signed_dt = math.copysign(cfg.dt, k)
            got = flow(cfg.t0 + abs(k) * signed_dt)
            want = map_march(rk4_affine_step(linear, offset, signed_dt), y0, abs(k))
            assert np.array_equal(np.array([got.a, got.b]), want), k
            staged = rk4_trajectory(rhs, y0, signed_dt, abs(k))
            assert np.abs(np.array([got.a, got.b]) - staged).max() <= 1e-12

    def test_maps_are_built_on_first_use(self, monkeypatch):
        # a forward flow never builds the backward step's map, and a
        # remainder's map is built once however often its time is asked
        built = []

        def counting(linear, offset, dt):
            built.append(dt)
            return rk4_affine_step(linear, offset, dt)

        monkeypatch.setattr(evolution, "rk4_affine_step", counting)
        cfg = EvolutionConfig(dt=0.01, t0=0.0, t1=1.0)
        flow = scaling_flow(IndexPair(1.1, 0.4), cfg)
        assert built == []
        extract_indices(flow, cfg)
        flow(cfg.t1)
        assert built == [cfg.dt]
        for _ in range(3):
            flow(0.5 + 0.004)
        assert built == [cfg.dt, pytest.approx(0.004)]
        flow(-0.02)
        assert built[2:] == [-cfg.dt]


class TestIndexOde:
    """The scaling-index equations, solved by ``scaling_flow``."""

    def test_zero_indices_stay_one(self):
        cfg = EvolutionConfig(dt=0.01, t0=0.0, t1=1.0)
        flow = scaling_flow(IndexPair(0.0, 0.0), cfg)
        assert all(flow(t) == IndexPair(1.0, 1.0) for t in node_times(cfg))

    def test_constant_real_closed_form(self):
        p = 1.3
        cfg = EvolutionConfig(dt=0.01, t0=0.0, t1=1.0)
        final = scaling_flow(IndexPair(p, p), cfg)(cfg.t1)
        assert abs(final.a - cmath.exp(-1.3j)) <= 1e-8
        assert abs(final.b - cmath.exp(-1.3j)) <= 1e-8

    def test_matrix_exponential_oracle(self):
        # the real 2x2 system d[Re a, Im a]/ds = rot . rep(p, q), with s in
        # units of hbar: the absolute horizon 1 is s = 1 / hbar
        p, q = 1.1, 0.4
        hbar = 1.3
        cfg = evolution_config({"dt": 0.002, "t1": 1.0}, hbar)
        final = scaling_flow(IndexPair(p, q), cfg)(cfg.t1)
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        Ma = rot @ matrix_components(p, q)
        va = scipy.linalg.expm(cfg.t1 * Ma) @ np.array([1.0, 0.0])
        assert abs(final.a - complex(va[0], va[1])) <= 1e-10
        Mb = rot @ matrix_components(q, p)
        vb = scipy.linalg.expm(cfg.t1 * Mb) @ np.array([1.0, 0.0])
        assert abs(final.b - complex(vb[0], vb[1])) <= 1e-10

    def test_scalar_laws_match_joint_array_march(self):
        # node k is k applications of one step map of the two laws, bit
        # for bit, and the joint complex128 march of [a, b] to round-off
        p, q = 1.1, 0.4
        cfg = EvolutionConfig(dt=0.01, t0=0.25, t1=1.25)
        pq, qp = IndexPair(p, q), IndexPair(q, p)

        def linear(a, b):
            return -1j * pair_action(pq, a), -1j * pair_action(qp, b)

        def rhs(y):
            return np.array(linear(complex(y[0]), complex(y[1])))

        step = rk4_affine_step(linear, (0j, 0j), cfg.dt)
        mapped, samples = [(1.0 + 0j, 1.0 + 0j)], [np.array([1.0 + 0j, 1.0 + 0j])]
        for _ in range(cfg.n_steps()):
            mapped.append(step(*mapped[-1]))
            samples.append(rk4_trajectory(rhs, samples[-1], cfg.dt, 1))
        flow = scaling_flow(IndexPair(p, q), cfg)
        nodes = [flow(t) for t in node_times(cfg)]
        assert [(y.a, y.b) for y in nodes] == mapped
        joint = np.array(samples)
        assert np.abs(np.array([y.a for y in nodes]) - joint[:, 0]).max() <= 1e-12
        assert np.abs(np.array([y.b for y in nodes]) - joint[:, 1]).max() <= 1e-12

    def test_extraction_second_order(self):
        p, q = 1.3, 0.6
        errs = []
        for dt in (0.02, 0.01):
            cfg = EvolutionConfig(dt=dt, t0=0.0, t1=1.0)
            est = extract_indices(scaling_flow(IndexPair(p, q), cfg), cfg)
            errs.append(max(abs(est.a - p), abs(est.b - q)))
        assert errs[1] <= 1.0 * 0.01**2
        assert 3.0 <= errs[0] / errs[1] <= 5.0


class TestScaling:
    @pytest.mark.parametrize("make", [
        lambda sp: lambda_op(IndexPair(1.3, 0.7), 1, sp),
        lambda sp: rms_log_modulus_op(sp, 0.8),
    ])
    def test_batch_matches_two_evolves(self, make, space4, rng):
        # k phi and phi marched as one batch give the residual of two
        # separate marches bit for bit; the rms mean over four sites adds
        # in the same order with or without the batch axis
        F = make(space4)
        phi = nz(1, space4, rng)
        k = 1.4 + 0.3j
        cfg = EvolutionConfig(dt=0.01, t0=0.0, t1=0.5)
        factor = mixed_power(k, scaling_flow(F.indices, cfg)(cfg.t1))
        [scaled] = _march(F, k * phi, [cfg])
        [base] = _march(F, phi, [cfg])
        two_marches = float(np.abs(scaled - factor * base).max())
        [(gaps, _)] = scaling_test(F, phi[..., None], k, [cfg])
        assert gaps == [two_marches]

    def test_strictly_homogeneous_exact(self, space4, rng):
        F = rms_log_modulus_op(space4, 0.8)
        [phi] = random_batch((1,), space4, [rng])
        cfg = EvolutionConfig(dt=0.01, t0=0.0, t1=0.5)
        [([gap], _)] = scaling_test(F, phi, 0.7 - 0.4j, [cfg])
        assert gap <= 1e-12

    def test_lambda_fourth_order(self, space4, rng):
        F = lambda_op(IndexPair(1.3, 1.3), 1, space4)
        [phi] = random_batch((1,), space4, [rng])
        cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=1.0) for dt in (0.02, 0.01)]
        res = [gaps[0] for gaps, _ in scaling_test(F, phi, 1.4 + 0.3j, cfgs)]
        assert 12.0 <= res[0] / res[1] <= 20.0

    @pytest.mark.parametrize("seed", range(10))
    def test_check_passes_off_the_bundled_seed(self, seed):
        # the check's state keeps |arg phi| <= pi/2, so neither phi nor
        # k phi wraps the principal log along its march; an uncapped phi
        # fails at seeds 0 and 1
        sc = replace(load_scenario("scaling-indices", set(CHECKS)), seed=seed)
        result = run_check("scaling-indices", sc, {})
        assert result.status == "pass", result.details["criteria"]

    def test_scale_factor_matches_closed_form(self, space4, rng):
        # for p = q real the factor is the plain power k^(e^{-ip t}-weighted pair)
        p = 1.3
        k = 1.4 + 0.3j
        cfg = EvolutionConfig(dt=0.005, t0=0.0, t1=1.0)
        factor = mixed_power(k, scaling_flow(IndexPair(p, p), cfg)(cfg.t1))
        closed = mixed_power(k, IndexPair(cmath.exp(-1.3j), cmath.exp(-1.3j)))
        assert abs(factor - closed) <= 1e-8

    def test_requires_declared_indices(self, space4, rng):
        F = cross_ratio_op(space4)
        from dataclasses import replace

        F = replace(F, indices=None)
        [data] = random_batch((2,), space4, [rng])
        with pytest.raises(ValueError):
            scaling_test(F, data, 2.0, [EvolutionConfig(dt=0.01, t0=0.0, t1=0.5)])


class TestHbarIsAUnitOfTime:
    """Every built-in step, horizon and sample time is in units of hbar, and
    the scenario's evolution block is absolute time: a run at hbar = h is,
    entry for entry, the run at hbar = 1 with the block divided by h."""

    HBARS = (0.05, 0.1, 0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0, 8.0, 20.0)
    # (bundled scenario, its checks run here); the first two scenarios'
    # checks judge built-in ladders, the last two march the block's grid
    RUNS = (("scaling-indices", ("scaling-indices",)),
            ("separation-evolution", ("separation-evolution",)),
            ("freelift-grid-ladder", ("lattice-shift-symmetry",)),
            ("scaling-indices", ("index-evolution", "symmetry-bracket-closure")))

    @pytest.mark.parametrize("hbar", HBARS)
    @pytest.mark.parametrize("name, checks", RUNS)
    def test_run_equals_the_unit_hbar_run_of_the_scaled_block(self, hbar, name, checks):
        sc = replace(load_scenario(name, set(CHECKS)), hbar=hbar)
        absolute = {f.name: sc.evolution.get(f.name, f.default) for f in fields(EvolutionConfig)}
        unit = replace(sc, hbar=1.0, evolution={k: v / hbar for k, v in absolute.items()})
        results = [run_check(check, sc, {}) for check in checks]
        assert ([report_text(r.to_json_dict()) for r in results]
                == [report_text(run_check(check, unit, {}).to_json_dict()) for check in checks])
        assert [r.status for r in results] == ["pass"] * len(checks)
