import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import sepsym.symmetry
from sepsym import evolution
from sepsym.errors import BadRange, SpaceMismatch, StepMismatch
from sepsym.evolution import MAX_STEPS, EvolutionConfig, pair_flow, rk4_affine_step, rk4_trajectory
from sepsym.hierarchy import Generator, Hierarchy, canonical_lift
from sepsym.mixedpow import IndexPair, bracket_components, product_components
from sepsym.opcalc import op_combine
from sepsym.operators import (
    central_difference_op,
    cross_ratio_op,
    diag_mult_op,
    lambda_op,
    linear_op,
    log_modulus_op,
    shift_all_op,
    site_matrix_op,
    spin_rms_log_op,
    spin_rotation_op,
)
from sepsym.checks import CHECKS, run_check
from sepsym.scenario import load_scenario, random_hermitian
from sepsym.space import ConfigSpace, random_batch, random_state, sup_norms
from sepsym.symmetry import (
    AffineMap,
    FiniteSymmetry,
    InfinitesimalSymmetry,
    PointSymmetrySpec,
    index_flow,
    index_law_residual,
    inf_symmetry_bracket,
    inf_symmetry_residual,
    lambda_index_symmetry,
    named_profile,
    point_symmetry_parts,
    symmetry_residual,
)


def nz(n, space, rng, **kw):
    return random_state(n, space, rng, nowhere_zero=True, **kw)


def nzs(n, space, rng, k=1, **kw):
    """k nowhere-zero n-particle states stacked on a trailing batch axis."""
    return random_batch((n,), space, [rng] * k, **kw)[0]


def log_hierarchy(space, n_max=3):
    g = Generator(log_modulus_op(space, 1.0))
    return Hierarchy.from_generators([g], n_max)


class TestFiniteSymmetry:
    def test_identity_symmetry(self, grid8, rng):
        H = log_hierarchy(grid8)
        identity = site_matrix_op(grid8, np.eye(8))
        V = FiniteSymmetry(level=lambda t, n: identity)
        assert max(symmetry_residual(V, H, 0.4, nzs(1, grid8, rng))) <= 1e-12

    def test_lattice_shift_exact(self, grid8, rng):
        H = log_hierarchy(grid8)
        V = FiniteSymmetry(level=lambda t, n: shift_all_op(grid8, n, 3))
        for n in (1, 2, 3):
            assert max(symmetry_residual(V, H, 0.3, nzs(n, grid8, rng))) <= 1e-12

    def test_level_k_must_act_on_k_particles(self, grid8, rng):
        # the residual judges level n only if it acts on n particles of F's space
        V = FiniteSymmetry(level=lambda t, n: shift_all_op(grid8, 3, 3))
        with pytest.raises(SpaceMismatch):
            symmetry_residual(V, log_hierarchy(grid8), 0.3, nzs(1, grid8, rng))
        other = FiniteSymmetry(level=lambda t, n: shift_all_op(ConfigSpace(8), n, 3))
        with pytest.raises(SpaceMismatch):
            symmetry_residual(other, log_hierarchy(grid8), 0.3, nzs(1, grid8, rng))
        K = InfinitesimalSymmetry(level=lambda t, n: shift_all_op(grid8, 2, 3))
        with pytest.raises(SpaceMismatch):
            inf_symmetry_residual(K, log_hierarchy(grid8), 0.3, nzs(1, grid8, rng))

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_linear_conjugated_flow(self, space4, rng, hbar):
        # V(s) = U W U^dagger with U = e^{-iAs} solves the symmetry equation
        # d_s V = ... for F = A, with s in units of hbar: the absolute time
        # 0.37 is s = 0.37 / hbar
        A = random_hermitian(space4, rng)
        W = random_hermitian(space4, rng)
        g = Generator(site_matrix_op(space4, A))
        H = Hierarchy.from_generators([g], 1)

        def conjugated(t, n):
            U = scipy.linalg.expm(-1j * A * t)
            M = U @ W @ U.conj().T
            return linear_op(space4, n, lambda data: M @ data, "V")

        V = FiniteSymmetry(level=conjugated)
        res = max(symmetry_residual(V, H, 0.37 / hbar, nzs(1, space4, rng)))
        assert res <= 1e-6  # limited by the DT_SYM time differencing


class TestInfinitesimal:
    def test_linear_commutant(self, space4, rng):
        A = random_hermitian(space4, rng)
        g = Generator(site_matrix_op(space4, A))
        H = Hierarchy.from_generators([g], 1)
        square = site_matrix_op(space4, A @ A)
        K = InfinitesimalSymmetry(level=lambda t, n: square, tau=AffineMap(0.0, 0.0))
        assert max(inf_symmetry_residual(K, H, 0.3, nzs(1, space4, rng))) <= 1e-11

    def test_drive_is_own_symmetry(self, space4, rng):
        # K = i_bar F commutes with the drive ([i_bar F, i_bar F] = 0); the
        # plain F would not, since DF is only real-linear
        H = log_hierarchy(space4, 2)
        K = InfinitesimalSymmetry(level=lambda t, n: op_combine([H.op(n)], [-1j]),
                                  tau=AffineMap(0.0, 0.0))
        assert max(inf_symmetry_residual(K, H, 0.5, nzs(2, space4, rng))) <= 1e-11

    def test_constant_phase_exact(self, grid8, rng):
        H = log_hierarchy(grid8)
        phase = diag_mult_op(grid8, 1j * 0.7 * np.ones(8), name="i*c")
        K = InfinitesimalSymmetry(level=lambda t, n: canonical_lift(Generator(phase), n),
                                  tau=AffineMap(0.0, 0.0))
        assert max(inf_symmetry_residual(K, H, 0.1, nzs(2, grid8, rng))) <= 1e-12

    def test_momentum_residual_quadratic_in_h(self, rng):
        residuals = []
        for gsize in (8, 16, 32):
            sp = ConfigSpace(gsize, grid=True)
            Hg = log_hierarchy(sp, 2)
            spec = PointSymmetrySpec(xi=lambda pos: np.full(pos.shape, 0.9))
            parts = point_symmetry_parts(spec, sp)
            mom = op_combine([parts["drift"], parts["mult"]], name="advection")
            K = InfinitesimalSymmetry(level=lambda t, n: canonical_lift(Generator(mom), n),
                                      tau=AffineMap(0.0, 0.0))
            [data] = random_batch((2,), sp, [(5, 1)], smooth=True)
            residuals.append(max(inf_symmetry_residual(K, Hg, 0.2, data)))
        assert residuals[0] > 1e-4  # genuinely non-zero at finite h
        for r0, r1 in zip(residuals, residuals[1:]):
            assert 2.5 <= r0 / r1 <= 5.5

    def test_lambda_index_symmetry(self, space3, rng):
        p, q = 1.1, 0.6
        cfg = EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0)
        g = Generator(lambda_op(IndexPair(p, q), 1, space3))
        H = Hierarchy.from_generators([g], 2)
        K = lambda_index_symmetry(p, q, AffineMap(0.5, 0.2), IndexPair(0.9, 0.4), cfg, space3)
        for t in (0.2, 0.8):
            assert max(inf_symmetry_residual(K, H, t, nzs(2, space3, rng))) <= 1e-6

    def test_index_law_residual_second_order(self):
        tau = AffineMap(0.5, 0.2)
        r = [
            index_law_residual(1.1, 0.6, tau, IndexPair(0.9, 0.4),
                               EvolutionConfig(dt=dt, t0=0.0, t1=1.0))
            for dt in (0.04, 0.02)
        ]
        assert r[1] <= 1.0 * 0.02**2
        assert 3.0 <= r[0] / r[1] <= 5.0


class TestLevelFamilies:
    """A symmetry's level is a family (t, n) -> n-particle operator; its
    residuals take d/dt of level n, which is zero for a family that
    ignores t."""

    def test_static_shift_family_has_no_rate_term(self, grid8, rng):
        # a static family differences two equal arrays, so the residual is
        # bit for bit the formula without its d/dt term
        H = log_hierarchy(grid8)
        shifts = [shift_all_op(grid8, n, 3) for n in (1, 2, 3)]
        tmap = AffineMap(1.5, 0.2)
        V = FiniteSymmetry(level=lambda t, n: shifts[n - 1], tmap=tmap)
        for n in (1, 2, 3):
            data = nzs(n, grid8, rng, k=3)
            Vn, Fn = shifts[n - 1], H.op(n)
            drive = -1j * Fn.apply(data)
            want = sup_norms(tmap.alpha * Vn.derivative(data, drive)
                             - (-1j) * Fn.apply(Vn.apply(data)))
            assert symmetry_residual(V, H, 0.3, data) == want

    def test_index_symmetry_solves_the_flow_once_per_level(self, space3, monkeypatch):
        asked = []

        def recording(*args):
            flow = index_flow(*args)
            return lambda t: asked.append(t) or flow(t)

        monkeypatch.setattr(sepsym.symmetry, "index_flow", recording)
        args = (1.1, 0.6, AffineMap(0.5, 0.2), IndexPair(0.9, 0.4),
                EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0))
        K = lambda_index_symmetry(*args, space3)
        for t, n in ((0.2, 1), (0.7, 3), (0.2, 2)):
            op = K.level(t, n)
            assert (op.n, op.indices) == (n, index_flow(*args)(t))
        assert asked == [0.2, 0.7, 0.2]

    def test_a_residual_builds_only_its_level(self, space3, rng):
        # the residual at n builds level n at t and at t +- DT_SYM, no other
        built = []
        H = Hierarchy.from_generators([Generator(lambda_op(IndexPair(1.1, 0.6), 1, space3))], 3)
        K = lambda_index_symmetry(1.1, 0.6, AffineMap(0.5, 0.2), IndexPair(0.9, 0.4),
                                  EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0), space3)
        recorded = replace(K, level=lambda t, n: built.append(n) or K.level(t, n))
        inf_symmetry_residual(recorded, H, 0.4, nzs(2, space3, rng))
        assert built == [2, 2, 2]

    @pytest.mark.parametrize("check", ["index-evolution", "symmetry-bracket-closure"])
    def test_a_check_builds_one_hierarchy(self, check, monkeypatch):
        # the evolution hierarchy F is the only one; a symmetry builds levels
        built = []
        post_init = Hierarchy.__post_init__
        monkeypatch.setattr(Hierarchy, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        sc = load_scenario("scaling-indices", set(CHECKS))
        assert run_check(check, sc, {}).status == "pass"
        assert len(built) == 1


def remarch_oracle(p, q, tau, start, cfg):
    """The index flow as a fresh RK4 march from cfg.t0 on every call, its
    state a 2-entry ndarray marched stage by stage by rk4_trajectory: the
    flow's step maps must reproduce it to round-off."""
    da, db = -1j * p, -1j * q

    def rhs(y):
        c, d = complex(y[0]), complex(y[1])
        fa, fb = product_components(da, db, c, d)
        ba, bb = product_components(c, d, da, db)
        return np.array([fa - ba - tau.alpha * da, fb - bb - tau.alpha * db])

    def at(tt):
        span = tt - cfg.t0
        steps = int(round(span / cfg.dt))
        y = np.array([start.a, start.b], dtype=np.complex128)
        reached = cfg.t0
        if steps != 0:
            signed_dt = math.copysign(cfg.dt, span)
            y = rk4_trajectory(rhs, y, signed_dt, abs(steps))
            reached = cfg.t0 + abs(steps) * signed_dt
        rem = tt - reached
        if abs(rem) > 1e-15:
            y = rk4_trajectory(rhs, y, rem, 1)
        return IndexPair(complex(y[0]), complex(y[1]))

    return at


def map_march_oracle(p, q, tau, start, cfg):
    """The index flow as a fresh march from cfg.t0 on every call, with a
    new step map per call: k applications of the map of the signed step,
    then one map of the remaining size.  The flow's node table must
    reproduce it bit for bit."""
    da, db = -1j * p, -1j * q

    def linear(c, d):
        return bracket_components(da, db, c, d)

    offset = (-tau.alpha * da, -tau.alpha * db)

    def at(tt):
        span = tt - cfg.t0
        steps = int(round(span / cfg.dt))
        y = (start.a, start.b)
        reached = cfg.t0
        if steps != 0:
            signed_dt = math.copysign(cfg.dt, span)
            step = rk4_affine_step(linear, offset, signed_dt)
            for _ in range(abs(steps)):
                y = step(*y)
            reached = cfg.t0 + abs(steps) * signed_dt
        rem = tt - reached
        if abs(rem) > 1e-15:
            y = rk4_affine_step(linear, offset, rem)(*y)
        return IndexPair(*y)

    return at


class TestIndexFlowTable:
    P, Q, START = 1.1, 0.6, IndexPair(0.9, 0.4)
    CASES = [
        (AffineMap(0.0, 0.0), EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0)),
        (AffineMap(0.5, 0.2), EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0)),
        (AffineMap(-1.0, 0.3), EvolutionConfig(dt=0.02, t0=0.25, t1=1.25)),
    ]

    def times(self, cfg):
        dt, t0 = cfg.dt, cfg.t0
        on_nodes = [t0 + k * dt for k in (1, 2, 7, 40, 3, -1, -5, -2)]
        off_nodes = [t0 + 0.4 * dt, t0 + 12.3 * dt, t0 - 2.6 * dt, t0 + 5 * dt + 1e-4]
        return [t0, *on_nodes, *off_nodes, t0 - 1e-4, t0 + 1e-4, t0 + 19.5 * dt]

    @pytest.mark.parametrize("tau, cfg", CASES)
    def test_matches_fresh_march_exactly(self, tau, cfg):
        flow = index_flow(self.P, self.Q, tau, self.START, cfg)
        oracle = map_march_oracle(self.P, self.Q, tau, self.START, cfg)
        staged = remarch_oracle(self.P, self.Q, tau, self.START, cfg)
        ts = self.times(cfg)
        # non-monotone order, every time asked twice, the second pass
        # reversed so that it revisits nodes the table already holds
        for t in ts + ts[::-1]:
            got, want, near = flow(t), oracle(t), staged(t)
            assert (got.a, got.b) == (want.a, want.b), t
            assert got.close_to(near, 1e-12), t

    def test_repeated_off_node_time_builds_no_second_map(self, monkeypatch):
        # the central differences of index_law_residual revisit remainders:
        # each remainder's map is built once, and its value is a fresh flow's;
        # each signed step's map is built when the flow first marches that way
        tau, cfg = self.CASES[1]
        fresh = index_flow(self.P, self.Q, tau, self.START, cfg)(0.3001)
        built = []

        def counting(linear, offset, dt):
            built.append(dt)
            return rk4_affine_step(linear, offset, dt)

        monkeypatch.setitem(pair_flow.__globals__, "rk4_affine_step", counting)
        flow = index_flow(self.P, self.Q, tau, self.START, cfg)
        assert built == []
        values = [flow(t) for t in (0.3001, 0.1, 0.3001, -0.2, 0.3001)]
        assert len(built) == 3  # the two signed steps and one remainder
        assert all((got.a, got.b) == (fresh.a, fresh.b) for got in values[::2])

    def march_steps(self, monkeypatch, pair_flow=pair_flow):
        """Step-map applications the flow makes over a repetitive call
        sequence, with the fewest and most a flow that marches each node
        once may make."""
        steps = []

        def counting(linear, offset, dt):
            step = rk4_affine_step(linear, offset, dt)

            def counted(c, d):
                steps.append(dt)
                return step(c, d)

            return counted

        monkeypatch.setitem(pair_flow.__globals__, "rk4_affine_step", counting)
        monkeypatch.setattr(sepsym.symmetry, "pair_flow", pair_flow)
        tau, cfg = self.CASES[1]
        flow = index_flow(self.P, self.Q, tau, self.START, cfg)
        ts = [0.3, 0.1, 0.3001, -0.05, 0.2999, 0.0, -0.0501, 0.25] * 4
        for t in ts:
            flow(t)
        # every node once in each direction, plus at most one partial step
        # per call
        nodes = [round((t - cfg.t0) / cfg.dt) for t in ts]
        return len(steps), max(nodes) - min(nodes), max(nodes) - min(nodes) + len(ts)

    def test_each_node_is_marched_once(self, monkeypatch):
        steps, fewest, most = self.march_steps(monkeypatch)
        assert fewest <= steps <= most

    @pytest.mark.parametrize("sign", [1, -1])
    def test_past_the_step_cap_raises_before_marching(self, monkeypatch, sign):
        # node MAX_STEPS is the last the flow marches to, in either direction;
        # a time beyond it raises before the node table grows
        steps = []

        def counting(linear, offset, dt):
            step = rk4_affine_step(linear, offset, dt)
            return lambda c, d: steps.append(dt) or step(c, d)

        monkeypatch.setitem(pair_flow.__globals__, "rk4_affine_step", counting)
        cfg = EvolutionConfig(dt=0.01, t0=0.5, t1=1.0)
        flow = index_flow(self.P, self.Q, AffineMap(0.5, 0.2), self.START, cfg)
        for far in (cfg.t0 + sign * (MAX_STEPS + 1) * cfg.dt, sign * 1e300, math.inf):
            with pytest.raises(StepMismatch, match="step-count cap"):
                flow(far)
        assert steps == []
        flow(cfg.t0 + sign * MAX_STEPS * cfg.dt)
        assert len(steps) == MAX_STEPS

    def test_remarching_flow_fails_the_count(self, monkeypatch):
        # a flow that clears its node tables on every call re-marches from t0
        source = inspect.getsource(evolution.pair_flow)
        anchor = "        span = tt - cfg.t0\n"
        assert source.count(anchor) == 1
        namespace = dict(vars(evolution))
        clear = "        for table in tables.values():\n            del table[1:]\n"
        exec(source.replace(anchor, clear + anchor), namespace)
        steps, _, most = self.march_steps(monkeypatch, namespace["pair_flow"])
        assert steps > most


class TestBracket:
    def make_pair(self, space):
        p, q = 0.9, 0.5
        cfg = EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0)
        K = lambda_index_symmetry(p, q, AffineMap(0.0, 1.0), IndexPair(0.8, 0.3), cfg, space)
        L = lambda_index_symmetry(p, q, AffineMap(1.0, 0.0), IndexPair(0.2, 0.7), cfg, space)
        H = Hierarchy.from_generators([Generator(lambda_op(IndexPair(p, q), 1, space))], 2)
        return K, L, H

    def test_self_bracket_vanishes(self, space3, rng):
        K, _, _ = self.make_pair(space3)
        M = inf_symmetry_bracket(K, K)
        assert abs(M.tau.alpha) == 0.0 and abs(M.tau.beta) == 0.0
        phi = nz(2, space3, rng)
        assert np.abs(M.level(0.4, 2).apply(phi)).max() <= 1e-7

    def test_tau_bracket_frozen_example(self, space3):
        # tau_K = 1, tau_L = t gives tau_[K,L] = 1
        K, L, _ = self.make_pair(space3)
        M = inf_symmetry_bracket(K, L)
        assert abs(M.tau.alpha) <= 1e-15
        assert abs(M.tau.beta - 1.0) <= 1e-15

    def test_bracket_is_again_a_symmetry(self, space3, rng):
        K, L, H = self.make_pair(space3)
        M = inf_symmetry_bracket(K, L)
        for t in (0.3, 0.7):
            assert max(inf_symmetry_residual(M, H, t, nzs(2, space3, rng))) <= 2e-5

    def test_checked_bracket_has_closed_derivatives(self, monkeypatch):
        # symmetry-bracket-closure differentiates a level of [K, L]; a
        # level without a closed derivative would move it onto finite
        # differences without a word (only Lambda and linear operators
        # carry the second derivatives a bracket's derivative needs)
        from sepsym import checks_symmetry

        built = []

        def recorded(K, L):
            built.append(inf_symmetry_bracket(K, L))
            return built[-1]

        monkeypatch.setattr(checks_symmetry, "inf_symmetry_bracket", recorded)
        sc = load_scenario("scaling-indices", set(CHECKS))
        assert run_check("symmetry-bracket-closure", sc, {}).status == "pass"
        [M] = built
        assert all(M.level(0.3, n).has_closed_derivative for n in (1, 2))


class TestThresholdConsistency:
    @staticmethod
    def decompose_both_sides(space, H, K, tau, t0, rng, n_max=3):
        import math
        from sepsym.hierarchy import canonical_decompose
        from sepsym.opcalc import NonlinearOperator

        dt_sym = 1e-4

        def freeze(n, ev):
            return NonlinearOperator(n=n, space=space, eval_fn=ev)

        lhs_levels, rhs_levels = [], []
        for n in range(1, n_max + 1):
            before, Kn, after = (K.level(t0 + d, n) for d in (-dt_sym, 0.0, dt_sym))
            Fn = H.op(n)

            def lhs_eval(data, before=before, after=after):
                return (after.apply(data) - before.apply(data)) / (2 * dt_sym)

            def rhs_eval(data, Kn=Kn, Fn=Fn):
                bracket = -1j * Fn.derivative(data, Kn.apply(data)) - Kn.derivative(
                    data, -1j * Fn.apply(data)
                )
                return bracket - tau.alpha * (-1j) * Fn.apply(data)

            lhs_levels.append(freeze(n, lhs_eval))
            rhs_levels.append(freeze(n, rhs_eval))
        lhs_h = Hierarchy(tuple(lhs_levels))
        rhs_h = Hierarchy(tuple(rhs_levels))
        d_lhs = canonical_decompose(lhs_h, seed=5, derivation_tol=1e-6)
        d_rhs = canonical_decompose(rhs_h, seed=5, derivation_tol=1e-6)
        gaps = []
        for gl, gr in zip(d_lhs, d_rhs):
            phi = nz(gl.ell, space, rng, phase_cap=math.pi / 4)
            gaps.append(
                float(
                    np.abs(gl.op.apply(phi) - gr.op.apply(phi)).max()
                )
            )
        return d_lhs, d_rhs, gaps

    def test_index_symmetry_decomposes_level_wise(self, space3, rng):
        # both sides of the symmetry equation, decomposed threshold by
        # threshold: the index-carrying symmetry of the pure lambda
        # hierarchy lives entirely at threshold one
        import math

        p, q = 1.1, 0.6
        tau = AffineMap(0.5, 0.2)
        cfg = EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0)
        H = Hierarchy.from_generators([Generator(lambda_op(IndexPair(p, q), 1, space3))], 3)
        K = lambda_index_symmetry(p, q, tau, IndexPair(0.9, 0.4), cfg, space3)
        d_lhs, d_rhs, gaps = self.decompose_both_sides(space3, H, K, tau, 0.4, rng)
        assert max(gaps) <= 1e-6
        for g in list(d_lhs[1:]) + list(d_rhs[1:]):
            phi = nz(g.ell, space3, rng, phase_cap=math.pi / 4)
            assert np.abs(g.op.apply(phi)).max() <= 1e-6
        # the threshold-one part is genuinely non-zero
        phi1 = nz(1, space3, rng)
        assert np.abs(d_lhs[0].op.apply(phi1)).max() > 1e-3

    def test_balanced_index_symmetry_of_extended_hierarchy(self, space3, rng):
        # with a threshold-2 generator in the evolution, only symmetries
        # with balanced indices (c = d real, constant, tau' = 0) survive:
        # [i_bar G, Lambda(c, d)] carries a factor (c - d).  Both sides of
        # the symmetry equation then vanish threshold by threshold, which
        # exercises a genuine cancellation at level two
        import math
        from sepsym.operators import cross_ratio_op

        p, q = 1.1, 0.6
        tau = AffineMap(0.0, 0.2)
        H = Hierarchy.from_generators(
            [
                Generator(lambda_op(IndexPair(p, q), 1, space3)),
                Generator(cross_ratio_op(space3, coupling=0.5)),
            ],
            3,
        )
        c = 0.8
        K = InfinitesimalSymmetry(level=lambda t, n: lambda_op(IndexPair(c, c), n, space3),
                                  tau=tau)
        for n in (1, 2, 3):
            data = nzs(n, space3, rng, phase_cap=math.pi / 4)
            assert max(inf_symmetry_residual(K, H, 0.4, data)) <= 1e-10
        d_lhs, d_rhs, gaps = self.decompose_both_sides(space3, H, K, tau, 0.4, rng)
        assert max(gaps) <= 1e-6
        for g in list(d_lhs) + list(d_rhs):
            phi = nz(g.ell, space3, rng, phase_cap=math.pi / 4)
            assert np.abs(g.op.apply(phi)).max() <= 1e-6

    def test_unbalanced_indices_are_obstructed(self, space3, rng):
        # the same construction with c != d fails against the threshold-2
        # generator: the added-generator obstruction at work
        import math
        from sepsym.operators import cross_ratio_op

        H2 = Hierarchy.from_generators([Generator(cross_ratio_op(space3, coupling=0.5))], 2)
        K = InfinitesimalSymmetry(level=lambda t, n: lambda_op(IndexPair(0.8, 0.3), n, space3),
                                  tau=AffineMap(0.0, 0.0))
        res = max(inf_symmetry_residual(K, H2, 0.4, nzs(2, space3, rng, phase_cap=math.pi / 4)))
        assert res > 1e-2


def point_level(spec, n, space):
    """The n-particle point generator: the canonical lift of the sum of
    its one-particle pieces."""
    return canonical_lift(Generator(op_combine(list(point_symmetry_parts(spec, space).values()))), n)


class TestPointSymmetry:
    def test_constant_phase_form(self, grid8, rng):
        spec = PointSymmetrySpec(eta=lambda pos: 0.7 * np.ones_like(pos))
        for n in (1, 2):
            K = point_level(spec, n, grid8)
            phi = random_state(n, grid8, rng)
            assert np.allclose(
                K.apply(phi), 1j * 0.7 * n * phi, rtol=1e-13, atol=1e-15
            )

    def test_momentum_matches_direct_two_particle_form(self, grid8, rng):
        # canonical lift of the one-particle drift equals the explicit
        # slot-sum built independently from kron matrices
        xi = 0.8 * np.sin(grid8.positions() + 0.5) + 0.2
        spec = PointSymmetrySpec(xi=lambda pos: xi)
        K2 = point_level(spec, 2, grid8)
        D = np.zeros((8, 8))
        h = grid8.spacing
        for k in range(8):
            D[k, (k + 1) % 8] = 1.0 / (2 * h)
            D[k, (k - 1) % 8] = -1.0 / (2 * h)
        L1 = np.diag(xi) @ D + 0.5 * np.diag(D @ xi)
        eye = np.eye(8)
        full = np.kron(L1, eye) + np.kron(eye, L1)
        phi = random_state(2, grid8, rng)
        oracle = (full @ phi.reshape(-1)).reshape(8, 8)
        assert np.allclose(K2.apply(phi), oracle, rtol=1e-12, atol=1e-13)

    def test_generator_levels(self, grid8, rng):
        spec = PointSymmetrySpec(eta=lambda pos: np.sin(pos), xi=lambda pos: np.cos(pos))
        K = InfinitesimalSymmetry(level=lambda t, n: point_level(spec, n, grid8))
        assert [K.level(0.0, n).n for n in (1, 2, 3)] == [1, 2, 3]
        # a residual judges no level above the evolution hierarchy's
        with pytest.raises(BadRange):
            inf_symmetry_residual(K, log_hierarchy(grid8), 0.0, nzs(4, grid8, rng))

    def test_named_profiles(self, grid8):
        pos = grid8.positions()
        assert np.allclose(named_profile("constant", 2.0)(pos), 2.0)
        assert np.allclose(named_profile("sine", 1.5, 0.2)(pos), 1.5 * np.sin(pos + 0.2))
        lin = named_profile("linear", 0.5, offset=1.0)(pos)
        assert np.allclose(np.diff(lin), 0.5 * grid8.spacing)
        assert np.allclose(named_profile("constant", 0.0, offset=2.0)(pos), 2.0)
        with pytest.raises(ValueError):
            named_profile("cubic")

    @pytest.mark.parametrize("build, premise", [
        (lambda sp: point_symmetry_parts(PointSymmetrySpec(), sp), "grid-ordered"),
        (central_difference_op, "grid-ordered"),
        (lambda sp: spin_rms_log_op(sp, 1.0), "factored"),
        (spin_rotation_op, "factored"),
        (lambda sp: cross_ratio_op(sp, refs=(4, 0)), "out of range"),
    ], ids=["point-symmetry", "central-difference", "spin-rms", "spin-rotation", "refs"])
    def test_space_premises(self, space4, build, premise):
        # a space without what an operator needs is a SpaceMismatch, which a
        # check run reports as an error entry with no trace on stderr
        with pytest.raises(SpaceMismatch, match=premise):
            build(space4)


def bundled_check(name, seed):
    """The bundled scenario's check of the same name, run at ``seed``."""
    sc = replace(load_scenario(name, set(CHECKS)), seed=seed)
    return run_check(name, sc, {})


class TestFreelift:
    def test_ladder(self):
        res = bundled_check("freelift-grid-ladder", 3)
        rep = res.details
        assert rep["grids"] == [8, 16, 32]
        for side in ("c1", "c2"):
            assert max(rep[side]["phase"]) <= 1e-10
            assert max(rep[side]["mult"]) <= 1e-10
            for ratio in rep[side]["drift_ratios"]:
                assert 3.0 <= ratio <= 5.0
        # the full natural part is dominated by its derivative piece
        assert rep["c1"]["full"][0] > 1e-4
        assert res.status == "pass"

    @pytest.mark.parametrize("seed", range(10))
    def test_check_passes_off_the_bundled_seed(self, seed):
        # the drift ratios compare sup norms over the 8 sites that all three
        # grids share; over each grid's own sites seeds 0, 2, 4 and 5 fail
        res = bundled_check("freelift-grid-ladder", seed)
        assert res.details["drift_sites"] == 8
        assert res.status == "pass", res.details["criteria"]

    def test_first_order_difference_fails(self, monkeypatch):
        # a forward difference has an O(h) error, so its drift ratios sit
        # near 2, below the band the central difference's O(h^2) meets
        def forward_difference_op(space):
            h = space.spacing
            return linear_op(space, 1, lambda data: (np.roll(data, -1, axis=0) - data) / h,
                             "grid-derivative")

        monkeypatch.setattr(sepsym.symmetry, "central_difference_op", forward_difference_op)
        sc = load_scenario("freelift-grid-ladder", set(CHECKS))
        res = run_check("freelift-grid-ladder", sc, {})
        assert res.status == "fail"
        for side in ("c1", "c2"):
            assert all(ratio < 3.0 for ratio in res.details[side]["drift_ratios"])


class TestInternalDof:
    def test_positive_and_stable(self):
        # positive: above the floor on the base batch and on both
        # comparison sets; stable: the check's reseed and refinement
        # ratios both sit within its band, so its residual is at most 1
        res = bundled_check("internal-dof-demo", 1)
        d = res.details
        norm = d["criteria"]["norm"]["value"]
        assert d["report"]["kind"] == "corollary1" and not d["report"]["vanishes"]
        assert min(norm, d["reseeded_norm"], d["refined_norm"]) > 1e-3
        assert d["report"]["rhs_norm"] == norm
        assert res.status == "pass" and res.max_residual <= 1.0

    def test_linear_theory_escapes(self, spin_space, rng):
        # replacing the non-linearity by a linear operator kills the defect
        from sepsym.obstruction import corollary1_obstruction
        from sepsym.operators import spin_rotation_op

        F = Generator(site_matrix_op(spin_space, random_hermitian(spin_space, rng)))
        K = Generator(spin_rotation_op(spin_space))
        wf = nz(2, spin_space, rng)
        assert np.abs(corollary1_obstruction(F, K, wf)).max() <= 1e-10
