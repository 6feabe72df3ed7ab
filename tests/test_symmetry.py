import math

import numpy as np
import pytest
import scipy.linalg

import sepsym.symmetry
from sepsym.errors import BadRange
from sepsym.evolution import EvolutionConfig, rk4_trajectory
from sepsym.hierarchy import Generator, Hierarchy, canonical_lift
from sepsym.mixedpow import IndexPair, pair_bracket
from sepsym.opcalc import estimate_log_indices, op_combine
from sepsym.operators import (
    diag_mult_op,
    lambda_op,
    log_modulus_op,
    rms_log_modulus_op,
    shift_all_op,
    site_matrix_op,
)
from sepsym.scenario import random_hermitian
from sepsym.space import ConfigSpace, random_state
from sepsym.symmetry import (
    AffineMap,
    FiniteSymmetry,
    IDENTITY_TIME,
    InfinitesimalSymmetry,
    PointSymmetrySpec,
    compose_symmetries,
    freelift_report,
    index_flow,
    index_law_residual,
    inf_symmetry_bracket,
    inf_symmetry_residual,
    internal_dof_report,
    invert_symmetry,
    lambda_index_symmetry,
    named_profile,
    point_symmetry_generator,
    point_symmetry_level,
    point_symmetry_parts,
    symmetry_residual,
)


def nz(n, space, rng, **kw):
    return random_state(n, space, rng, nowhere_zero=True, **kw)


def log_hierarchy(space, n_max=3):
    g = Generator(op=log_modulus_op(space, 1.0), ell=1, indices=IndexPair(1.0, 0))
    return Hierarchy.from_generators(space, [g], n_max)


class TestAffineMap:
    def test_compose_and_invert(self):
        T = AffineMap(2.0, 1.0)
        S = AffineMap(-1.0, 3.0)
        assert T.compose(S)(0.5) == T(S(0.5))
        assert abs(T.inverse()(T(0.7)) - 0.7) < 1e-15
        with pytest.raises(ValueError):
            AffineMap(0.0, 1.0).inverse()


class TestFiniteSymmetry:
    def test_identity_symmetry(self, grid8, rng):
        H = log_hierarchy(grid8)
        eye = site_matrix_op(grid8, np.eye(8))
        levels = {1: eye}
        V = FiniteSymmetry(levels=levels, tmap=IDENTITY_TIME)
        assert symmetry_residual(V, H, 0.4, nz(1, grid8, rng)) <= 1e-12

    def test_lattice_shift_exact(self, grid8, rng):
        H = log_hierarchy(grid8)
        V = FiniteSymmetry(
            levels={n: shift_all_op(grid8, n, 3) for n in (1, 2, 3)},
            tmap=IDENTITY_TIME,
            inverse_levels={n: shift_all_op(grid8, n, -3) for n in (1, 2, 3)},
        )
        for n in (1, 2, 3):
            assert symmetry_residual(V, H, 0.3, nz(n, grid8, rng)) <= 1e-12

    def test_linear_conjugated_flow(self, space4, rng):
        # V(t) = e^{-iAt} W e^{iAt} solves the symmetry equation for F = A
        A = random_hermitian(space4, rng)
        W = random_hermitian(space4, rng)
        g = Generator(op=site_matrix_op(space4, A), ell=1, indices=IndexPair(0, 0))
        H = Hierarchy.from_generators(space4, [g], 1)

        def vmat(t):
            U = scipy.linalg.expm(-1j * A * t)
            return U @ W @ U.conj().T

        V = FiniteSymmetry(levels={1: site_matrix_op(space4, vmat)}, tmap=IDENTITY_TIME)
        res = symmetry_residual(V, H, 0.37, nz(1, space4, rng))
        assert res <= 1e-6  # limited by the dt_sym time differencing

    def test_composition_matches_direct(self, grid8, rng):
        V = FiniteSymmetry(
            levels={2: shift_all_op(grid8, 2, 1)},
            tmap=AffineMap(1.0, 0.5),
            inverse_levels={2: shift_all_op(grid8, 2, -1)},
        )
        W = FiniteSymmetry(
            levels={2: shift_all_op(grid8, 2, 3)},
            tmap=AffineMap(2.0, 0.0),
            inverse_levels={2: shift_all_op(grid8, 2, -3)},
        )
        VW = compose_symmetries(V, W)
        phi = nz(2, grid8, rng)
        t = 0.25
        direct = V.level(2).apply(t, W.level(2).apply(V.tmap(t), phi.data))
        assert np.array_equal(VW.level(2).apply(t, phi.data), direct)
        assert VW.tmap(t) == W.tmap(V.tmap(t))
        # composition of two exact symmetries stays a symmetry
        H = log_hierarchy(grid8)
        both_id = compose_symmetries(
            FiniteSymmetry(levels=V.levels, tmap=IDENTITY_TIME),
            FiniteSymmetry(levels=W.levels, tmap=IDENTITY_TIME),
        )
        assert symmetry_residual(both_id, H, 0.2, phi) <= 1e-12

    def test_inversion(self, grid8, rng):
        V = FiniteSymmetry(
            levels={2: shift_all_op(grid8, 2, 3)},
            tmap=AffineMap(2.0, 1.0),
            inverse_levels={2: shift_all_op(grid8, 2, -3)},
        )
        Vinv = invert_symmetry(V)
        phi = nz(2, grid8, rng)
        t = 0.4
        # V^{-1}(T_V(t)) undoes V(t)
        assert np.array_equal(
            Vinv.level(2).apply(V.tmap(t), V.level(2).apply(t, phi.data)), phi.data
        )
        assert abs(Vinv.tmap(V.tmap(t)) - t) <= 1e-15


class TestInfinitesimal:
    def test_linear_commutant(self, space4, rng):
        A = random_hermitian(space4, rng)
        g = Generator(op=site_matrix_op(space4, A), ell=1, indices=IndexPair(0, 0))
        H = Hierarchy.from_generators(space4, [g], 1)
        K = InfinitesimalSymmetry(
            levels={1: site_matrix_op(space4, A @ A)}, tau=AffineMap(0.0, 0.0)
        )
        assert inf_symmetry_residual(K, H, 0.3, nz(1, space4, rng)) <= 1e-11

    def test_drive_is_own_symmetry(self, space4, rng):
        # K = i_bar F commutes with the drive ([i_bar F, i_bar F] = 0); the
        # plain F would not, since DF is only real-linear
        from sepsym.opcalc import op_scale

        H = log_hierarchy(space4, 2)
        levels = {n: op_scale(H.op(n), -1j) for n in (1, 2)}
        K = InfinitesimalSymmetry(levels=levels, tau=AffineMap(0.0, 0.0))
        assert inf_symmetry_residual(K, H, 0.5, nz(2, space4, rng)) <= 1e-11

    def test_constant_phase_exact(self, grid8, rng):
        H = log_hierarchy(grid8)
        phase = diag_mult_op(grid8, 1j * 0.7 * np.ones(8), name="i*c")
        gen = Generator(op=phase, ell=1, indices=IndexPair(0, 0))
        K = InfinitesimalSymmetry(
            levels={n: canonical_lift(gen, n) for n in (1, 2, 3)}, tau=AffineMap(0.0, 0.0)
        )
        assert inf_symmetry_residual(K, H, 0.1, nz(2, grid8, rng)) <= 1e-12

    def test_momentum_residual_quadratic_in_h(self, rng):
        residuals = []
        for gsize in (8, 16, 32):
            sp = ConfigSpace(gsize, grid=True)
            Hg = log_hierarchy(sp, 2)
            spec = PointSymmetrySpec(xi=lambda t, pos: np.full(pos.shape, 0.9))
            parts = point_symmetry_parts(spec, sp)
            mom = op_combine([parts["drift"], parts["mult"]], name="advection")
            gen = Generator(op=mom, ell=1, indices=IndexPair(0, 0))
            K = InfinitesimalSymmetry(
                levels={n: canonical_lift(gen, n) for n in (1, 2)}, tau=AffineMap(0.0, 0.0)
            )
            wf = random_state(2, sp, np.random.default_rng((5, 1)), nowhere_zero=True, smooth=True)
            residuals.append(inf_symmetry_residual(K, Hg, 0.2, wf))
        assert residuals[0] > 1e-4  # genuinely non-zero at finite h
        for r0, r1 in zip(residuals, residuals[1:]):
            assert 2.5 <= r0 / r1 <= 5.5

    def test_lambda_index_symmetry(self, space3, rng):
        p, q = 1.1, 0.6
        cfg = EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0)
        g = Generator(op=lambda_op(IndexPair(p, q), 1, space3), ell=1, indices=IndexPair(p, q))
        H = Hierarchy.from_generators(space3, [g], 2)
        K = lambda_index_symmetry(p, q, AffineMap(0.5, 0.2), IndexPair(0.9, 0.4), cfg, space3, 2)
        for t in (0.2, 0.8):
            assert inf_symmetry_residual(K, H, t, nz(2, space3, rng)) <= 1e-6

    def test_index_law_residual_second_order(self):
        tau = AffineMap(0.5, 0.2)
        r = [
            index_law_residual(1.1, 0.6, tau, IndexPair(0.9, 0.4),
                               EvolutionConfig(dt=dt, t0=0.0, t1=1.0))
            for dt in (0.04, 0.02)
        ]
        assert r[1] <= 1.0 * 0.02**2
        assert 3.0 <= r[0] / r[1] <= 5.0


def remarch_oracle(p, q, tau, start, cfg):
    """The index flow as a fresh RK4 march from cfg.t0 on every call: the
    flow table must reproduce it bit for bit."""
    drive = IndexPair(-1j * p, -1j * q)

    def rhs(t, y):
        br = pair_bracket(drive, IndexPair(y[0], y[1]))
        return np.array([(br.a - tau.alpha * drive.a) / cfg.hbar,
                         (br.b - tau.alpha * drive.b) / cfg.hbar])

    def at(tt):
        span = tt - cfg.t0
        steps = int(round(span / cfg.dt))
        y = np.array([start.a, start.b], dtype=np.complex128)
        reached = cfg.t0
        if steps != 0:
            signed_dt = math.copysign(cfg.dt, span)
            y, _, _ = rk4_trajectory(rhs, y, cfg.t0, signed_dt, abs(steps))
            reached = cfg.t0 + abs(steps) * signed_dt
        rem = tt - reached
        if abs(rem) > 1e-15:
            y, _, _ = rk4_trajectory(rhs, y, reached, rem, 1)
        return IndexPair(complex(y[0]), complex(y[1]))

    return at


class TestIndexFlowTable:
    P, Q, START = 1.1, 0.6, IndexPair(0.9, 0.4)
    CASES = [
        (AffineMap(0.0, 0.0), EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0)),
        (AffineMap(0.5, 0.2), EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0, hbar=1.7)),
        (AffineMap(-1.0, 0.3), EvolutionConfig(dt=0.02, t0=0.25, t1=1.25, hbar=0.6)),
    ]

    def times(self, cfg):
        dt, t0 = cfg.dt, cfg.t0
        on_nodes = [t0 + k * dt for k in (1, 2, 7, 40, 3, -1, -5, -2)]
        off_nodes = [t0 + 0.4 * dt, t0 + 12.3 * dt, t0 - 2.6 * dt, t0 + 5 * dt + 1e-4]
        return [t0, *on_nodes, *off_nodes, t0 - 1e-4, t0 + 1e-4, t0 + 19.5 * dt]

    @pytest.mark.parametrize("tau, cfg", CASES)
    def test_matches_fresh_march_exactly(self, tau, cfg):
        flow = index_flow(self.P, self.Q, tau, self.START, cfg)
        oracle = remarch_oracle(self.P, self.Q, tau, self.START, cfg)
        ts = self.times(cfg)
        # non-monotone order, every time asked twice, the second pass
        # reversed so that it revisits nodes the table already holds
        for t in ts + ts[::-1]:
            got, want = flow(t), oracle(t)
            assert (got.a, got.b) == (want.a, want.b), t

    def test_each_node_is_marched_once(self, monkeypatch):
        steps = []

        def counting(rhs, y0, t0, dt, n_steps, keep_samples=False):
            steps.append(n_steps)
            return rk4_trajectory(rhs, y0, t0, dt, n_steps, keep_samples)

        monkeypatch.setattr(sepsym.symmetry, "rk4_trajectory", counting)
        tau, cfg = self.CASES[1]
        flow = index_flow(self.P, self.Q, tau, self.START, cfg)
        ts = [0.3, 0.1, 0.3001, -0.05, 0.2999, 0.0, -0.0501, 0.25] * 4
        for t in ts:
            flow(t)
        # every node once in each direction, plus at most one partial step
        # per call
        nodes = [round((t - cfg.t0) / cfg.dt) for t in ts]
        assert sum(steps) <= max(nodes) - min(nodes) + len(ts)


class TestBracket:
    def make_pair(self, space):
        p, q = 0.9, 0.5
        cfg = EvolutionConfig(dt=1e-3, t0=0.0, t1=1.0)
        K = lambda_index_symmetry(p, q, AffineMap(0.0, 1.0), IndexPair(0.8, 0.3), cfg, space, 2)
        L = lambda_index_symmetry(p, q, AffineMap(1.0, 0.0), IndexPair(0.2, 0.7), cfg, space, 2)
        H = Hierarchy.from_generators(
            space,
            [Generator(op=lambda_op(IndexPair(p, q), 1, space), ell=1, indices=IndexPair(p, q))],
            2,
        )
        return K, L, H

    def test_self_bracket_vanishes(self, space3, rng):
        K, _, _ = self.make_pair(space3)
        M = inf_symmetry_bracket(K, K)
        assert abs(M.tau.alpha) == 0.0 and abs(M.tau.beta) == 0.0
        phi = nz(2, space3, rng)
        assert np.abs(M.level(2).apply(0.4, phi.data)).max() <= 1e-7

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
            assert inf_symmetry_residual(M, H, t, nz(2, space3, rng)) <= 2e-5


class TestThresholdConsistency:
    @staticmethod
    def decompose_both_sides(space, H, K, tau, t0, rng, n_max=3):
        import math
        from sepsym.hierarchy import canonical_decompose
        from sepsym.opcalc import NonlinearOperator

        dt_sym = 1e-4

        def freeze(n, ev):
            return NonlinearOperator(n=n, space=space, eval_fn=ev, needs_nowhere_zero=True)

        lhs_levels, rhs_levels = [], []
        for n in range(1, n_max + 1):
            Kn, Fn = K.level(n), H.op(n)

            def lhs_eval(t, data, Kn=Kn):
                return (Kn.apply(t0 + dt_sym, data) - Kn.apply(t0 - dt_sym, data)) / (
                    2 * dt_sym
                )

            def rhs_eval(t, data, Kn=Kn, Fn=Fn):
                bracket = -1j * Fn.derivative(t0, data, Kn.apply(t0, data)) - Kn.derivative(
                    t0, data, -1j * Fn.apply(t0, data)
                )
                return bracket - tau.derivative * (-1j) * Fn.apply(t0, data)

            lhs_levels.append(freeze(n, lhs_eval))
            rhs_levels.append(freeze(n, rhs_eval))
        lhs_h = Hierarchy(space=space, n_max=n_max, ops=tuple(lhs_levels))
        rhs_h = Hierarchy(space=space, n_max=n_max, ops=tuple(rhs_levels))
        d_lhs = canonical_decompose(lhs_h, t=t0, seed=5, derivation_tol=1e-6)
        d_rhs = canonical_decompose(rhs_h, t=t0, seed=5, derivation_tol=1e-6)
        gaps = []
        for gl, gr in zip(d_lhs, d_rhs):
            phi = nz(gl.ell, space, rng, phase_cap=math.pi / 4)
            gaps.append(
                float(
                    np.abs(gl.op.apply(t0, phi.data) - gr.op.apply(t0, phi.data)).max()
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
        H = Hierarchy.from_generators(
            space3,
            [Generator(op=lambda_op(IndexPair(p, q), 1, space3), ell=1, indices=IndexPair(p, q))],
            3,
        )
        K = lambda_index_symmetry(p, q, tau, IndexPair(0.9, 0.4), cfg, space3, 3)
        d_lhs, d_rhs, gaps = self.decompose_both_sides(space3, H, K, tau, 0.4, rng)
        assert max(gaps) <= 1e-6
        for g in list(d_lhs[1:]) + list(d_rhs[1:]):
            phi = nz(g.ell, space3, rng, phase_cap=math.pi / 4)
            assert np.abs(g.op.apply(0.4, phi.data)).max() <= 1e-6
        # the threshold-one part is genuinely non-zero
        phi1 = nz(1, space3, rng)
        assert np.abs(d_lhs[0].op.apply(0.4, phi1.data)).max() > 1e-3

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
            space3,
            [
                Generator(op=lambda_op(IndexPair(p, q), 1, space3), ell=1, indices=IndexPair(p, q)),
                Generator(op=cross_ratio_op(space3, coupling=0.5), ell=2, indices=IndexPair(0, 0)),
            ],
            3,
        )
        c = 0.8
        levels = {n: lambda_op(IndexPair(c, c), n, space3) for n in (1, 2, 3)}
        K = InfinitesimalSymmetry(levels=levels, tau=tau)
        for n in (1, 2, 3):
            assert inf_symmetry_residual(K, H, 0.4, nz(n, space3, rng, phase_cap=math.pi / 4)) <= 1e-10
        d_lhs, d_rhs, gaps = self.decompose_both_sides(space3, H, K, tau, 0.4, rng)
        assert max(gaps) <= 1e-6
        for g in list(d_lhs) + list(d_rhs):
            phi = nz(g.ell, space3, rng, phase_cap=math.pi / 4)
            assert np.abs(g.op.apply(0.4, phi.data)).max() <= 1e-6

    def test_unbalanced_indices_are_obstructed(self, space3, rng):
        # the same construction with c != d fails against the threshold-2
        # generator: the added-generator obstruction at work
        import math
        from sepsym.operators import cross_ratio_op

        H2 = Hierarchy.from_generators(
            space3,
            [Generator(op=cross_ratio_op(space3, coupling=0.5), ell=2, indices=IndexPair(0, 0))],
            2,
        )
        levels = {n: lambda_op(IndexPair(0.8, 0.3), n, space3) for n in (1, 2)}
        K = InfinitesimalSymmetry(levels=levels, tau=AffineMap(0.0, 0.0))
        res = inf_symmetry_residual(K, H2, 0.4, nz(2, space3, rng, phase_cap=math.pi / 4))
        assert res > 1e-2


class TestPointSymmetry:
    def test_constant_phase_form(self, grid8, rng):
        spec = PointSymmetrySpec(eta=lambda t, pos: 0.7 * np.ones_like(pos))
        for n in (1, 2):
            K = point_symmetry_level(spec, n, grid8)
            phi = random_state(n, grid8, rng)
            assert np.allclose(
                K.apply(0.0, phi.data), 1j * 0.7 * n * phi.data, rtol=1e-13, atol=1e-15
            )

    def test_momentum_matches_direct_two_particle_form(self, grid8, rng):
        # canonical lift of the one-particle drift equals the explicit
        # slot-sum built independently from kron matrices
        xi = 0.8 * np.sin(grid8.positions() + 0.5) + 0.2
        spec = PointSymmetrySpec(xi=lambda t, pos: xi)
        K2 = point_symmetry_level(spec, 2, grid8)
        D = np.zeros((8, 8))
        h = grid8.spacing
        for k in range(8):
            D[k, (k + 1) % 8] = 1.0 / (2 * h)
            D[k, (k - 1) % 8] = -1.0 / (2 * h)
        L1 = np.diag(xi) @ D + 0.5 * np.diag(D @ xi)
        eye = np.eye(8)
        full = np.kron(L1, eye) + np.kron(eye, L1)
        phi = random_state(2, grid8, rng)
        oracle = (full @ phi.data.reshape(-1)).reshape(8, 8)
        assert np.allclose(K2.apply(0.0, phi.data), oracle, rtol=1e-12, atol=1e-13)

    def test_index_part_estimation(self, grid8, rng):
        spec = PointSymmetrySpec(gamma=0.4, delta=0.2)
        K1 = point_symmetry_level(spec, 1, grid8)
        batch = [nz(1, grid8, rng, phase_cap=math.pi / 2) for _ in range(3)]
        est, _ = estimate_log_indices(K1, 0.0, batch)
        assert est.close_to(IndexPair(0.4j, 0.2j), 1e-10)

    def test_generator_levels(self, grid8):
        spec = PointSymmetrySpec(
            eta=lambda t, pos: np.sin(pos), xi=lambda t, pos: np.cos(pos), gamma=0.1
        )
        K = point_symmetry_generator(spec, grid8, 3)
        assert sorted(K.levels) == [1, 2, 3]
        with pytest.raises(BadRange):
            K.level(4)

    def test_named_profiles(self, grid8):
        pos = grid8.positions()
        assert np.allclose(named_profile("constant", 2.0)(pos), 2.0)
        assert np.allclose(named_profile("sine", 1.5, 0.2)(pos), 1.5 * np.sin(pos + 0.2))
        lin = named_profile("linear", 0.5, offset=1.0)(pos)
        assert np.allclose(np.diff(lin), 0.5 * grid8.spacing)
        assert np.allclose(named_profile("constant", 0.0, offset=2.0)(pos), 2.0)
        with pytest.raises(ValueError):
            named_profile("cubic")

    def test_time_dependent_spec_rebuilds_fields(self, grid8, rng):
        spec = PointSymmetrySpec(
            eta=lambda t, pos: (1.0 + t) * np.ones_like(pos), time_dependent=True
        )
        K1 = point_symmetry_level(spec, 1, grid8)
        assert K1.time_dependent
        phi = random_state(1, grid8, rng)
        at0 = K1.apply(0.0, phi.data)
        at1 = K1.apply(1.0, phi.data)
        assert np.allclose(at1, 2.0 * at0, rtol=1e-13, atol=1e-15)

    def test_requires_grid(self, space4):
        with pytest.raises(ValueError):
            point_symmetry_parts(PointSymmetrySpec(gamma=1.0), space4)


class TestFreelift:
    def test_ladder(self):
        spec = PointSymmetrySpec(
            eta=lambda t, pos: 0.7 * np.sin(pos) + 0.3,
            xi=lambda t, pos: 0.8 * np.sin(pos + 0.5) + 0.2,
            gamma=0.4,
            delta=0.2,
        )
        rep = freelift_report(
            lambda sp: Generator(op=rms_log_modulus_op(sp, 1.0), ell=1, indices=IndexPair(0, 0)),
            spec,
            [8, 16, 32],
            seed=3,
            batch_size=4,
        )
        for side in ("c1", "c2"):
            assert max(rep[side]["phase"]) <= 1e-10
            assert max(rep[side]["mult"]) <= 1e-10
            for ratio in rep[side]["drift_ratios"]:
                assert 3.0 <= ratio <= 5.0
        # the full natural part is dominated by its derivative piece
        assert rep["c1"]["full"][0] > 1e-4


class TestInternalDof:
    def test_demo_api_positive_for_nonlinear(self, spin_space):
        from sepsym.operators import spin_rms_log_op, spin_rotation_op
        from sepsym.obstruction import corollary1_report

        F = Generator(op=spin_rms_log_op(spin_space, 1.0), ell=1, indices=IndexPair(0, 0))
        K = Generator(op=spin_rotation_op(spin_space), ell=1, indices=IndexPair(0, 0))
        rep = corollary1_report(F, K, seed=4, batch_size=8)
        assert rep.kind == "corollary1" and rep.rhs_norm > 1e-3 and not rep.vanishes

    def test_positive_and_stable(self):
        rep = internal_dof_report(grid_size=8, seed=1, batch_size=8)
        assert rep["norm"] > 1e-3
        assert abs(rep["reseed_ratio"] - 1.0) <= 0.1
        assert abs(rep["refine_ratio"] - 1.0) <= 0.1

    def test_linear_theory_escapes(self, spin_space, rng):
        # replacing the non-linearity by a linear operator kills the defect
        from sepsym.obstruction import corollary1_obstruction
        from sepsym.operators import spin_rotation_op

        F = Generator(
            op=site_matrix_op(spin_space, random_hermitian(spin_space, rng)),
            ell=1, indices=IndexPair(0, 0),
        )
        K = Generator(op=spin_rotation_op(spin_space), ell=1, indices=IndexPair(0, 0))
        wf = nz(2, spin_space, rng)
        assert np.abs(corollary1_obstruction(F, K, 0.0, wf.data)).max() <= 1e-10
