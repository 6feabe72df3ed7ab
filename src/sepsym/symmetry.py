"""Symmetries of hierarchy evolutions.

A finite symmetry acts as (V psi)(t) = V(t) psi(T(t)) with an affine time
map T; it solves the evolution equation

    hbar d_t V(t) = i_bar F(t) V(t) - T'(t) DV(t) . i_bar F(T(t)),

where i_bar = -i must stay inside derivative directions because Frechet
derivatives here are only real-linear.  Infinitesimal symmetries K(t)
with time rate tau(t) satisfy

    hbar d_t K(t) = [i_bar F(t), K(t)] - d_t ( tau(t) i_bar F(t) ),

and close under the bracket
    [K, L](t) = [K(t), L(t)] + tau_K d_t L(t) - tau_L d_t K(t),
    tau_[K,L] = tau_K tau_L' - tau_L tau_K'.

Point space-time generators on the periodic grid take the form

    K(t) phi = sum_j ( i eta^(j) + (xi . grad_h)^(j) + (grad_h . xi)^(j)/2 ) phi
               + i (gamma(t), delta(t)) . ln phi  phi,

whose lifting obstructions split into multiplication parts that vanish
exactly and a discrete-derivative part that vanishes at the O(h^2) rate
of the central difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import BadRange
from .evolution import EvolutionConfig, rk4_trajectory
from .hierarchy import Generator, Hierarchy, lift_J
from .mixedpow import IndexPair, pair_bracket
from .obstruction import corollary1_obstruction, corollary1_report, corollary2_obstruction
from .opcalc import NonlinearOperator, lie_bracket, op_combine
from .operators import (
    central_difference_op,
    cross_ratio_op,
    diag_mult_op,
    lambda_op,
    site_multiply,
    spin_rms_log_op,
    spin_rotation_op,
    zero_op,
)
from .space import ConfigSpace, WaveFunction, random_state

# Central-difference step for d/dt of operator families V(t), K(t).
DT_SYM = 1e-4


@dataclass(frozen=True)
class AffineMap:
    """t -> alpha t + beta; the admissible class of time maps."""

    alpha: float = 1.0
    beta: float = 0.0

    def __call__(self, t: float) -> float:
        return self.alpha * t + self.beta

    @property
    def derivative(self) -> float:
        return self.alpha

    def inverse(self) -> "AffineMap":
        if self.alpha == 0:
            raise ValueError("non-invertible time map")
        return AffineMap(1.0 / self.alpha, -self.beta / self.alpha)

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """The map t -> self(inner(t))."""
        return AffineMap(self.alpha * inner.alpha, self.alpha * inner.beta + self.beta)


IDENTITY_TIME = AffineMap(1.0, 0.0)


@dataclass(frozen=True)
class FiniteSymmetry:
    """Hierarchy of operators V_n(t) together with the time map T."""

    levels: Mapping[int, NonlinearOperator]
    tmap: AffineMap = IDENTITY_TIME
    inverse_levels: Mapping[int, NonlinearOperator] | None = None

    def level(self, n: int) -> NonlinearOperator:
        if n not in self.levels:
            raise BadRange(f"symmetry has no level n={n}")
        return self.levels[n]


@dataclass(frozen=True)
class InfinitesimalSymmetry:
    """Hierarchy of generators K_n(t) with the time-reparameterisation rate."""

    levels: Mapping[int, NonlinearOperator]
    tau: AffineMap = AffineMap(0.0, 0.0)

    def level(self, n: int) -> NonlinearOperator:
        if n not in self.levels:
            raise BadRange(f"infinitesimal symmetry has no level n={n}")
        return self.levels[n]


def _time_derivative(op: NonlinearOperator, t: float, data: np.ndarray, dt_sym: float) -> np.ndarray:
    if not op.time_dependent:
        return np.zeros_like(data)
    return (op.apply(t + dt_sym, data) - op.apply(t - dt_sym, data)) / (2 * dt_sym)


def symmetry_residual(
    V: FiniteSymmetry,
    F: Hierarchy,
    t: float,
    phi: WaveFunction,
    dt_sym: float = DT_SYM,
) -> float:
    """Defect of the finite-symmetry evolution equation at one state."""
    n = phi.n
    Vn = V.level(n)
    Fn = F.op(n)
    data = phi.data
    hbar_dV = _time_derivative(Vn, t, data, dt_sym)  # hbar folded in below
    Vphi = Vn.apply(t, data)
    drive = -1j * Fn.apply(V.tmap(t), data)
    resid = (
        hbar_dV
        - (-1j) * Fn.apply(t, Vphi)
        + V.tmap.derivative * Vn.derivative(t, data, drive)
    )
    return float(np.abs(resid).max())


def inf_symmetry_residual(
    K: InfinitesimalSymmetry,
    F: Hierarchy,
    t: float,
    phi: WaveFunction,
    dt_sym: float = DT_SYM,
    hbar: float = 1.0,
) -> float:
    """Defect of hbar d_t K = [i_bar F, K] - d_t (tau i_bar F) at one state."""
    n = phi.n
    Kn = K.level(n)
    Fn = F.op(n)
    data = phi.data
    dK = _time_derivative(Kn, t, data, dt_sym)
    Kphi = Kn.apply(t, data)
    Fphi = Fn.apply(t, data)
    # [i_bar F, K] = D(i_bar F).K - DK.(i_bar F); multiplication by -i is
    # complex-linear, so it factors out of DF but must stay inside DK's
    # direction (DK is only real-linear)
    bracket = -1j * Fn.derivative(t, data, Kphi) - Kn.derivative(t, data, -1j * Fphi)

    def tau_drive(s: float) -> np.ndarray:
        return K.tau(s) * (-1j) * Fn.apply(s, data)

    dtau = (tau_drive(t + dt_sym) - tau_drive(t - dt_sym)) / (2 * dt_sym)
    resid = hbar * dK - bracket + dtau
    return float(np.abs(resid).max())


def inf_symmetry_bracket(
    K: InfinitesimalSymmetry,
    L: InfinitesimalSymmetry,
    dt_sym: float = DT_SYM,
) -> InfinitesimalSymmetry:
    """Bracket [K, L] of infinitesimal symmetries, level by level."""
    common = sorted(set(K.levels) & set(L.levels))
    levels: dict[int, NonlinearOperator] = {}
    for n in common:
        Kn, Ln = K.level(n), L.level(n)
        inner = lie_bracket(Kn, Ln)

        def ev(t, data, Kn=Kn, Ln=Ln, inner=inner):
            out = inner.apply(t, data)
            out += K.tau(t) * _time_derivative(Ln, t, data, dt_sym)
            out -= L.tau(t) * _time_derivative(Kn, t, data, dt_sym)
            return out

        deriv = None
        if inner.derivative_fn is not None:

            def deriv(t, data, eta, Kn=Kn, Ln=Ln, inner=inner):
                out = inner.derivative_fn(t, data, eta)
                if Ln.time_dependent:
                    out += (
                        K.tau(t)
                        * (
                            Ln.derivative(t + dt_sym, data, eta)
                            - Ln.derivative(t - dt_sym, data, eta)
                        )
                        / (2 * dt_sym)
                    )
                if Kn.time_dependent:
                    out -= (
                        L.tau(t)
                        * (
                            Kn.derivative(t + dt_sym, data, eta)
                            - Kn.derivative(t - dt_sym, data, eta)
                        )
                        / (2 * dt_sym)
                    )
                return out

        levels[n] = NonlinearOperator(
            n=n,
            space=Kn.space,
            eval_fn=ev,
            derivative_fn=deriv,
            indices=pair_bracket(Kn.indices, Ln.indices)
            if Kn.indices is not None and Ln.indices is not None
            else None,
            time_dependent=True,
            needs_nowhere_zero=Kn.needs_nowhere_zero or Ln.needs_nowhere_zero,
            name=f"[{Kn.name}, {Ln.name}]",
        )
    tau = AffineMap(0.0, K.tau.beta * L.tau.alpha - L.tau.beta * K.tau.alpha)
    return InfinitesimalSymmetry(levels=levels, tau=tau)


def compose_symmetries(V: FiniteSymmetry, W: FiniteSymmetry) -> FiniteSymmetry:
    """(V o W)(t) = V(t) o W(T_V(t));  T_{VoW} = T_W o T_V."""
    common = sorted(set(V.levels) & set(W.levels))
    levels: dict[int, NonlinearOperator] = {}
    for n in common:
        Vn, Wn = V.level(n), W.level(n)

        def ev(t, data, Vn=Vn, Wn=Wn):
            return Vn.apply(t, Wn.apply(V.tmap(t), data))

        deriv = None
        if Vn.derivative_fn is not None and Wn.derivative_fn is not None:

            def deriv(t, data, eta, Vn=Vn, Wn=Wn):
                s = V.tmap(t)
                return Vn.derivative(t, Wn.apply(s, data), Wn.derivative(s, data, eta))

        levels[n] = NonlinearOperator(
            n=n, space=Vn.space, eval_fn=ev, derivative_fn=deriv,
            time_dependent=True, name=f"{Vn.name} o {Wn.name}",
            needs_nowhere_zero=Vn.needs_nowhere_zero or Wn.needs_nowhere_zero,
        )
    return FiniteSymmetry(levels=levels, tmap=W.tmap.compose(V.tmap))


def invert_symmetry(V: FiniteSymmetry) -> FiniteSymmetry:
    """V^{-1}(t) = V(T_V^{-1}(t))^{-1} with the inverted time map."""
    if V.inverse_levels is None:
        raise ValueError("symmetry carries no inverse operators")
    tinv = V.tmap.inverse()
    levels: dict[int, NonlinearOperator] = {}
    for n, inv_op in V.inverse_levels.items():

        def ev(t, data, inv_op=inv_op):
            return inv_op.apply(tinv(t), data)

        deriv = None
        if inv_op.derivative_fn is not None:

            def deriv(t, data, eta, inv_op=inv_op):
                return inv_op.derivative(tinv(t), data, eta)

        levels[n] = NonlinearOperator(
            n=n, space=inv_op.space, eval_fn=ev, derivative_fn=deriv,
            time_dependent=True, name=f"{inv_op.name} (inverted clock)",
        )
    return FiniteSymmetry(levels=levels, tmap=tinv, inverse_levels=V.levels)


# ---------------------------------------------------------------------------
# point space-time generators on the periodic grid


def named_profile(
    name: str, amplitude: float = 1.0, phase: float = 0.0, offset: float = 0.0
) -> Callable[[np.ndarray], np.ndarray]:
    """Real site profiles usable for eta and xi: constant, linear, sine."""
    if name == "constant":
        return lambda pos: amplitude * np.ones_like(pos) + offset
    if name == "linear":
        return lambda pos: amplitude * (pos - math.pi) + offset
    if name == "sine":
        return lambda pos: amplitude * np.sin(pos + phase) + offset
    raise ValueError(f"unknown profile {name!r}")


@dataclass(frozen=True)
class PointSymmetrySpec:
    """Data of an infinitesimal point space-time symmetry.

    ``eta`` and ``xi`` map (t, site positions) to real arrays; gamma and
    delta are real functions of time feeding the index term
    i (gamma, delta) . ln phi  phi.
    """

    eta: Callable[[float, np.ndarray], np.ndarray] | None = None
    xi: Callable[[float, np.ndarray], np.ndarray] | None = None
    gamma: Callable[[float], float] | float = 0.0
    delta: Callable[[float], float] | float = 0.0
    tau: AffineMap = AffineMap(0.0, 0.0)
    time_dependent: bool = False

    def gamma_at(self, t: float) -> float:
        return self.gamma(t) if callable(self.gamma) else float(self.gamma)

    def delta_at(self, t: float) -> float:
        return self.delta(t) if callable(self.delta) else float(self.delta)

    def index_pair(self, t: float = 0.0) -> IndexPair:
        return IndexPair(1j * self.gamma_at(t), 1j * self.delta_at(t))


def _tile_internal(space: ConfigSpace, site_values: np.ndarray) -> np.ndarray:
    if space.internal_size > 1:
        return np.tile(site_values, space.internal_size)
    return site_values


def point_symmetry_parts(
    spec: PointSymmetrySpec, space: ConfigSpace, t_ref: float = 0.0
) -> dict[str, NonlinearOperator]:
    """One-particle pieces of the generator at a reference time:
    phase (i eta), mult ((grad.xi)/2), drift (xi grad), index (Lambda)."""
    if not space.grid:
        raise ValueError("point symmetries need a grid-ordered space")
    pos = space.positions()
    parts: dict[str, NonlinearOperator] = {}
    if spec.eta is not None:
        eta_vals = _tile_internal(space, np.asarray(spec.eta(t_ref, pos), dtype=float))
        parts["phase"] = diag_mult_op(space, 1j * eta_vals, name="i*eta")
    if spec.xi is not None:
        xi_vals = np.asarray(spec.xi(t_ref, pos), dtype=float)
        D = central_difference_op(space)
        div = D.apply(t_ref, _tile_internal(space, xi_vals).astype(np.complex128))
        parts["mult"] = diag_mult_op(space, 0.5 * div, name="div(xi)/2")
        def drift_only(t, data, xi_full=_tile_internal(space, xi_vals), D=D):
            return site_multiply(xi_full, D.apply(t, data))

        def drift_zero(t, data, u, v):
            return np.zeros_like(data)

        parts["drift"] = NonlinearOperator(
            n=1, space=space, eval_fn=drift_only,
            derivative_fn=lambda t, data, eta: drift_only(t, eta),
            second_derivative_fn=drift_zero, indices=parts["mult"].indices,
            name="xi*grad",
        )
    idx = spec.index_pair(t_ref)
    if not idx.is_zero() or spec.time_dependent:
        if spec.time_dependent and (callable(spec.gamma) or callable(spec.delta)):
            parts["index"] = lambda_op(lambda t: spec.index_pair(t), 1, space)
        elif not idx.is_zero():
            parts["index"] = lambda_op(idx, 1, space)
    return parts


def _point_level_at(spec: PointSymmetrySpec, n: int, space: ConfigSpace,
                    t_ref: float) -> NonlinearOperator:
    parts = point_symmetry_parts(spec, space, t_ref=t_ref)
    summands: list[NonlinearOperator] = []
    one_particle = [parts[k] for k in ("phase", "mult", "drift") if k in parts]
    if one_particle:
        base = op_combine(one_particle, name="point-generator")
        if n == 1:
            summands.append(base)
        else:
            summands.extend(lift_J(base, (j,), n) for j in range(n))
    if "index" in parts:
        idx_op = parts["index"]
        summands.append(idx_op if n == 1 else replace(idx_op, n=n))
    if not summands:
        return zero_op(space, n)
    return op_combine(summands, name=f"point-symmetry_{n}")


def point_symmetry_level(
    spec: PointSymmetrySpec, n: int, space: ConfigSpace
) -> NonlinearOperator:
    """The n-particle generator: slot sums of the one-particle pieces plus
    one copy of the index term (the canonical-lift combination).

    Time-dependent specs rebuild their site fields at every evaluation
    time; static ones are assembled once.
    """
    if not spec.time_dependent:
        return _point_level_at(spec, n, space, 0.0)

    def ev(t, data):
        return _point_level_at(spec, n, space, t).apply(t, data)

    def deriv(t, data, eta):
        return _point_level_at(spec, n, space, t).derivative(t, data, eta)

    return NonlinearOperator(
        n=n, space=space, eval_fn=ev, derivative_fn=deriv,
        time_dependent=True,
        needs_nowhere_zero=spec.gamma_at(0.0) != 0.0 or spec.delta_at(0.0) != 0.0
        or callable(spec.gamma) or callable(spec.delta),
        name=f"point-symmetry_{n}(t)",
    )


def point_symmetry_generator(
    spec: PointSymmetrySpec, space: ConfigSpace, n_levels: int
) -> InfinitesimalSymmetry:
    levels = {
        n: point_symmetry_level(spec, n, space) for n in range(1, n_levels + 1)
    }
    return InfinitesimalSymmetry(levels=levels, tau=spec.tau)


# ---------------------------------------------------------------------------
# harnesses


def freelift_report(
    gen_factory: Callable[[ConfigSpace], Generator],
    spec: PointSymmetrySpec,
    grid_sizes: Sequence[int],
    seed: int = 0,
    batch_size: int = 4,
    with_cross_ratio: bool = True,
    t: float = 0.0,
) -> dict:
    """Obstruction ladder for point space-time generators.

    For each grid: splits the symmetry generator into its multiplication
    parts (phase i*eta and div(xi)/2, which must vanish to round-off) and
    the discrete-derivative drift part (which must decay O(h^2) on smooth
    states), for both the two-particle lifting obstruction and, when
    requested, the added-generator obstruction against the cross-ratio
    family.
    """
    grids = [int(g) for g in grid_sizes]
    out: dict = {
        "grids": grids,
        "c1": {"phase": [], "mult": [], "drift": [], "full": []},
        "c2": {"phase": [], "mult": [], "drift": []},
    }
    for gsize in grids:
        space = ConfigSpace(gsize, grid=True)
        F = gen_factory(space)
        parts = point_symmetry_parts(spec, space, t_ref=t)
        # one seed per state index, *not* per grid: the band-limited sampler
        # draws its mode coefficients before touching the grid, so the same
        # seed refines one underlying function across the ladder
        states2 = [
            random_state(2, space, np.random.default_rng((seed, i)), nowhere_zero=True, smooth=True)
            for i in range(batch_size)
        ]
        part_ops = {k: parts[k] for k in ("phase", "mult", "drift") if k in parts}
        full = op_combine(list(part_ops.values()), name="point-natural")
        for label, op in {**part_ops, "full": full}.items():
            Kgen = Generator(op=op, ell=1, indices=IndexPair(0, 0))
            worst = max(
                float(np.abs(corollary1_obstruction(F, Kgen, t, wf.data)).max())
                for wf in states2
            )
            out["c1"][label].append(worst)
        if with_cross_ratio:
            G = Generator(op=cross_ratio_op(space), ell=2, indices=IndexPair(0, 0))
            states3 = [
                random_state(3, space, np.random.default_rng((seed, 100 + i)), nowhere_zero=True, smooth=True)
                for i in range(max(2, batch_size // 2))
            ]
            for label, op in part_ops.items():
                Kgen = Generator(op=op, ell=1, indices=IndexPair(0, 0))
                worst = max(
                    float(np.abs(corollary2_obstruction(G, Kgen, t, wf.data)).max())
                    for wf in states3
                )
                out["c2"][label].append(worst)
    for key in ("c1", "c2"):
        drift = out[key]["drift"]
        out[key]["drift_ratios"] = [
            drift[i] / drift[i + 1] if drift[i + 1] > 0 else float("inf")
            for i in range(len(drift) - 1)
        ]
    return out


def internal_dof_report(
    grid_size: int = 8,
    coupling: float = 1.0,
    seed: int = 0,
    batch_size: int = 16,
    t: float = 0.0,
) -> dict:
    """Spin counterexample: a spin-coupled non-linearity against the spin
    rotation generator.  The two-particle obstruction norm is reported,
    together with its stability under reseeding (generic states) and grid
    refinement (smooth states sampling one underlying function)."""
    def build(gsize: int) -> tuple[Generator, Generator]:
        space = ConfigSpace(2 * gsize, factors=(2, gsize), grid=True)
        F = Generator(op=spin_rms_log_op(space, coupling), ell=1, indices=IndexPair(0, 0))
        K = Generator(op=spin_rotation_op(space), ell=1, indices=IndexPair(0, 0))
        return F, K

    def smooth_field_mean(F: Generator, K: Generator, size: int) -> float:
        # a Riemann mean of the obstruction field of one continuum state,
        # the statistic that genuinely converges under refinement
        states = [
            random_state(
                2, F.op.space, np.random.default_rng((seed, i)),
                nowhere_zero=True, smooth=True,
            )
            for i in range(size)
        ]
        return float(
            np.mean(
                [np.abs(corollary1_obstruction(F, K, t, wf.data)).mean() for wf in states]
            )
        )

    F, K = build(grid_size)
    base = corollary1_report(F, K, t=t, seed=seed, batch_size=batch_size)
    reseed = corollary1_report(F, K, t=t, seed=seed + 1, batch_size=batch_size)
    F2, K2 = build(2 * grid_size)
    nsmooth = max(4, batch_size // 2)
    smooth_base = smooth_field_mean(F, K, nsmooth)
    smooth_refined = smooth_field_mean(F2, K2, nsmooth)

    def batch_mean(rep_seed: int) -> float:
        rng = np.random.default_rng(rep_seed)
        states = [
            random_state(2, F.op.space, rng, nowhere_zero=True)
            for _ in range(batch_size)
        ]
        return float(
            np.mean(
                [np.abs(corollary1_obstruction(F, K, t, wf.data)).max() for wf in states]
            )
        )

    mean_base, mean_reseed = batch_mean(seed), batch_mean(seed + 1)
    return {
        "report": base,
        "norm": base.rhs_norm,
        "reseeded_norm": reseed.rhs_norm,
        "mean_norm": mean_base,
        "reseeded_mean_norm": mean_reseed,
        "smooth_field_mean": smooth_base,
        "refined_norm": smooth_refined,
        "reseed_ratio": mean_reseed / mean_base if mean_base else float("inf"),
        "refine_ratio": smooth_refined / smooth_base if smooth_base else float("inf"),
    }


# ---------------------------------------------------------------------------
# index evolution along symmetries


def index_flow(
    p: complex,
    q: complex,
    tau: AffineMap,
    start: IndexPair,
    cfg: EvolutionConfig,
) -> Callable[[float], IndexPair]:
    """Dense solution of the symmetry-index evolution

        hbar d_t (c, d) = [(i_bar p, i_bar q), (c, d)] - d_t(tau (i_bar p, i_bar q))

    for constant evolution indices (p, q) and affine tau.  Returns a
    callable evaluating (c(t), d(t)).

    The flow keeps the RK4 nodes y(t0 + k dt) and y(t0 - k dt) it has
    reached, marching further on demand in the direction a call needs; an
    off-node time takes one partial step from its nearest node (dense
    output).  The right-hand side does not depend on t, so node k is bit
    for bit the value of a fresh k-step march from cfg.t0.
    """
    drive = IndexPair(-1j * p, -1j * q)

    def rhs(t, y):
        cd = IndexPair(y[0], y[1])
        br = pair_bracket(drive, cd)
        return np.array(
            [
                (br.a - tau.alpha * drive.a) / cfg.hbar,
                (br.b - tau.alpha * drive.b) / cfg.hbar,
            ]
        )

    y0 = np.array([start.a, start.b], dtype=np.complex128)
    nodes = {cfg.dt: [y0], -cfg.dt: [y0]}  # signed step -> [y_0, y_1, ...]

    def at(tt: float) -> IndexPair:
        span = tt - cfg.t0
        steps = int(round(span / cfg.dt))
        y = y0
        reached = cfg.t0
        if steps != 0:
            signed_dt = math.copysign(cfg.dt, span)
            table = nodes[signed_dt]
            if len(table) <= abs(steps):
                _, _, samples = rk4_trajectory(
                    rhs, table[-1], cfg.t0 + (len(table) - 1) * signed_dt, signed_dt,
                    abs(steps) - len(table) + 1, keep_samples=True,
                )
                table.extend(samples[1:])
            y = table[abs(steps)]
            reached = cfg.t0 + abs(steps) * signed_dt
        rem = tt - reached
        if abs(rem) > 1e-15:
            y, _, _ = rk4_trajectory(rhs, y, reached, rem, 1)
        return IndexPair(complex(y[0]), complex(y[1]))

    return at


def index_law_residual(
    p: complex,
    q: complex,
    tau: AffineMap,
    start: IndexPair,
    cfg: EvolutionConfig,
) -> float:
    """Central-difference defect of the index evolution law along the
    solved trajectory; O(dt^2) in the sampling step."""
    flow = index_flow(p, q, tau, start, cfg)
    drive = IndexPair(-1j * p, -1j * q)
    steps = cfg.n_steps()
    worst = 0.0
    for k in range(1, steps):
        tm, tt, tp = (cfg.t0 + (k + d) * cfg.dt for d in (-1, 0, 1))
        before, here, after = flow(tm), flow(tt), flow(tp)
        dcd = IndexPair(
            (after.a - before.a) / (2 * cfg.dt), (after.b - before.b) / (2 * cfg.dt)
        )
        rhs = pair_bracket(drive, here) - tau.alpha * drive
        defect = cfg.hbar * dcd - rhs
        worst = max(worst, abs(defect.a), abs(defect.b))
    return worst


def lambda_index_symmetry(
    p: complex,
    q: complex,
    tau: AffineMap,
    start: IndexPair,
    cfg: EvolutionConfig,
    space: ConfigSpace,
    n_levels: int,
) -> InfinitesimalSymmetry:
    """The index-carrying symmetry K(t) = Lambda(c(t), d(t)) of the
    Lambda(p, q) hierarchy, with (c, d) transported by the index law."""
    flow = index_flow(p, q, tau, start, cfg)
    levels = {
        n: lambda_op(lambda t: flow(t), n, space) for n in range(1, n_levels + 1)
    }
    return InfinitesimalSymmetry(levels=levels, tau=tau)
