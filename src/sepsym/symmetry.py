"""Symmetries of hierarchy evolutions.

Times are in units of hbar, as in ``evolution``, so no law carries hbar.
A finite symmetry acts as (V psi)(t) = V(t) psi(T(t)) with an affine time
map T; it solves the evolution equation

    d_t V(t) = i_bar F(t) V(t) - T'(t) DV(t) . i_bar F(T(t)),

where i_bar = -i must stay inside derivative directions because Frechet
derivatives here are only real-linear.  Infinitesimal symmetries K(t)
with time rate tau(t) satisfy

    d_t K(t) = [i_bar F(t), K(t)] - d_t ( tau(t) i_bar F(t) ),

and close under the bracket
    [K, L](t) = [K(t), L(t)] + tau_K d_t L(t) - tau_L d_t K(t),
    tau_[K,L] = tau_K tau_L' - tau_L tau_K'.

Point space-time generators on the periodic grid take the form

    K phi = sum_j ( i eta^(j) + (xi . grad_h)^(j) + (grad_h . xi)^(j)/2 ) phi,

whose lifting obstructions split into multiplication parts that vanish
exactly and a discrete-derivative part that vanishes at the O(h^2) rate
of the central difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import SpaceMismatch, StepMismatch
from .evolution import MAX_STEPS, EvolutionConfig, rk4_affine_step
from .hierarchy import Hierarchy, bracket_hierarchy
from .mixedpow import IndexPair, bracket_components, pair_bracket
from .opcalc import NonlinearOperator
from .operators import central_difference_op, diag_mult_op, lambda_op, linear_op, site_multiply
from .space import ConfigSpace, sup_norms

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


IDENTITY_TIME = AffineMap(1.0, 0.0)


@dataclass(frozen=True)
class FiniteSymmetry:
    """Hierarchy of operators V_n(t) together with the time map T."""

    levels: Hierarchy
    tmap: AffineMap = IDENTITY_TIME


@dataclass(frozen=True)
class InfinitesimalSymmetry:
    """Hierarchy of generators K_n(t) with the time-reparameterisation rate."""

    levels: Hierarchy
    tau: AffineMap = AffineMap(0.0, 0.0)


def _d_dt(fn: Callable[[float], np.ndarray], t: float) -> np.ndarray:
    """d/dt of an array-valued family of t: central difference at DT_SYM."""
    return (fn(t + DT_SYM) - fn(t - DT_SYM)) / (2 * DT_SYM)


def symmetry_residual(V: FiniteSymmetry, F: Hierarchy, t: float, data: np.ndarray) -> list[float]:
    """Defect of d_t V = i_bar F V - T' DV . i_bar F(T), per state
    stacked on ``data``'s trailing batch axis."""
    n = data.ndim - 1
    Vn = V.levels.op(n)
    Fn = F.op(n)
    # a static V has d_t V = 0 exactly
    dV = _d_dt(lambda s: Vn.apply(s, data), t) if Vn.time_dependent else 0.0
    Vphi = Vn.apply(t, data)
    drive = -1j * Fn.apply(V.tmap(t), data)
    resid = dV - (-1j) * Fn.apply(t, Vphi) + V.tmap.derivative * Vn.derivative(t, data, drive)
    return sup_norms(resid)


def inf_symmetry_residual(
    K: InfinitesimalSymmetry, F: Hierarchy, t: float, data: np.ndarray
) -> list[float]:
    """Defect of d_t K = [i_bar F, K] - d_t (tau i_bar F), per state
    stacked on ``data``'s trailing batch axis."""
    n = data.ndim - 1
    Kn = K.levels.op(n)
    Fn = F.op(n)
    dK = _d_dt(lambda s: Kn.apply(s, data), t) if Kn.time_dependent else 0.0
    Kphi = Kn.apply(t, data)
    Fphi = Fn.apply(t, data)
    # [i_bar F, K] = D(i_bar F).K - DK.(i_bar F); multiplication by -i is
    # complex-linear, so it factors out of DF but must stay inside DK's
    # direction (DK is only real-linear)
    bracket = -1j * Fn.derivative(t, data, Kphi) - Kn.derivative(t, data, -1j * Fphi)
    dtau = _d_dt(lambda s: K.tau(s) * (-1j) * Fn.apply(s, data), t)
    resid = dK - bracket + dtau
    return sup_norms(resid)


def inf_symmetry_bracket(K: InfinitesimalSymmetry, L: InfinitesimalSymmetry) -> InfinitesimalSymmetry:
    """Bracket [K, L]: the level-wise Lie bracket plus the rate terms
    tau_K d_t L - tau_L d_t K."""
    inner = bracket_hierarchy(K.levels, L.levels)

    def with_rates(n):
        Kn, Ln, br = K.levels.op(n), L.levels.op(n), inner.op(n)

        def rated(attr):
            # one kernel of br plus the rate terms of the same kernel of Ln, Kn
            def kernel(t, *arrays):
                out = getattr(br, attr)(t, *arrays)
                if Ln.time_dependent:
                    out += K.tau(t) * _d_dt(lambda s: getattr(Ln, attr)(s, *arrays), t)
                if Kn.time_dependent:
                    out -= L.tau(t) * _d_dt(lambda s: getattr(Kn, attr)(s, *arrays), t)
                return out

            return kernel

        deriv = rated("derivative") if br.derivative_fn is not None else None
        return replace(br, eval_fn=rated("apply"), derivative_fn=deriv, time_dependent=True)

    levels = Hierarchy(tuple(with_rates(n) for n in range(1, inner.n_max + 1)))
    tau = AffineMap(0.0, K.tau.beta * L.tau.alpha - L.tau.beta * K.tau.alpha)
    return InfinitesimalSymmetry(levels=levels, tau=tau)


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
    """Data of an infinitesimal point space-time symmetry: ``eta`` and
    ``xi`` map site positions to real arrays."""

    eta: Callable[[np.ndarray], np.ndarray] | None = None
    xi: Callable[[np.ndarray], np.ndarray] | None = None


def _tile_internal(space: ConfigSpace, site_values: np.ndarray) -> np.ndarray:
    if space.internal_size > 1:
        return np.tile(site_values, space.internal_size)
    return site_values


def point_symmetry_parts(spec: PointSymmetrySpec, space: ConfigSpace) -> dict[str, NonlinearOperator]:
    """Natural one-particle pieces of the generator: phase (i eta),
    mult ((grad.xi)/2) and drift (xi grad)."""
    if not space.grid:
        raise SpaceMismatch("point symmetries need a grid-ordered space")
    pos = space.positions()
    parts: dict[str, NonlinearOperator] = {}
    if spec.eta is not None:
        eta_vals = _tile_internal(space, np.asarray(spec.eta(pos), dtype=float))
        parts["phase"] = diag_mult_op(space, 1j * eta_vals, name="i*eta")
    if spec.xi is not None:
        xi_vals = np.asarray(spec.xi(pos), dtype=float)
        D = central_difference_op(space)
        div = D.apply(0.0, _tile_internal(space, xi_vals).astype(np.complex128))
        parts["mult"] = diag_mult_op(space, 0.5 * div, name="div(xi)/2")
        xi_full = _tile_internal(space, xi_vals)
        parts["drift"] = linear_op(
            space, 1, lambda t, data: site_multiply(xi_full, D.apply(t, data)), "xi*grad"
        )
    return parts


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

        d_t (c, d) = [(i_bar p, i_bar q), (c, d)] - d_t(tau (i_bar p, i_bar q))

    for constant evolution indices (p, q) and affine tau.  Returns a
    callable evaluating (c(t), d(t)).

    The law is real-affine in (c, d), so each step size has one
    ``rk4_affine_step`` map.  The flow keeps the RK4 nodes y(t0 + k dt)
    and y(t0 - k dt) it has reached, marching further on demand in the
    direction a call needs with the map of that signed step; an off-node
    time takes the map of its remainder, built once, from its nearest node
    (dense output).  Node k is bit for bit k applications of the map to
    the start, the value of a fresh k-step march from cfg.t0.  A time more
    than MAX_STEPS steps from cfg.t0 raises StepMismatch.
    """
    da, db = -1j * p, -1j * q  # the drive (i_bar p, i_bar q)

    def linear(c, d):  # [drive, (c, d)]
        return bracket_components(da, db, c, d)

    offset = (-tau.alpha * da, -tau.alpha * db)  # -tau' drive
    y0 = (start.a, start.b)
    # signed step -> (its step map, [y_0, y_1, ...]); remainder -> (its map, [])
    nodes = {dt: (rk4_affine_step(linear, offset, dt), [y0]) for dt in (cfg.dt, -cfg.dt)}

    def at(tt: float) -> IndexPair:
        span = tt - cfg.t0
        steps = span / cfg.dt
        if not abs(steps) < MAX_STEPS + 0.5:  # before the table grows; NaN and inf fail too
            raise StepMismatch(f"time {tt} is {abs(steps):.6g} steps of dt={cfg.dt} from "
                               f"t0={cfg.t0}, above the step-count cap {MAX_STEPS}")
        steps = int(round(steps))
        y = y0
        reached = cfg.t0
        if steps != 0:
            signed_dt = math.copysign(cfg.dt, span)
            step, table = nodes[signed_dt]
            for _ in range(len(table), abs(steps) + 1):
                table.append(step(*table[-1]))
            y = table[abs(steps)]
            reached = cfg.t0 + abs(steps) * signed_dt
        rem = tt - reached
        if abs(rem) > 1e-15:
            if rem not in nodes:  # central differences revisit each remainder
                nodes[rem] = (rk4_affine_step(linear, offset, rem), [])
            y = nodes[rem][0](*y)
        return IndexPair(*y)

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
        defect = dcd - rhs
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
    levels = Hierarchy(tuple(lambda_op(flow, n, space) for n in range(1, n_levels + 1)))
    return InfinitesimalSymmetry(levels=levels, tau=tau)
