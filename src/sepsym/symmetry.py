"""Symmetries of hierarchy evolutions.

Times are in units of hbar, as in ``evolution``, so no law carries hbar.
The evolution law i d_t psi = F(psi) is autonomous; time lives in the
symmetries alone.  A symmetry's ``level`` is a family (t, n) -> n-particle
operator; a residual builds only the level it judges and takes its d/dt by
a central difference (exactly zero for a family that ignores t).

A finite symmetry acts as (V psi)(t) = V(t) psi(T(t)) with an affine time
map T; it solves the evolution equation

    d_t V(t) = i_bar F V(t) - T'(t) DV(t) . i_bar F,

where i_bar = -i must stay inside derivative directions because Frechet
derivatives here are only real-linear.  Infinitesimal symmetries K(t)
with time rate tau(t) satisfy

    d_t K(t) = [i_bar F, K(t)] - d_t ( tau(t) i_bar F ),

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

from .errors import SpaceMismatch
from .evolution import EvolutionConfig, pair_flow
from .hierarchy import Hierarchy
from .mixedpow import IndexPair, bracket_components, pair_bracket
from .opcalc import NonlinearOperator, lie_bracket
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


@dataclass(frozen=True)
class FiniteSymmetry:
    """Family (t, n) -> n-particle operator V_n(t), with the time map T."""

    level: Callable[[float, int], NonlinearOperator]
    tmap: AffineMap = AffineMap()


@dataclass(frozen=True)
class InfinitesimalSymmetry:
    """Family (t, n) -> n-particle generator K_n(t), with the
    time-reparameterisation rate."""

    level: Callable[[float, int], NonlinearOperator]
    tau: AffineMap = AffineMap(0.0, 0.0)


def _d_dt(fn: Callable[[float], np.ndarray], t: float) -> np.ndarray:
    """d/dt of an array-valued family of t: central difference at DT_SYM."""
    return (fn(t + DT_SYM) - fn(t - DT_SYM)) / (2 * DT_SYM)


def _level(sym, F: Hierarchy, t: float, n: int) -> NonlinearOperator:
    """Level n of ``sym`` at t; SpaceMismatch unless it is an n-particle
    operator on F's space."""
    op = sym.level(t, n)
    if op.n != n or op.space != F.space:
        raise SpaceMismatch(f"level {n} operator has n={op.n} or another space")
    return op


def symmetry_residual(V: FiniteSymmetry, F: Hierarchy, t: float, data: np.ndarray) -> list[float]:
    """Defect of d_t V = i_bar F V - T' DV . i_bar F, per state
    stacked on ``data``'s trailing batch axis."""
    n = data.ndim - 1
    Fn = F.op(n)
    Vn = _level(V, F, t, n)
    dV = _d_dt(lambda s: V.level(s, n).apply(data), t)
    Vphi = Vn.apply(data)
    drive = -1j * Fn.apply(data)
    resid = dV - (-1j) * Fn.apply(Vphi) + V.tmap.alpha * Vn.derivative(data, drive)
    return sup_norms(resid)


def inf_symmetry_residual(
    K: InfinitesimalSymmetry, F: Hierarchy, t: float, data: np.ndarray
) -> list[float]:
    """Defect of d_t K = [i_bar F, K] - d_t (tau i_bar F), per state
    stacked on ``data``'s trailing batch axis."""
    n = data.ndim - 1
    Fn = F.op(n)
    Kn = _level(K, F, t, n)
    dK = _d_dt(lambda s: K.level(s, n).apply(data), t)
    Kphi = Kn.apply(data)
    Fphi = Fn.apply(data)
    # [i_bar F, K] = D(i_bar F).K - DK.(i_bar F); multiplication by -i is
    # complex-linear, so it factors out of DF but must stay inside DK's
    # direction (DK is only real-linear)
    bracket = -1j * Fn.derivative(data, Kphi) - Kn.derivative(data, -1j * Fphi)
    dtau = _d_dt(lambda s: K.tau(s) * (-1j) * Fphi, t)
    resid = dK - bracket + dtau
    return sup_norms(resid)


def inf_symmetry_bracket(K: InfinitesimalSymmetry, L: InfinitesimalSymmetry) -> InfinitesimalSymmetry:
    """Bracket [K, L]: at each (t, n), the Lie bracket of K_n(t) and
    L_n(t) plus the rate terms tau_K d_t L_n - tau_L d_t K_n."""

    def level(t: float, n: int) -> NonlinearOperator:
        br = lie_bracket(K.level(t, n), L.level(t, n))

        def rated(attr):
            # one kernel of br plus the rate terms of the same kernel of L, K
            def rate(sym, arrays):
                return _d_dt(lambda s: getattr(sym.level(s, n), attr)(*arrays), t)

            def kernel(*arrays):
                out = getattr(br, attr)(*arrays)
                out += K.tau(t) * rate(L, arrays)
                out -= L.tau(t) * rate(K, arrays)
                return out

            return kernel

        deriv = rated("derivative") if br.derivative_fn is not None else None
        return replace(br, eval_fn=rated("apply"), derivative_fn=deriv)

    tau = AffineMap(0.0, K.tau.beta * L.tau.alpha - L.tau.beta * K.tau.alpha)
    return InfinitesimalSymmetry(level=level, tau=tau)


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
        div = D.apply(_tile_internal(space, xi_vals).astype(np.complex128))
        parts["mult"] = diag_mult_op(space, 0.5 * div, name="div(xi)/2")
        xi_full = _tile_internal(space, xi_vals)
        parts["drift"] = linear_op(
            space, 1, lambda data: site_multiply(xi_full, D.apply(data)), "xi*grad"
        )
    return parts


# ---------------------------------------------------------------------------
# index evolution along symmetries


def index_flow(p: complex, q: complex, tau: AffineMap, start: IndexPair,
               cfg: EvolutionConfig) -> Callable[[float], IndexPair]:
    """Dense solution of the symmetry-index evolution

        d_t (c, d) = [(i_bar p, i_bar q), (c, d)] - d_t(tau (i_bar p, i_bar q))

    for constant evolution indices (p, q) and affine tau, from ``start``
    at cfg.t0.  Returns a callable evaluating (c(t), d(t)): the law is
    real-affine in (c, d), so ``pair_flow`` solves it on its node table.
    """
    da, db = -1j * p, -1j * q  # the drive (i_bar p, i_bar q)

    def linear(c, d):  # [drive, (c, d)]
        return bracket_components(da, db, c, d)

    return pair_flow(linear, (-tau.alpha * da, -tau.alpha * db), start, cfg)  # -tau' drive


def index_law_residual(p: complex, q: complex, tau: AffineMap, start: IndexPair,
                       cfg: EvolutionConfig) -> float:
    """Central-difference defect of the index evolution law along the
    solved trajectory; O(dt^2) in the sampling step."""
    flow = index_flow(p, q, tau, start, cfg)
    drive = IndexPair(-1j * p, -1j * q)
    steps = cfg.n_steps()
    worst = 0.0
    for k in range(1, steps):
        tm, tt, tp = (cfg.t0 + (k + d) * cfg.dt for d in (-1, 0, 1))
        before, here, after = flow(tm), flow(tt), flow(tp)
        dcd = IndexPair((after.a - before.a) / (2 * cfg.dt), (after.b - before.b) / (2 * cfg.dt))
        rhs = pair_bracket(drive, here) - tau.alpha * drive
        defect = dcd - rhs
        worst = max(worst, abs(defect.a), abs(defect.b))
    return worst


def lambda_index_symmetry(p: complex, q: complex, tau: AffineMap, start: IndexPair,
                          cfg: EvolutionConfig, space: ConfigSpace) -> InfinitesimalSymmetry:
    """The index-carrying symmetry K(t) = Lambda(c(t), d(t)) of the
    Lambda(p, q) hierarchy, with (c, d) transported by the index law:
    ``level(t, n)`` solves the flow once and builds Lambda_n of its
    indices."""
    flow = index_flow(p, q, tau, start, cfg)
    return InfinitesimalSymmetry(level=lambda t, n: lambda_op(flow(t), n, space), tau=tau)
