"""Fixed-step time integration of i hbar d_t psi = F(t) psi.

A classical RK4 loop (no adaptivity: deterministic and reproducible at
desk scale) integrates states, and the same RK4 stages, on a pair of
Python complex numbers, integrate the evolution-scaling indices

    i hbar d_t' a = p Re a + i q Im a      a(t, t) = 1,
    i hbar d_t' b = q Re b + i p Im b      b(t, t) = 1,

which govern how E(t', t)(k phi) = k^(a, b) E(t', t) phi scales rescaled
initial data.  The logarithmic indices are recovered from the trajectory
by one-sided second-order differencing of a and b at t' = t.

The separation test marches a batch of state pairs at once: the factors
and their tensor products sit on a trailing batch axis (the kernel
contract of ``NonlinearOperator``), so each particle level takes one RK4
march per step size whatever the number of pairs.  Every batch entry
evolves exactly as it would alone; a ZeroAmplitude in any entry ends the
whole march.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepMismatch, ZeroAmplitude
from .hierarchy import Hierarchy
from .mixedpow import IndexPair, mixed_power, pair_action
from .opcalc import NonlinearOperator
from .space import WaveFunction, tensor_data


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 1e-3
    t0: float = 0.0
    t1: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.dt <= 0 or self.hbar <= 0:
            raise ValueError("dt and hbar must be positive")
        self.n_steps()

    def n_steps(self) -> int:
        span = self.t1 - self.t0
        steps = span / self.dt
        rounded = round(steps)
        if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
            raise StepMismatch(
                f"horizon {span} is not a positive integer multiple of dt={self.dt}"
            )
        return int(rounded)


def rk4_trajectory(rhs: Callable, y0, t0: float, dt: float, n_steps: int):
    """RK4 march of dy/dt = rhs(t, y) from y0 at t0; returns the final y.

    ``y`` may be anything closed under ``+`` and multiplication by a float,
    such as a state array with batch axes.
    """
    y = y0
    t = t0
    for k in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + (dt / 2) * k1)
        k3 = rhs(t + dt / 2, y + (dt / 2) * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t0 + (k + 1) * dt
    return y


def rk4_pair_step(rhs: Callable, c: complex, d: complex, dt: float) -> tuple[complex, complex]:
    """One RK4 step of the autonomous law d/dt (c, d) = rhs(c, d) on two
    Python complex numbers: ``rk4_trajectory``'s stages, term for term,
    without the cost of a 2-entry array per stage."""
    k1c, k1d = rhs(c, d)
    k2c, k2d = rhs(c + (dt / 2) * k1c, d + (dt / 2) * k1d)
    k3c, k3d = rhs(c + (dt / 2) * k2c, d + (dt / 2) * k2d)
    k4c, k4d = rhs(c + dt * k3c, d + dt * k3d)
    return (c + (dt / 6) * (k1c + 2 * k2c + 2 * k3c + k4c),
            d + (dt / 6) * (k1d + 2 * k2d + 2 * k3d + k4d))


def _march(F: NonlinearOperator, data: np.ndarray, cfg: EvolutionConfig) -> np.ndarray:
    """RK4 march of i hbar d_t psi = F(t) psi over the horizon of cfg.

    ``data`` may carry trailing batch axes: under the kernel contract every
    batch entry evolves independently in the one march.
    """
    hbar = cfg.hbar

    def rhs(t, y):
        return (-1j / hbar) * F.apply(t, y)

    try:
        out = rk4_trajectory(rhs, data, cfg.t0, cfg.dt, cfg.n_steps())
    except ZeroAmplitude as exc:
        raise ZeroAmplitude(f"trajectory left the nowhere-zero domain: {exc}") from exc
    return out


def evolve(F: NonlinearOperator, phi0: WaveFunction, cfg: EvolutionConfig) -> WaveFunction:
    """Integrate i hbar d_t psi = F(t) psi from cfg.t0 to cfg.t1."""
    return phi0.with_data(_march(F, phi0.data, cfg))


@dataclass(frozen=True)
class Separation:
    """Outcome of one batched separation march.

    ``gaps[k]`` is the factorisation gap of pair k; ``evolved`` holds the
    evolved first and second factors and ``psi12`` the evolved products,
    each with the pairs on the last axis.
    """

    gaps: list[float]
    evolved: tuple[np.ndarray, np.ndarray]
    psi12: np.ndarray


def _gaps(psi1: np.ndarray, psi2: np.ndarray, psi12: np.ndarray, n1: int) -> list[float]:
    gap = np.abs(tensor_data(psi1, psi2, n1) - psi12).max(axis=tuple(range(psi12.ndim - 1)))
    return [float(g) for g in gap]


def separation_test(
    H: Hierarchy,
    pairs: Sequence[tuple[WaveFunction, WaveFunction]],
    cfg: EvolutionConfig,
) -> Separation:
    """Evolve the factors of every pair and their products; return the
    factorisation gap sup |E(phi1) x E(phi2) - E(phi1 x phi2)| of each pair.

    Each level marches all pairs at once along a trailing batch axis.  For
    a separating (tensor-derivation) hierarchy a gap is pure time
    discretisation error, O(dt^4); a genuinely non-separating level keeps
    it bounded away from zero.
    """
    n1, n2 = pairs[0][0].n, pairs[0][1].n
    phi1 = np.stack([p1.data for p1, _ in pairs], axis=-1)
    phi2 = np.stack([p2.data for _, p2 in pairs], axis=-1)
    psi1 = _march(H.op(n1), phi1, cfg)
    psi2 = _march(H.op(n2), phi2, cfg)
    psi12 = _march(H.op(n1 + n2), tensor_data(phi1, phi2, n1), cfg)
    return Separation(_gaps(psi1, psi2, psi12, n1), (psi1, psi2), psi12)


def replaced_level_gaps(
    run: Separation,
    F: NonlinearOperator,
    pairs: Sequence[tuple[WaveFunction, WaveFunction]],
    cfg: EvolutionConfig,
) -> list[float]:
    """Factorisation gaps of ``pairs`` when the second factors evolve under
    ``F`` in place of the hierarchy's level n2.

    ``run`` is a ``separation_test`` at the same ``cfg`` whose first
    ``len(pairs)`` pairs are ``pairs``.  Its first-factor and product
    marches are reused and only ``F`` is marched, so the gaps are those of
    ``separation_test`` on the hierarchy with level n2 replaced by ``F``,
    provided the first factors have another particle number than n2.
    """
    k = len(pairs)
    phi2 = np.stack([p2.data for _, p2 in pairs], axis=-1)
    psi1 = run.evolved[0][..., :k]
    return _gaps(psi1, _march(F, phi2, cfg), run.psi12[..., :k], psi1.ndim - 1)


@dataclass(frozen=True)
class IndexTrajectory:
    """Evolution-scaling indices a(t', t), b(t', t) sampled every dt."""

    dt: float
    a: np.ndarray
    b: np.ndarray
    hbar: float

    def final(self) -> IndexPair:
        return IndexPair(complex(self.a[-1]), complex(self.b[-1]))


def index_ode_solve(p: complex, q: complex, cfg: EvolutionConfig) -> IndexTrajectory:
    """Solve the scaling-index equations for constant indices (p, q) over
    the horizon of cfg, with a = b = 1 at cfg.t0.  The two laws are
    uncoupled and autonomous, so (a, b) is marched as one pair of Python
    complex numbers by ``rk4_pair_step``, keeping every step."""
    hbar = cfg.hbar
    law_a, law_b = IndexPair(p, q), IndexPair(q, p)

    def rhs(a, b):
        return -1j / hbar * pair_action(law_a, a), -1j / hbar * pair_action(law_b, b)

    samples = [(1.0 + 0j, 1.0 + 0j)]
    for _ in range(cfg.n_steps()):
        samples.append(rk4_pair_step(rhs, *samples[-1], cfg.dt))
    a, b = zip(*samples)
    return IndexTrajectory(cfg.dt, np.array(a), np.array(b), hbar)


def extract_indices(traj: IndexTrajectory) -> IndexPair:
    """Logarithmic indices p, q = i hbar d_t' (a, b) at t' = t.

    Uses the second-order one-sided three-point difference, so the
    recovery error is O(dt^2).
    """
    if len(traj.a) < 3:
        raise ValueError("need at least three samples to extract indices")
    dt = traj.dt
    da = (-3 * traj.a[0] + 4 * traj.a[1] - traj.a[2]) / (2 * dt)
    db = (-3 * traj.b[0] + 4 * traj.b[1] - traj.b[2]) / (2 * dt)
    return IndexPair(1j * traj.hbar * da, 1j * traj.hbar * db)


def scaling_test(
    F: NonlinearOperator, phi0: WaveFunction, k: complex, cfg: EvolutionConfig
) -> float:
    """Gap || E(k phi) - k^(a,b) E(phi) ||_inf with (a, b) integrated
    alongside the state from the declared indices of F.  k phi and phi
    are marched as one batch of two."""
    k = complex(k)
    if k == 0:
        raise ValueError("scaling factor must be non-zero")
    if F.indices is None:
        raise ValueError("scaling test needs declared logarithmic indices")
    traj = index_ode_solve(F.indices.a, F.indices.b, cfg)
    factor = mixed_power(k, traj.final())
    out = _march(F, np.stack([k * phi0.data, phi0.data], axis=-1), cfg)
    return float(np.abs(out[..., 0] - factor * out[..., 1]).max())
