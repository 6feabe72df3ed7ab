"""Fixed-step time integration of i d_t psi = F(t) psi.

Every time, step and horizon here is in units of hbar: with t = hbar s the
law i hbar d_t psi = F psi reads i d_s psi = F psi, so no law carries hbar.
``scenario.evolution_config`` converts a scenario's absolute-time block.

A classical RK4 loop (no adaptivity: deterministic and reproducible at
desk scale) integrates states.  The evolution-scaling indices

    i d_t' a = p Re a + i q Im a      a(t, t) = 1,
    i d_t' b = q Re b + i p Im b      b(t, t) = 1,

which govern how E(t', t)(k phi) = k^(a, b) E(t', t) phi scales rescaled
initial data, obey real-linear laws, so their RK4 step is one fixed real
4x4 map (``rk4_affine_step``, which takes an affine law) applied to the
pair (a, b).  The logarithmic indices are recovered from the trajectory
by one-sided second-order differencing of a and b at t' = t.

States are marched a whole dt ladder and, in the separation test, all
particle levels at a time.  An RK4 step on a decoupled system is the step
on each part, so ``_march`` steps one copy of a stacked batch per step
size in one loop, and the separation test flattens its factor and product
levels into one stacked state of a hierarchy's ``direct_sum``.  A march
then costs the kernel calls of its finest step size alone, one per
generator and RK4 stage for a hierarchy built from generators, whatever
the number of states and levels.  Every batch entry and level evolves
exactly as it would alone, since a kernel's value on one batch entry does
not depend on the rest of the batch; a ZeroAmplitude in any entry ends
the march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import StepMismatch, ZeroAmplitude
from .hierarchy import Hierarchy
from .mixedpow import IndexPair, mixed_power, pair_action
from .opcalc import NonlinearOperator
from .space import sup_norms, tensor_data

# Desk-scale guarantee, as the flat-size cap: a march, or the index flow either
# way, may take at most this many steps.  The default dt takes 1000 and no
# check's ladder over 200.
MAX_STEPS = 100_000


@dataclass(frozen=True)
class EvolutionConfig:
    dt: float = 1e-3
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self.n_steps()

    def n_steps(self) -> int:
        span = self.t1 - self.t0
        steps = span / self.dt
        rounded = round(steps) if math.isfinite(steps) else 0  # round(inf) overflows
        if rounded < 1 or abs(steps - rounded) > 1e-9 * max(1.0, abs(steps)):
            raise StepMismatch(
                f"horizon {span} is not a positive integer multiple of dt={self.dt}"
            )
        if rounded > MAX_STEPS:
            raise StepMismatch(f"horizon {span} at dt={self.dt} takes {rounded} steps, "
                               f"above the step-count cap {MAX_STEPS}")
        return int(rounded)


def rk4_trajectory(rhs: Callable, y0, t0, dt, n_steps: int):
    """RK4 march of dy/dt = rhs(t, y) from y0 at t0; returns the final y.

    ``y`` may be anything closed under ``+`` and multiplication by a float,
    such as a state array with batch axes.  ``dt`` may be a float64 array
    that broadcasts against ``y``, one step size per batch entry; ``t0``
    and the times passed to ``rhs`` are then arrays as well.
    """
    y = y0
    t = t0
    half, sixth = dt / 2, dt / 6  # on a ladder each is an array operation
    for k in range(n_steps):
        mid = t + half
        k1 = rhs(t, y)
        k2 = rhs(mid, y + half * k1)
        k3 = rhs(mid, y + half * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        t = t0 + (k + 1) * dt
    return y


def _real4(c: complex, d: complex) -> list[float]:
    return [c.real, c.imag, d.real, d.imag]


def rk4_affine_step(linear: Callable, offset: tuple[complex, complex], dt: float) -> Callable:
    """One RK4 step of the autonomous affine law
    d/dt (c, d) = linear(c, d) + offset on a pair of complex numbers, as a
    fixed map on (Re c, Im c, Re d, Im d).

    ``linear`` must be real-linear.  Its real 4x4 matrix A is read off at
    (1, 0), (i, 0), (0, 1) and (0, i).  For y' = A y + b an RK4 step is
    exactly y <- R(M) y + dt S(M) b with M = dt A, S(M) = I + M (I/2 +
    M (I/6 + M/24)) and R(M) = I + M S(M), the stability polynomial of
    RK4; both are formed once here.  The returned step maps (c, d) to the
    next pair in 16 multiply-adds on Python floats, and agrees with
    ``rk4_trajectory``'s stages to round-off.
    """
    A = np.array([_real4(*linear(c, d))
                  for c, d in ((1, 0), (1j, 0), (0, 1), (0, 1j))]).T
    M = dt * A
    eye = np.eye(4)
    S = eye + M @ (eye / 2 + M @ (eye / 6 + M / 24))
    (r00, r01, r02, r03), (r10, r11, r12, r13), (r20, r21, r22, r23), (r30, r31, r32, r33) = \
        (eye + M @ S).tolist()
    s0, s1, s2, s3 = (dt * S @ _real4(*offset)).tolist()

    def step(c: complex, d: complex) -> tuple[complex, complex]:
        x0, x1, x2, x3 = c.real, c.imag, d.real, d.imag
        return (complex(r00 * x0 + r01 * x1 + r02 * x2 + r03 * x3 + s0,
                        r10 * x0 + r11 * x1 + r12 * x2 + r13 * x3 + s1),
                complex(r20 * x0 + r21 * x1 + r22 * x2 + r23 * x3 + s2,
                        r30 * x0 + r31 * x1 + r32 * x2 + r33 * x3 + s3))

    return step


def _march(
    F: NonlinearOperator, data: np.ndarray, cfgs: Sequence[EvolutionConfig]
) -> list[np.ndarray]:
    """RK4 march of i d_t psi = F(t) psi over a dt ladder: the final
    state of ``data`` at every cfg, in the order of ``cfgs``.

    ``data`` may carry trailing batch axes, whose entries evolve
    independently under the kernel contract.  F may be a hierarchy's
    ``direct_sum``, whose ``data`` stacks several particle levels row-wise,
    so one march steps every level.  A ladder of more than one
    cfg concatenates one copy of ``data`` per cfg on the last batch axis,
    finest dt first, steps them with a float64 step-size array on that
    axis, and slices a copy off when its cfg reaches its step count.
    numpy casts that array and a Python float to complex alike, so every
    entry ends bit for bit where a march at its cfg alone ends.  The
    operator then sees an array of times, so a ladder needs a
    time-independent F (and a batch axis); its cfgs share t0 and t1.
    """
    first = cfgs[0]
    if any((cfg.t0, cfg.t1) != (first.t0, first.t1) for cfg in cfgs):
        raise ValueError("the cfgs of a dt ladder must share t0 and t1")
    t0 = first.t0
    if len(cfgs) > 1 and (F.time_dependent or data.ndim == F.n):
        raise ValueError("a dt ladder needs a time-independent operator and a batch axis")

    def rhs(t, y):
        return -1j * F.apply(t, y)

    order = sorted(range(len(cfgs)), key=lambda i: cfgs[i].dt)
    width = data.shape[-1]
    y = np.concatenate([data] * len(cfgs), axis=-1)
    dt = np.repeat([cfgs[i].dt for i in order], width) if len(cfgs) > 1 else first.dt
    out, t, done = [None] * len(cfgs), t0, 0
    try:
        for m in range(len(cfgs), 0, -1):  # the coarsest cfg left is last and ends first
            steps = cfgs[order[m - 1]].n_steps()
            y = rk4_trajectory(rhs, y, t, dt, steps - done)
            keep = (m - 1) * width
            out[order[m - 1]], y = y[..., keep:], y[..., :keep]
            if keep:
                dt, done = dt[:keep], steps
                t = t0 + steps * dt
    except ZeroAmplitude as exc:
        raise ZeroAmplitude(f"trajectory left the nowhere-zero domain: {exc}") from exc
    return out


@dataclass(frozen=True)
class Separation:
    """Outcome of a batched separation march at one step size.

    ``gaps[k]`` is the factorisation gap of pair k; ``evolved`` holds the
    evolved first and second factors and ``psi12`` the evolved products,
    each with the pairs on the last axis.
    """

    gaps: list[float]
    evolved: tuple[np.ndarray, np.ndarray]
    psi12: np.ndarray


def separation_test(
    H: Hierarchy, phi1: np.ndarray, phi2: np.ndarray, cfgs: Sequence[EvolutionConfig]
) -> list[Separation]:
    """Evolve the first factors ``phi1``, the second factors ``phi2`` and
    their products over the dt ladder ``cfgs``; one ``Separation`` per cfg
    holds the factorisation gap sup |E(phi1) x E(phi2) - E(phi1 x phi2)| of
    each pair.

    The factors are stacked on one trailing batch axis, pair k in entry k.
    The three levels are flattened and stacked row-wise into one state, so
    one ``_march`` of ``H.direct_sum`` marches every level and pair at
    every step size.  For a separating (tensor-derivation) hierarchy a gap
    is pure time discretisation error, O(dt^4); a genuinely non-separating
    level keeps it bounded away from zero.
    """
    n1 = phi1.ndim - 1
    states = (phi1, phi2, tensor_data(phi1, phi2, n1))
    order = sorted(range(3), key=lambda k: states[k].ndim)  # levels in increasing order
    stacked = np.concatenate([states[k].reshape(-1, phi1.shape[-1]) for k in order])
    F = H.direct_sum([states[k].ndim - 1 for k in order])
    cuts = np.cumsum([states[k][..., 0].size for k in order])[:-1]
    runs = []
    for out in _march(F, stacked, cfgs):
        evolved = [None] * 3
        for k, block in zip(order, np.split(out, cuts)):
            evolved[k] = block.reshape(states[k].shape)
        psi1, psi2, psi12 = evolved
        runs.append(Separation(sup_norms(tensor_data(psi1, psi2, n1) - psi12), (psi1, psi2), psi12))
    return runs


def replaced_level_gaps(
    runs: Sequence[Separation],
    F: NonlinearOperator,
    phi2: np.ndarray,
    cfgs: Sequence[EvolutionConfig],
) -> list[list[float]]:
    """Factorisation gaps, per cfg, of the first pairs when their second
    factors ``phi2`` evolve under ``F`` in place of the hierarchy's level n2.

    ``runs`` is a ``separation_test`` over ``cfgs`` whose first
    ``phi2.shape[-1]`` second factors are ``phi2``.  Its first-factor and
    product marches are reused and only ``F`` is marched, so the gaps are
    those of ``separation_test`` on the hierarchy with level n2 replaced
    by ``F``, provided the first factors have another particle number
    than n2.
    """
    k = phi2.shape[-1]
    return [sup_norms(tensor_data(run.evolved[0][..., :k], psi2, run.evolved[0].ndim - 1)
                      - run.psi12[..., :k]) for run, psi2 in zip(runs, _march(F, phi2, cfgs))]


@dataclass(frozen=True)
class IndexTrajectory:
    """Evolution-scaling indices a(t', t), b(t', t) sampled every dt."""

    dt: float
    a: np.ndarray
    b: np.ndarray

    def final(self) -> IndexPair:
        return IndexPair(complex(self.a[-1]), complex(self.b[-1]))


def index_ode_solve(p: complex, q: complex, cfg: EvolutionConfig) -> IndexTrajectory:
    """Solve the scaling-index equations for constant indices (p, q) over
    the horizon of cfg, with a = b = 1 at cfg.t0.  The two laws are
    uncoupled, autonomous and real-linear, so (a, b) is marched as one
    pair of Python complex numbers by one ``rk4_affine_step`` map, keeping
    every step."""
    law_a, law_b = IndexPair(p, q), IndexPair(q, p)

    def linear(a, b):
        return -1j * pair_action(law_a, a), -1j * pair_action(law_b, b)

    step = rk4_affine_step(linear, (0j, 0j), cfg.dt)
    samples = [(1.0 + 0j, 1.0 + 0j)]
    for _ in range(cfg.n_steps()):
        samples.append(step(*samples[-1]))
    a, b = zip(*samples)
    return IndexTrajectory(cfg.dt, np.array(a), np.array(b))


def extract_indices(traj: IndexTrajectory) -> IndexPair:
    """Logarithmic indices p, q = i d_t' (a, b) at t' = t.

    Uses the second-order one-sided three-point difference, so the
    recovery error is O(dt^2).
    """
    if len(traj.a) < 3:
        raise ValueError("need at least three samples to extract indices")
    dt = traj.dt
    da = (-3 * traj.a[0] + 4 * traj.a[1] - traj.a[2]) / (2 * dt)
    db = (-3 * traj.b[0] + 4 * traj.b[1] - traj.b[2]) / (2 * dt)
    return IndexPair(1j * da, 1j * db)


def scaling_test(
    F: NonlinearOperator, data: np.ndarray, k: complex, cfgs: Sequence[EvolutionConfig]
) -> list[tuple[list[float], IndexTrajectory]]:
    """Gaps || E(k phi) - k^(a,b) E(phi) ||_inf of the states stacked in
    ``data`` over the dt ladder ``cfgs``, with (a, b) integrated alongside
    the state from the declared indices of F: per cfg, the gap of every
    batch entry and the index trajectory.  k phi and phi are marched as
    one batch."""
    k = complex(k)
    if k == 0:
        raise ValueError("scaling factor must be non-zero")
    if F.indices is None:
        raise ValueError("scaling test needs declared logarithmic indices")
    width = data.shape[-1]
    runs = []
    for cfg, out in zip(cfgs, _march(F, np.concatenate([k * data, data], axis=-1), cfgs)):
        traj = index_ode_solve(F.indices.a, F.indices.b, cfg)
        factor = mixed_power(k, traj.final())
        runs.append((sup_norms(out[..., :width] - factor * out[..., width:]), traj))
    return runs
