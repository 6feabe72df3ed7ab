"""The evolution checks: separation of product states and the scaling
indices of the evolution operator."""

from __future__ import annotations

import math

import numpy as np

from .checks import CheckContext, CheckResult, judge
from .evolution import (
    EvolutionConfig,
    extract_indices,
    replaced_level_gaps,
    scaling_test,
    separation_test,
)
from .hierarchy import Generator, Hierarchy
from .mixedpow import IndexPair
from .opcalc import op_combine
from .operators import (cross_ratio_op, lambda_op, log_modulus_op, nonseparating_op,
                        rms_log_modulus_op)
from .space import random_batch


def branch_margin(phi2: np.ndarray, coupling: float, cfg: EvolutionConfig) -> float:
    """pi less the largest |arg R| that the cross ratios R (refs (0, 0))
    of the two-particle states ``phi2`` reach over [t0, t1] (in units of
    hbar) under Lambda_2(1, 0) + c psi ln R, in closed form.

    R is 1 wherever a slot is the reference site, so at every site
    u = ln|R| and v = arg R obey u' = c v and v' = -(1 + c) u while
    |v| < pi, which gives v(t) = v0 cos wt - sqrt((1 + c) / c) u0 sin wt
    with w = sqrt(c (1 + c)).  |v| peaks at the endpoints or where
    wt = atan2(-sqrt((1 + c) / c) u0, v0) modulo pi, at the amplitude.
    """
    log_r = np.log(phi2 * phi2[:1, :1] / (phi2[:, :1] * phi2[:1, :]))
    v0, b = log_r.imag, -math.sqrt((1 + coupling) / coupling) * log_r.real
    span = math.sqrt(coupling * (1 + coupling)) * (cfg.t1 - cfg.t0)
    ends = np.maximum(np.abs(v0), np.abs(v0 * math.cos(span) + b * math.sin(span)))
    inside = np.mod(np.arctan2(b, v0), math.pi) <= span
    return math.pi - float(np.where(inside, np.hypot(v0, b), ends).max())


def check_separation_evolution(ctx: CheckContext) -> CheckResult:
    """Separation residual decays at fourth order for the canonical-lift
    hierarchy and plateaus for a non-separating perturbation."""
    space = ctx.space
    coupling = 0.25
    F1 = Generator(log_modulus_op(space, 1.0))
    G2 = Generator(cross_ratio_op(space, coupling=coupling))
    H = Hierarchy.from_generators([F1, G2], 3)
    # residual curves of single state pairs can sit near a cancellation of
    # the leading dt^4 coefficient; the batch sum has a robust one.  RK4's
    # order needs a smooth right-hand side, and the principal ln R is
    # smooth only while arg R stays off the cut: |arg phi| <= pi/4 keeps it
    # there (branch_margin > 0), for phi2 and for the product level, whose
    # cross ratios are phi2's or 1
    phi1, phi2 = random_batch((1, 2), space, [ctx.rng(k) for k in range(4)],
                              phase_cap=math.pi / 4)
    dts = [0.02, 0.01, 0.005]
    cfgs = [EvolutionConfig(dt=dt, t0=0.0, t1=0.5) for dt in dts]
    runs = separation_test(H, phi1, phi2, cfgs)
    residuals = [sum(run.gaps) for run in runs]
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    # the perturbed hierarchy differs from H at level 2 only: its level-1
    # and level-3 marches are those of the first pair in the runs above
    bad2 = op_combine([H.op(2), nonseparating_op(space, 2, 0.5)])
    plateau = [gaps[0] for gaps in replaced_level_gaps(runs[:2], bad2, phi2[..., :1], cfgs[:2])]
    # trajectory summary at the finest step: horizon and the evolved first pair
    fine = cfgs[-1]
    evolved = [float(np.abs(psi[..., 0]).max()) for psi in runs[-1].evolved]
    details = {
        "dts": dts,
        "times": [fine.t0, fine.t1],
        "residuals": residuals,
        "evolved_norms": evolved,
        "initial_norms": [float(np.abs(phi[..., 0]).max()) for phi in (phi1, phi2)],
    }
    return judge(ctx, {
        "ratios": ("band", ratios, (12.0, 20.0)),
        "plateau": ("floor", plateau, 1e-2),
        # two orders above how far RK4's stage states stray off the orbit
        # at dt = 0.02, which is O(dt^2)
        "branch_margin": ("floor", branch_margin(phi2, coupling, fine), 1e-2),
    }, details)


def check_scaling_indices(ctx: CheckContext) -> CheckResult:
    """Evolution-operator scaling against the index equations: fourth
    order in dt, with the closed form and index extraction recovered."""
    space = ctx.space
    rng = ctx.rng()
    p = 1.3
    F = lambda_op(IndexPair(p, p), 1, space)
    # the flow of Lambda(p, p) rotates ln psi, so |Im ln psi(t)| <= |ln psi(0)|;
    # |arg phi| <= pi/2 keeps |ln psi(0)| <= 1.98 < pi for phi and k phi, and so
    # both trajectories off the branch cut, where E(k phi) = k^(a,b) E(phi) holds
    [phi] = random_batch((1,), space, [rng], phase_cap=math.pi / 2)
    dts = [0.02, 0.01, 0.005]
    runs = scaling_test(F, phi, 1.4 + 0.3j, [EvolutionConfig(dt=dt, t0=0.0, t1=1.0) for dt in dts])
    residuals = [gaps[0] for gaps, _ in runs]
    trajs = [traj for _, traj in runs]
    ratios = [residuals[i] / residuals[i + 1] for i in range(len(residuals) - 1)]
    # the ladder's index laws at dt = 0.02 and 0.01 give the closed form and
    # the extraction, which recovers (p, q) at second order: halving the
    # step quarters the error
    closed = complex(math.cos(p), -math.sin(p))
    closed_err = abs(complex(trajs[1].a[-1]) - closed)
    extr_errs = []
    for traj in trajs[:2]:
        est = extract_indices(traj)
        extr_errs.append(max(abs(est.a - p), abs(est.b - p)))
    extr_ratio = extr_errs[0] / extr_errs[1] if extr_errs[1] > 0 else float("inf")
    # strictly homogeneous operator: scaling holds to round-off
    strict = rms_log_modulus_op(space, 0.8)
    [([strict_res], _)] = scaling_test(
        strict, phi, 0.7 - 0.4j, [EvolutionConfig(dt=0.01, t0=0.0, t1=0.5)])
    return judge(ctx, {
        "ratios": ("band", ratios, (12.0, 20.0)),
        "closed_form_error": ("bound", closed_err, 1e-8),
        "extraction_error": ("bound", extr_errs[1], 0.01**2),
        "extraction_ratio": ("band", extr_ratio, (3.0, 5.0)),
        "strict_scaling_residual": ("bound", strict_res, 1e-10),
    }, {"dts": dts, "scaling_residuals": residuals, "extraction_errors": extr_errs})


FAMILY = {
    "separation-evolution": check_separation_evolution,
    "scaling-indices": check_scaling_indices,
}
