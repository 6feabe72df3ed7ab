"""The algebra checks: the mixed-power algebra and the Euler identities of
the operator calculus."""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import mixedpow as mp
from .checks import CheckContext, CheckResult, finish, judge
from .mixedpow import IndexPair
from .opcalc import euler_log_residual, euler_power_residual
from .operators import cross_ratio_op, lambda_op, log_modulus_op, rms_log_modulus_op
from .space import ConfigSpace, random_batch, random_state, sup_norms


def check_algebra_table(ctx: CheckContext) -> CheckResult:
    """Products of +-E, +-B, +-I, +-J against the generator table."""
    worst = 0.0
    names = ["E", "B", "I", "J"]
    products = dict(mp.GENERATOR_TABLE)
    for n in names:
        products[("E", n)] = (1, n)
        products[(n, "E")] = (1, n)
    closure_ok = True
    for (n1, s1), (n2, s2) in itertools.product(
        itertools.product(names, (1, -1)), repeat=2
    ):
        p = s1 * mp.GENERATORS[n1]
        q = s2 * mp.GENERATORS[n2]
        sign, target = products[(n1, n2)]
        expect = (s1 * s2 * sign) * mp.GENERATORS[target]
        got = mp.pair_product(p, q)
        worst = max(worst, abs(got.a - expect.a), abs(got.b - expect.b))
        in_set = any(
            got.close_to(s * mp.GENERATORS[n], 1e-12)
            for s in (1, -1)
            for n in names
        )
        closure_ok = closure_ok and in_set
    details = {"products_checked": 64, "group_closure": closure_ok}
    residual = worst if closure_ok else float("inf")
    return finish(ctx, residual, details)


def check_algebra_brackets(ctx: CheckContext) -> CheckResult:
    """sl(2,R) commutators of B, I, J plus the Jacobi identity."""
    worst = 0.0
    for p, q, expect in [(mp.B, mp.I, -2 * mp.J), (mp.I, mp.J, -2 * mp.B), (mp.J, mp.B, 2 * mp.I)]:
        got = mp.pair_bracket(p, q)
        worst = max(worst, abs(got.a - expect.a), abs(got.b - expect.b))
    trials = 200
    # one row per trial: the components (pa, pb, qa, qb, ra, rb), drawn in
    # the order of one standard_normal(2) call per component
    comps = ctx.rng().standard_normal((trials, 12)).view(complex).T
    p, q, r = comps[0:2], comps[2:4], comps[4:6]
    (a1, b1), (a2, b2), (a3, b3) = (
        mp.bracket_components(*x, *mp.bracket_components(*y, *w))
        for x, y, w in ((p, q, r), (q, r, p), (r, p, q))
    )
    scale = np.maximum(1.0, np.abs(comps).max(axis=0))
    jacobi = np.maximum(np.abs(a1 + a2 + a3), np.abs(b1 + b2 + b3)) / scale**2
    worst = max(worst, float(jacobi.max()))
    return finish(ctx, worst, {"jacobi_triples": trials})


def check_matrix_rep(ctx: CheckContext) -> CheckResult:
    """matrix_components is a product homomorphism with det = Re(a conj b)."""
    trials = 1000
    # one row per trial: p = (pa, pb), q = (qa, qb) and a base z
    pa, pb, qa, qb, z = ctx.rng().standard_normal((trials, 10)).view(complex).T
    pq = mp.product_components(pa, pb, qa, qb)
    rep_p = mp.matrix_components(pa, pb)
    rhs = rep_p @ mp.matrix_components(qa, qb)
    scale = np.maximum(1.0, np.abs(rhs).max(axis=(-2, -1)))
    hom = np.abs(mp.matrix_components(*pq) - rhs).max(axis=(-2, -1))
    det = np.abs(np.linalg.det(rep_p) - (pa * pb.conj()).real)
    act = np.abs(mp.action_components(pa, pb, mp.action_components(qa, qb, z))
                 - mp.action_components(*pq, z)) / np.maximum(1.0, np.abs(z))
    worst = float(np.max(np.maximum(np.maximum(hom, det), act) / scale))
    return finish(ctx, worst, {"pairs": trials})


def check_mixed_power_identities(ctx: CheckContext) -> CheckResult:
    """Composition, product, and logarithm identities on the safe region.

    Bases are kept at |arg z| < pi/4 and indices moderate so no branch
    crossing can occur (the composition law only holds as a germ at 1).
    """
    trials = 300
    # one row per trial: ln r, arg z, then Re and Im of pa, pb, qa, qb
    low = np.array([-0.5, -math.pi / 4] + [-1.0] * 8)
    u = ctx.rng().uniform(low, -low, (trials, 10))
    z = np.exp(u[:, 0]) * (np.cos(u[:, 1]) + 1j * np.sin(u[:, 1]))
    pa, pb, qa, qb = u[:, 2:].view(complex).T
    zp, zq = mp.power_components(z, pa, pb), mp.power_components(z, qa, qb)
    # a trial whose inner power leaves the right half-plane is skipped
    keep = np.abs(np.angle(zq)) <= math.pi / 2
    direct = mp.power_components(z, *mp.product_components(pa, pb, qa, qb))
    comp = np.abs(mp.power_components(zq, pa, pb) - direct) / np.maximum(1.0, np.abs(direct))
    summed = mp.power_components(z, pa + qa, pb + qb)
    prod = np.abs(zp * zq - summed) / np.maximum(1.0, np.abs(summed))
    ln = np.abs(np.log(zp) - mp.action_components(pa, pb, np.log(z)))
    worst = float(np.max(np.maximum(np.maximum(comp, prod), ln), where=keep, initial=0.0))
    return finish(ctx, worst, {"samples": trials})


def _euler_cases(space: ConfigSpace):
    lam = lambda_op(IndexPair(0.7 + 0.2j, 0.4 - 0.3j), 1, space)
    return [
        ("lambda", lam, lam.indices, "log"),
        ("log-modulus", log_modulus_op(space, 1.0), IndexPair(1.0, 0.0), "log"),
        ("cross-ratio", cross_ratio_op(space, coupling=0.8), IndexPair(1.0, 1.0), "pow"),
        ("rms-log-modulus", rms_log_modulus_op(space, 0.9), IndexPair(0.0, 0.0), "log"),
    ]


def check_euler_identities(ctx: CheckContext) -> CheckResult:
    """Homogeneity Euler identities with closed forms, plus the quadratic
    convergence of the finite-difference route (Richardson ratio near 4).

    Along the scaling direction eta*phi a strictly homogeneous operator
    is exactly affine in the step, so its Euler residual has no quadratic
    term; for those cases the ratio is taken on the finite-difference
    derivative error in a generic direction instead, and the case's
    ``fd_euler_ratio`` is null.

    phi is drawn with |arg| <= pi/6, so a cross ratio, which sums four
    arguments, stays within 2 pi/3 of the positive axis: the stencils,
    which move an argument by under 1e-2, never straddle the principal
    log's cut, where a central difference divides a 2 pi jump by 2h.
    """
    space = ctx.space
    rng = ctx.rng()
    fd_floor = 1e-11
    band = (3.5, 4.5)
    h0 = 1e-3
    criteria = {}
    details: dict = {"cases": {}}
    for label, op, idx, kind in _euler_cases(space):
        [phi] = random_batch((op.n,), space, [rng], phase_cap=math.pi / 6)
        euler = euler_log_residual if kind == "log" else euler_power_residual
        worst = max(max(euler(op, phi, eta, indices=idx)) for eta in (1.0, 1j, 0.8 - 0.6j))
        criteria[f"{label}.closed_residual"] = ("bound", worst, 1e-10)
        r1, r2 = (max(euler(op, phi, 0.8 - 0.6j, indices=idx, fd_step=h))
                  for h in (h0, h0 / 2))
        if r2 > fd_floor:
            euler_ratio = r1 / r2
            criteria[f"{label}.fd_euler_ratio"] = ("band", euler_ratio, band)
        else:
            # affine in the step: exact to round-off, where r1 / r2 would be
            # a ratio of two round-off values, so no ratio is reported
            euler_ratio = None
            criteria[f"{label}.fd_euler_residual"] = ("bound", r1, fd_floor)
        # generic-direction convergence of the finite-difference derivative
        probe = random_state(op.n, space, rng)[..., None]
        closed = op.derivative(phi, probe)
        e1, e2 = (max(sup_norms(op.derivative(phi, probe, fd_step=h) - closed))
                  for h in (h0, h0 / 2))
        dir_ratio = e1 / e2 if e2 > 0 else float("inf")
        criteria[f"{label}.fd_derivative_ratio"] = ("band", dir_ratio, band)
        details["cases"][label] = {
            "closed_residual": worst,
            "fd_euler_residual": r1,
            "fd_euler_ratio": euler_ratio,
            "fd_derivative_ratio": dir_ratio,
        }
    return judge(ctx, criteria, details)


FAMILY = {
    "algebra-table": check_algebra_table,
    "algebra-brackets": check_algebra_brackets,
    "matrix-rep-homomorphism": check_matrix_rep,
    "mixed-power-identities": check_mixed_power_identities,
    "euler-identities": check_euler_identities,
}
