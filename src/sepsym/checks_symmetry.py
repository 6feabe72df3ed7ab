"""The symmetry checks: index transport along symmetries, exact lattice
shifts and the bracket of infinitesimal symmetries."""

from __future__ import annotations

from .checks import CheckContext, CheckResult, finish, judge
from .evolution import EvolutionConfig
from .hierarchy import Generator, Hierarchy
from .mixedpow import IndexPair
from .operators import lambda_op, log_modulus_op, shift_all_op
from .space import random_batch
from .symmetry import (
    AffineMap,
    FiniteSymmetry,
    IDENTITY_TIME,
    index_law_residual,
    inf_symmetry_bracket,
    inf_symmetry_residual,
    lambda_index_symmetry,
    symmetry_residual,
)


def check_index_evolution(ctx: CheckContext) -> CheckResult:
    """The index-transported Lambda symmetry solves the symmetry equation,
    and its indices satisfy the index evolution law at second order."""
    space = ctx.space
    rng = ctx.rng()
    p, q = 1.1, 0.6
    tau = AffineMap(0.5, 0.2)
    start = IndexPair(0.9, 0.4)
    cfg = ctx.evolution
    H = Hierarchy.from_generators([Generator(lambda_op(IndexPair(p, q), 1, space))], 2)
    K = lambda_index_symmetry(p, q, tau, start, cfg, space, 2)
    # one two-particle state per time
    times = (0.21, 0.5, 0.83)
    worst_sym = max(
        max(inf_symmetry_residual(K, H, t, data))
        for t, data in zip(times, random_batch((2,) * len(times), space, [rng]))
    )
    law_cfg = EvolutionConfig(dt=0.02, t0=0.0, t1=1.0)
    law = index_law_residual(p, q, tau, start, law_cfg)
    return judge(ctx, {
        "symmetry_residual": ("bound", worst_sym, 1e-6),
        "index_law_residual": ("bound", law, law_cfg.dt**2),
    }, {})


def check_lattice_shift(ctx: CheckContext) -> CheckResult:
    """Exact cyclic translations commute with translation-invariant
    non-linear hierarchies to round-off."""
    space = ctx.space
    F1 = Generator(log_modulus_op(space, 1.0))
    H = Hierarchy.from_generators([F1], 3)
    V = FiniteSymmetry(
        levels=Hierarchy(tuple(shift_all_op(space, n, 2) for n in (1, 2, 3))),
        tmap=IDENTITY_TIME,
    )
    worst = max(
        max(symmetry_residual(V, H, 0.3, data))
        for n in (1, 2, 3) for data in random_batch((n,), space, [ctx.rng(n)])
    )
    return finish(ctx, worst, {"shift": 2, "grid_size": space.grid_size})


def check_symmetry_bracket(ctx: CheckContext) -> CheckResult:
    """The bracket of two infinitesimal symmetries is again one, with the
    time-rate bracket tau_K tau_L' - tau_L tau_K'."""
    space = ctx.space
    rng = ctx.rng()
    p, q = 0.9, 0.5
    cfg = ctx.evolution
    H = Hierarchy.from_generators([Generator(lambda_op(IndexPair(p, q), 1, space))], 2)
    K = lambda_index_symmetry(p, q, AffineMap(0.0, 1.0), IndexPair(0.8, 0.3), cfg, space, 2)
    L = lambda_index_symmetry(p, q, AffineMap(1.0, 0.0), IndexPair(0.2, 0.7), cfg, space, 2)
    M = inf_symmetry_bracket(K, L)
    tau_expected = K.tau.beta * L.tau.alpha - L.tau.beta * K.tau.alpha
    tau_err = abs(M.tau.beta - tau_expected) + abs(M.tau.alpha)
    # one two-particle state per time
    times = (0.3, 0.7)
    worst = max(
        max(inf_symmetry_residual(M, H, t, data))
        for t, data in zip(times, random_batch((2,) * len(times), space, [rng]))
    )
    return judge(ctx, {
        "bracket_residual": ("bound", worst, 2e-5),
        "tau_error": ("bound", tau_err, 1e-12),
    }, {})


FAMILY = {
    "index-evolution": check_index_evolution,
    "lattice-shift-symmetry": check_lattice_shift,
    "symmetry-bracket-closure": check_symmetry_bracket,
}
