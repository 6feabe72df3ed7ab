"""Symmetry-lifting obstructions.

For generators F (l-particle) and G (m-particle), l <= m < n, the defect
between bracketing the canonical lifts and lifting the bracket is

    [F#_n, G#_n] - [F#_m, G]#_n = sum_K sum_{J not subset K} [F^{nat J}, G^{nat K}],

with J running over increasing l-tuples, K over m-tuples of {1..n} and
"nat" the strictly homogeneous natural part.  The right-hand side is the
obstruction: it vanishes iff the one-sided lifts commute at every level,
and it degenerates to zero whenever both natural parts are real-linear.
Two specialisations of this one double sum cover the common cases: the
two-particle obstruction for lifting a one-particle symmetry is the sum
at (l, m, n) = (1, 1, 2), and the (l+1)-particle obstruction met when a
fresh l-particle generator G is added to the evolution is minus the sum
at (1, l, l+1) with the symmetry in the first slot.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BadRange
from .hierarchy import MAX_PARTICLES, Generator, canonical_lift, lift_J, natural_part
from .opcalc import NonlinearOperator, lie_bracket
from .space import random_state, tensor


def natural_generator_op(gen: Generator) -> NonlinearOperator:
    """Natural part of a generator: strips Lambda at one particle, is the
    generator itself above (where strict homogeneity already holds)."""
    if gen.ell == 1:
        return natural_part(gen.op)
    return gen.op


def _check_range(ell: int, m: int, n: int) -> None:
    if not 1 <= ell <= m < n <= MAX_PARTICLES:
        raise BadRange(
            f"need 1 <= l <= m < n <= {MAX_PARTICLES}, got (l, m, n) = ({ell}, {m}, {n})"
        )


def obstruction_rhs(
    F: Generator, G: Generator, n: int, t: float, data: np.ndarray
) -> np.ndarray:
    """sum_K sum_{J not subset K} [F^{nat J}, G^{nat K}] applied to a state.

    The only loop over slot tuples (J outer, K inner); both corollary
    obstructions below call it.
    """
    _check_range(F.ell, G.ell, n)
    Fnat = natural_generator_op(F)
    Gnat = natural_generator_op(G)
    lifts_F = {
        J: lift_J(Fnat, J, n) for J in itertools.combinations(range(n), F.ell)
    }
    lifts_G = {
        K: lift_J(Gnat, K, n) for K in itertools.combinations(range(n), G.ell)
    }
    vals_G = {K: op.apply(t, data) for K, op in lifts_G.items()}
    acc = np.zeros_like(data)
    for J, Fop in lifts_F.items():
        val_F = Fop.apply(t, data)  # used in this pass only: one alive at a time
        for K, Gop in lifts_G.items():
            if set(J) <= set(K):
                continue
            acc += Fop.derivative(t, data, vals_G[K])
            acc -= Gop.derivative(t, data, val_F)
    return acc


def bracket_generator(F: Generator, G: Generator, verify: bool = False, seed: int = 0) -> Generator:
    """[F#_m, G] as an m-particle generator.

    The bracket of the lifted derivations has threshold at least m, so
    its m-th level is a legitimate generator; with ``verify`` this is
    spot-checked numerically (strict homogeneity above one particle via
    vanishing, to 1e-8 relative, on a seeded product state at t = 0).
    Its indices are the index bracket that ``lie_bracket`` forms from the
    operands' declared indices; the lift of F declares F's exactly.
    """
    m = G.ell
    H = lie_bracket(canonical_lift(F, m), G.op)
    if verify and m > 1:
        rng = np.random.default_rng(seed)
        parts = [
            random_state(1, F.op.space, rng, nowhere_zero=True, phase_cap=np.pi / 4)
            for _ in range(m)
        ]
        prod = parts[0]
        for p in parts[1:]:
            prod = tensor(prod, p)
        defect = float(np.abs(H.apply(0.0, prod.data)).max())
        if defect > 1e-8 * max(1.0, prod.norm_inf()):
            raise BadRange(
                f"[F#_m, G] fails to vanish on products (defect {defect:.3e}); "
                "not a legitimate generator"
            )
    return Generator(H)


def obstruction_lhs(
    F: Generator,
    G: Generator,
    n: int,
    t: float,
    data: np.ndarray,
    bracket_gen: Generator | None = None,
) -> np.ndarray:
    """[F#_n, G#_n] phi - ([F#_m, G]#)_n phi."""
    _check_range(F.ell, G.ell, n)
    Fn = canonical_lift(F, n)
    Gn = canonical_lift(G, n)
    term1 = Fn.derivative(t, data, Gn.apply(t, data)) - Gn.derivative(
        t, data, Fn.apply(t, data)
    )
    H = bracket_gen if bracket_gen is not None else bracket_generator(F, G)
    term2 = canonical_lift(H, n).apply(t, data)
    return term1 - term2


def corollary1_obstruction(
    F: Generator, K: Generator, t: float, data: np.ndarray
) -> np.ndarray:
    """Two-particle defect [F^nat(1), K^nat(2)] + [F^nat(2), K^nat(1)]:
    the double sum at (l, m, n) = (1, 1, 2)."""
    if F.ell != 1 or K.ell != 1:
        raise BadRange("the two-particle obstruction takes one-particle generators")
    return obstruction_rhs(F, K, 2, t, data)


def corollary2_obstruction(
    G: Generator, K: Generator, t: float, data: np.ndarray
) -> np.ndarray:
    """(l+1)-particle defect sum_j [G^{comp(j)}, K^nat(j)] for a fresh
    l-particle generator G against a lifted one-particle symmetry K: the
    double sum at (1, l, l+1) with the bracket's operands swapped."""
    if G.ell < 2:
        raise BadRange("corollary2 needs a generator above one particle")
    if K.ell != 1:
        raise BadRange("corollary2 lifts a one-particle symmetry generator")
    return -obstruction_rhs(K, G, G.ell + 1, t, data)

