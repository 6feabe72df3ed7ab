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
from .hierarchy import Generator, canonical_lift, check_obstruction_range, lift_J, natural_part
from .opcalc import lie_bracket
from .space import random_batch, sup_norms, tensor_all


def _family(gens) -> list:
    return gens if isinstance(gens, list) else [gens]


def obstruction_rhs(F, G, n: int, t: float, data: np.ndarray):
    """sum_K sum_{J not subset K} [F^{nat J}, G^{nat K}] applied to a state.

    Either side may be a family, a list of same-level generators: the call
    returns one array per entry.  Each lift is linearised once, at its first
    use, for its value and its tangent map, and freed after its last; the
    other side's lifts serve the whole family.  The only loop over slot
    tuples (J outer, family entries, K inner); both corollaries call it.
    """
    Fs, Gs = _family(F), _family(G)
    if min(len(Fs), len(Gs)) > 1 or len({g.ell for g in Fs}) > 1 or len({g.ell for g in Gs}) > 1:
        raise BadRange("a family of generators takes one side and one particle level")
    check_obstruction_range(Fs[0].ell, Gs[0].ell, n)
    Js = list(itertools.combinations(range(n), Fs[0].ell))
    Ks = list(itertools.combinations(range(n), Gs[0].ell))
    lifts = {(side, e, S): lift_J(op, S, n)  # keyed (side, family entry, slot tuple)
             for side, gens, tuples in (("F", Fs, Js), ("G", Gs, Ks))
             for e, op in enumerate(map(natural_part, gens)) for S in tuples}
    size = max(len(Fs), len(Gs))
    terms = [(i, ("F", i % len(Fs), J), ("G", i % len(Gs), K))
             for J in Js for i in range(size) for K in Ks if not set(J) <= set(K)]
    last = {key: k for k, (_, *keys) in enumerate(terms) for key in keys}
    lin, accs = {}, [np.zeros_like(data) for _ in range(size)]  # lin: key -> (value, tangent)
    for k, (i, fk, gk) in enumerate(terms):
        for key in (fk, gk):
            if key not in lin:
                lin[key] = lifts[key].linearize(t, data)
        accs[i] += lin[fk][1](lin[gk][0])
        accs[i] -= lin[gk][1](lin[fk][0])
        for key in (fk, gk):
            if last[key] == k:
                del lin[key]
    return accs if isinstance(F, list) or isinstance(G, list) else accs[0]


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
        prod = tensor_all(random_batch((1,) * m, F.op.space, [seed], phase_cap=np.pi / 4))
        defect = max(sup_norms(H.apply(0.0, prod)))
        if defect > 1e-8 * max(1.0, *sup_norms(prod)):
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
    check_obstruction_range(F.ell, G.ell, n)
    term1 = lie_bracket(canonical_lift(F, n), canonical_lift(G, n)).apply(t, data)
    H = bracket_gen if bracket_gen is not None else bracket_generator(F, G)
    term2 = canonical_lift(H, n).apply(t, data)
    return term1 - term2


def corollary1_obstruction(F: Generator, K, t: float, data: np.ndarray):
    """Two-particle defect [F^nat(1), K^nat(2)] + [F^nat(2), K^nat(1)]:
    the double sum at (l, m, n) = (1, 1, 2), whose range admits only
    one-particle generators.  ``K`` may be a family."""
    return obstruction_rhs(F, K, 2, t, data)


def corollary2_obstruction(G: Generator, K, t: float, data: np.ndarray):
    """(l+1)-particle defect sum_j [G^{comp(j)}, K^nat(j)] for a fresh
    l-particle generator G against a lifted one-particle symmetry K: the
    double sum at (1, l, l+1) with the bracket's operands swapped.  ``K``
    may be a family."""
    if G.ell < 2:
        raise BadRange("corollary2 needs a generator above one particle")
    if any(k.ell != 1 for k in _family(K)):
        raise BadRange("corollary2 lifts a one-particle symmetry generator")
    out = obstruction_rhs(K, G, G.ell + 1, t, data)
    for arr in _family(out):
        np.negative(arr, out=arr)
    return out
