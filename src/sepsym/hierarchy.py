"""Liftings, canonical liftings, and the canonical decomposition.

A lifting F^J applies an l-particle operator to the slots named by the
strictly increasing tuple J while every other slot rides along as a
parameter.  Canonical liftings extend generators to tensor derivations
(Goldin and Svetlichny):

  g#_n = sum_J N^J + Lambda_n,  J over increasing l-tuples of {1..n},

with N = g - Lambda(p, q) the natural part of a threshold-l generator g.
Lambda is zero above one particle, where g#_n = sum_J g^J; a one-particle
g with indices (p, q) gives g#_n phi = sum_j g^(j) phi - (n - 1)
((p,q) . ln phi) phi.

A lifting and a canonical lifting each make one kernel call per
evaluation: the slot permutations of all tuples J ride on one trailing
batch axis, and the slices are permuted back and added in tuple order.
The one exception is g = Lambda(p, q) itself, as ``lambda_op`` marks it:
N is zero, so the lift is the pointwise Lambda_n, one evaluation in place
of n + 1.

The canonical decomposition inverts this: d_1 F lifts the first level,
and each further threshold lifts what the lower thresholds fail to
explain.  The d_j are idempotent and recover exactly the generators a
derivation was built from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import BadRange, BadTuple, NotDerivation, SpaceMismatch
from .mixedpow import IndexPair, ZERO_PAIR
from .opcalc import NonlinearOperator, estimate_log_indices, lie_bracket, op_combine
from .operators import lambda_op, zero_op
from .space import ConfigSpace, check_index_tuple, random_batch, sup_norms, tensor_all

DERIVATION_TOL = 1e-8

# desk-scale truncation: obstruction analysis needs levels up to m + l = 4,
# and nothing new appears above that in hierarchies or obstruction sums
MAX_PARTICLES = 4


@dataclass(frozen=True)
class Generator:
    """Threshold data for a tensor derivation: an ell-particle operator.

    The threshold ell is the operator's particle number and the indices
    are the ones it declares.  At ell = 1 the operator must be
    mixed-logarithmic homogeneous and declare its indices; at ell > 1 it
    must be strictly homogeneous (declaring (0, 0) or nothing) and vanish
    on tensor products.
    """

    op: NonlinearOperator

    def __post_init__(self):
        if self.ell == 1 and self.indices is None:
            raise ValueError("a one-particle generator must declare its logarithmic indices")
        if self.ell > 1 and self.indices is not None and not self.indices.is_zero():
            raise ValueError("generators above one particle must be strictly homogeneous")

    @property
    def ell(self) -> int:
        return self.op.n

    @property
    def indices(self) -> IndexPair | None:
        return self.op.indices


def _slot_sum(
    op: NonlinearOperator, Js: Sequence[tuple[int, ...]], m: int, name: str
) -> NonlinearOperator:
    """sum_J F^J over the l-tuples ``Js`` of an l-slot operator at m slots.

    Each tuple's slot permutation (J in front, every other slot behind it
    in order) and its inverse are fixed here.  At call time the permuted
    copies of each argument ride on a new trailing batch axis, behind any
    batch axes the arrays carry, so one kernel call evaluates every tuple
    with all other variables held as parameters; the slices are then
    transposed back and added in tuple order.  A single tuple passes its
    transposed view without a copy; a linearisation permutes its state once.
    """
    perms = [J + tuple(ax for ax in range(m) if ax not in J) for J in Js]
    inverses = [tuple(int(ax) for ax in np.argsort(p)) for p in perms]

    def stack(a):
        batch = tuple(range(m, a.ndim))
        views = [a.transpose(p + batch)[..., None] for p in perms]
        return views[0] if len(views) == 1 else np.concatenate(views, axis=-1)

    def unstack(out):
        batch = tuple(range(m, out.ndim - 1))
        total = out[..., 0].transpose(inverses[0] + batch)
        for k, inv in enumerate(inverses[1:], start=1):
            total = total + out[..., k].transpose(inv + batch)
        return total

    def lifted(fn):
        if fn is None:
            return None
        return lambda t, *arrays: unstack(fn(t, *map(stack, arrays)))

    def linearize(t, data):
        value, tangent = op.linearize(t, stack(data))
        return unstack(value), lambda eta: unstack(tangent(stack(eta)))

    return NonlinearOperator(
        n=m, space=op.space, eval_fn=lifted(op.eval_fn),
        derivative_fn=lifted(op.derivative_fn),
        second_derivative_fn=lifted(op.second_derivative_fn),
        linearize_fn=None if op.derivative_fn is None else linearize,
        indices=None if op.indices is None else len(Js) * op.indices,
        time_dependent=op.time_dependent, name=name,
    )


def lift_J(op: NonlinearOperator, J: Sequence[int], m: int) -> NonlinearOperator:
    """Lifting F^J of an l-particle operator to m particles, slots 0-based."""
    J = check_index_tuple(J, m, length=op.n)
    if m < op.n:
        raise BadTuple(f"cannot lift an {op.n}-particle operator to {m} slots")
    if m == op.n:
        return op  # the identity lifting
    return _slot_sum(op, [J], m, f"{op.name}^{J}")


def canonical_lift(gen: Generator, n: int) -> NonlinearOperator:
    """Canonical lifting F#_n = sum_J N^J + Lambda_n of a threshold-l
    generator to n particles, J over the increasing l-tuples of {1..n}.

    N = F - Lambda is the natural part, and Lambda is zero above one
    particle, so there the lift is sum_J F^J.  A one-particle lift is
    computed as sum_j F^(j) - (n - 1) Lambda_n; when F was built as Lambda
    of its declared indices (``pointwise_lambda``), N is zero and the lift
    is the pointwise Lambda_n.
    """
    if n < gen.ell:
        raise BadRange(f"cannot lift a threshold-{gen.ell} generator to n={n}")
    if n == gen.ell:
        return gen.op  # the single tuple J = (0, ..., l-1)
    name = f"{gen.op.name}#_{n}"
    # an l > 1 generator may declare no indices: None == None is no Lambda
    if gen.op.pointwise_lambda is not None and gen.op.pointwise_lambda == gen.indices:
        return lambda_op(gen.indices, n, gen.op.space).renamed(name)
    lifted = _slot_sum(gen.op, list(itertools.combinations(range(n), gen.ell)), n, name)
    if gen.ell > 1:
        return lifted
    if not gen.indices.is_zero():
        lam = lambda_op(gen.indices, n, gen.op.space)
        lifted = op_combine([lifted, lam], [1.0, -(n - 1.0)], name=name)
    # the combined indices n idx - (n-1) idx equal idx only up to round-off
    return replace(lifted, indices=gen.indices)


def natural_part(gen: Generator) -> NonlinearOperator:
    """Natural part N = F - Lambda(p, q) of a generator, strictly
    homogeneous; above one particle Lambda is zero and N is F itself."""
    F = gen.op
    if gen.ell > 1 or F.indices.is_zero():
        return F
    lam = lambda_op(F.indices, 1, F.space)
    out = op_combine([F, lam], [1.0, -1.0], name=f"{F.name}-natural")
    return replace(out, indices=ZERO_PAIR)


@dataclass(frozen=True)
class Hierarchy:
    """A truncated family F_1 .. F_{n_max} of multi-particle operators:
    level k is ``ops[k-1]``, a k-particle operator on the space of level 1."""

    ops: tuple[NonlinearOperator, ...]

    def __post_init__(self):
        if not 1 <= len(self.ops) <= MAX_PARTICLES:
            raise BadRange(f"{len(self.ops)} levels outside 1..{MAX_PARTICLES}")
        for k, op in enumerate(self.ops, start=1):
            if op.n != k or op.space != self.space:
                raise SpaceMismatch(f"level {k} operator has n={op.n} or another space")

    @property
    def space(self) -> ConfigSpace:
        return self.ops[0].space

    @property
    def n_max(self) -> int:
        return len(self.ops)

    def op(self, n: int) -> NonlinearOperator:
        if not 1 <= n <= self.n_max:
            raise BadRange(f"level {n} outside 1..{self.n_max}")
        return self.ops[n - 1]

    @classmethod
    def from_generators(cls, gens: Sequence[Generator], n_max: int) -> "Hierarchy":
        """Sum of the canonical lifts of ``gens`` at each level, on their space."""
        if not gens:
            raise ValueError("a hierarchy needs at least one generator")
        ops = []
        for n in range(1, n_max + 1):
            parts = [canonical_lift(g, n) for g in gens if g.ell <= n]
            ops.append(op_combine(parts, name=f"F_{n}") if parts else zero_op(gens[0].op.space, n))
        return cls(tuple(ops))


def bracket_hierarchy(F: Hierarchy, G: Hierarchy) -> Hierarchy:
    """Level-wise Lie bracket of two hierarchies on one space."""
    n_max = min(F.n_max, G.n_max)
    return Hierarchy(tuple(lie_bracket(F.op(n), G.op(n)) for n in range(1, n_max + 1)))


def tensor_derivation_residual(
    H: Hierarchy, t: float, factors: Sequence[np.ndarray]
) -> list[float]:
    """Leibniz defect || sum_j phi_1 ... F(phi_j) ... phi_r - F_n(prod) ||_inf
    for each product of the factor states stacked on one trailing batch
    axis; factor j has ``factors[j].ndim - 1`` particles."""
    ns = [f.ndim - 1 for f in factors]
    n_total = sum(ns)
    if n_total > H.n_max:
        raise BadRange(f"factors use {n_total} particles, hierarchy caps at {H.n_max}")
    prod = tensor_all(factors)
    lhs = np.zeros_like(prod)
    for j, n in enumerate(ns):
        lhs = lhs + tensor_all([*factors[:j], H.op(n).apply(t, factors[j]), *factors[j + 1:]])
    return sup_norms(lhs - H.op(n_total).apply(t, prod))


def canonical_decompose(
    H: Hierarchy,
    t: float = 0.0,
    seed: int | np.random.Generator = 0,
    derivation_tol: float = DERIVATION_TOL,
) -> list[Generator]:
    """Extract the canonical generators (d_j F)_j of a tensor derivation.

    Verifies first that H is a derivation on seeded product states and
    afterwards that the extracted generators rebuild H; raises
    NotDerivation when either residual exceeds ``derivation_tol``.  Every
    state is drawn from ``np.random.default_rng(seed)``, so ``seed`` may
    also be a Generator.
    """
    rng = np.random.default_rng(seed)
    # phase-capped factors: the Leibniz rule for index-carrying levels is
    # branch-exact only while arg f + arg g stays on the principal branch
    splits = [(n1, n - n1) for n in range(2, H.n_max + 1) for n1 in range(1, n)]
    factors = random_batch([k for split in splits for k in split], H.space, [rng],
                           phase_cap=np.pi / 4)
    for pair in zip(factors[::2], factors[1::2]):
        res = max(tensor_derivation_residual(H, t, pair))
        if res > derivation_tol:
            raise NotDerivation(
                f"Leibniz residual {res:.3e} exceeds {derivation_tol:.1e}"
            )
    first = H.op(1)
    if first.indices is None:
        [batch] = random_batch((1,), H.space, [rng] * 4, phase_cap=np.pi / 2)
        first = replace(first, indices=estimate_log_indices(first, t, batch)[0])
    gens = [Generator(first)]
    for j in range(2, H.n_max + 1):
        explained = [canonical_lift(g, j) for g in gens]
        residual_op = op_combine(
            [H.op(j)] + explained,
            [1.0] + [-1.0] * len(explained),
            name=f"d_{j}",
        )
        gens.append(Generator(replace(residual_op, indices=ZERO_PAIR)))
    # reconstruction must reproduce H level by level
    rebuilt = Hierarchy.from_generators(gens, H.n_max)
    probes = random_batch(range(1, H.n_max + 1), H.space, [rng])
    for n, probe in enumerate(probes, start=1):
        diff = max(sup_norms(rebuilt.op(n).apply(t, probe) - H.op(n).apply(t, probe)))
        if diff > derivation_tol * max(1.0, *sup_norms(probe)):
            raise NotDerivation(
                f"reconstruction defect {diff:.3e} at level {n} exceeds tolerance"
            )
    return gens
