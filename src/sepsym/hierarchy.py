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

A lifting F^J makes one kernel call per evaluation, on the state's
transposed view with J's slots in front.  A canonical lifting makes one
too: one precomputed gather lays the slot permutations of all tuples J
side by side on one batch axis, and a second gathers the results back
into slot order, where they are added in tuple order.  The one exception
is g = Lambda(p, q) itself, as ``lambda_op`` marks it: N is zero, so the
lift is the pointwise Lambda_n, one evaluation in place of n + 1.

A hierarchy built from generators keeps them.  Its ``direct_sum`` of
several levels, on their states flattened and stacked row-wise, runs the
same gathered slot sum over all levels at once, one per generator, and
combines them as each level combines its canonical lifts.

The canonical decomposition inverts this: d_1 F lifts the first level,
and each further threshold lifts what the lower thresholds fail to
explain.  The d_j are idempotent and recover exactly the generators a
derivation was built from.
"""

from __future__ import annotations

import functools
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


def check_obstruction_range(ell: int, m: int, n: int) -> None:
    """Raise BadRange unless 1 <= l <= m < n <= MAX_PARTICLES, the range
    of an obstruction double sum of an l- against an m-particle generator
    at n particles."""
    if not 1 <= ell <= m < n <= MAX_PARTICLES:
        raise BadRange(
            f"need 1 <= l <= m < n <= {MAX_PARTICLES}, got (l, m, n) = ({ell}, {m}, {n})"
        )


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


def _lifted(op: NonlinearOperator, into, out_of, **fields) -> NonlinearOperator:
    """``op`` with each of its kernels taking every array through ``into``
    and giving its result through ``out_of``; ``fields`` name the new
    operator's level, space, indices and name."""

    def lifted(fn):
        if fn is None:
            return None
        return lambda t, *arrays: out_of(fn(t, *map(into, arrays)))

    def linearize(t, data):
        value, tangent = op.linearize(t, into(data))
        return out_of(value), lambda eta: out_of(tangent(into(eta)))

    return NonlinearOperator(
        eval_fn=lifted(op.eval_fn), derivative_fn=lifted(op.derivative_fn),
        second_derivative_fn=lifted(op.second_derivative_fn),
        linearize_fn=None if op.derivative_fn is None else linearize,
        time_dependent=op.time_dependent, **fields,
    )


def lift_J(op: NonlinearOperator, J: Sequence[int], m: int) -> NonlinearOperator:
    """Lifting F^J of an l-particle operator to m particles, slots 0-based.

    The kernels see the state's transposed view, J's slots in front and
    every other slot behind them in order, with no copy."""
    J = check_index_tuple(J, m, length=op.n)
    if m < op.n:
        raise BadTuple(f"cannot lift an {op.n}-particle operator to {m} slots")
    if m == op.n:
        return op  # the identity lifting
    perm = J + tuple(ax for ax in range(m) if ax not in J)
    inverse = tuple(np.argsort(perm).tolist())
    return _lifted(op, lambda a: a.transpose(perm + tuple(range(m, a.ndim))),
                   lambda out: out.transpose(inverse + tuple(range(m, out.ndim))),
                   n=m, space=op.space, indices=op.indices, name=f"{op.name}^{J}")


# a plan depends on no operator: the seven lift-obstruction scenarios
# build 62 lifts from 8 plans, so each is built once per key
@functools.lru_cache(maxsize=32)
def _slot_plan(size: int, ns: tuple[int, ...], ell: int):
    """Index plan of an ell-slot kernel's slot sum over the levels ``ns``,
    flattened and stacked row-wise: ``(gather, back, adds, first)``.

    Copy k of level n >= ell holds the level's rows permuted by the k-th
    increasing ell-tuple J (J's slots in front, every other slot behind
    them in order) as size**(n - ell) columns of ``gather``, shaped
    (size,)*ell + (columns,): the kernel's particle axes and one batch
    axis.  ``back`` picks the kernel's flattened output rows back into
    slot order, every level's first copy in row order and then each
    further copy.  Behind ``first`` zero rows, the rows of the levels
    below ell, the picked rows then hold every level at its own rows, and
    ``adds`` pairs a level's rows with those of each further copy, in
    tuple order.
    """
    starts = np.cumsum((0,) + tuple(size**n for n in ns)).tolist()
    copies = [(k, start, np.arange(start, start + size**n).reshape((size,) * n)
               .transpose(J + tuple(ax for ax in range(n) if ax not in J)).reshape(size**ell, -1))
              for start, n in zip(starts, ns) if n >= ell
              for k, J in enumerate(itertools.combinations(range(n), ell))]
    gather = np.concatenate([src for _, _, src in copies], axis=1)
    cuts = np.cumsum([src.shape[1] for _, _, src in copies])[:-1]
    landing = np.split(np.arange(gather.size).reshape(gather.shape), cuts, axis=1)
    first = row = copies[0][1]
    back, adds = [], []
    # every level's first copy, in row order, then the further copies
    for (k, start, src), lands in sorted(zip(copies, landing), key=lambda c: c[0][0]):
        rows = np.empty(src.size, dtype=np.intp)  # where each row of the level landed
        rows[src - start] = lands
        back.append(rows)
        if k:
            adds.append((slice(start, start + src.size), slice(row, row + src.size)))
        row += src.size
    gather, back = gather.reshape((size,) * ell + (-1,)), np.concatenate(back)
    gather.flags.writeable = back.flags.writeable = False
    return gather, back, tuple(adds), first


def _slot_sum(gen: Generator, ns: tuple[int, ...], n: int, space: ConfigSpace,
              name: str) -> NonlinearOperator:
    """The canonical lift sum_J N^J + Lambda of ``gen`` at each level of
    ``ns``, as an n-particle operator on ``space`` whose (space.size,)*n
    particle entries are the levels' states flattened and stacked
    row-wise; rows of levels below the threshold are zero.

    Every level's slot permutations ride on one batch axis of one kernel
    call (``_slot_plan``), and each level's copies are added in tuple
    order.  A one-particle generator takes -(n_k - 1) Lambda on the rows
    of level n_k.  A ``pointwise_lambda`` generator lifts to Lambda at
    every level: its own elementwise kernel, with every slot but the first
    as a batch axis, in one call over all rows."""
    if gen.op.pointwise_lambda is not None and gen.op.pointwise_lambda == gen.indices:
        return replace(gen.op, n=n, space=space, name=name)
    shape, count = (space.size,) * n, space.size**n
    gather, back, adds, first = _slot_plan(gen.op.space.size, ns, gen.ell)

    def into(a):
        return np.take(a.reshape((-1,) + a.shape[n:]), gather, axis=0)

    def out_of(out):
        batch = out.shape[gen.ell + 1:]
        picked = np.empty((first + len(back),) + batch, dtype=out.dtype)
        picked[:first] = 0
        # every index is in range; "clip" only spares take a buffered copy
        np.take(out.reshape((-1,) + batch), back, axis=0, out=picked[first:], mode="clip")
        for level, copy in adds:
            np.add(picked[level], picked[copy], out=picked[level])
        return picked[:count].reshape(shape + batch)

    lifted = _lifted(gen.op, into, out_of, n=n, space=space, indices=gen.indices, name=name)
    if gen.ell > 1 or gen.indices.is_zero():
        return lifted
    weights = np.repeat([-(k - 1.0) for k in ns], [gen.op.space.size**k for k in ns]).reshape(shape)
    lam = _lifted(lambda_op(gen.indices, n, space), lambda a: a,
                  lambda out: weights.reshape(shape + (1,) * (out.ndim - n)) * out,
                  n=n, space=space)
    # op_combine drops the indices, which Lambda's level-weighted part lacks
    return replace(op_combine([lifted, lam], name=name), indices=gen.indices)


def canonical_lift(gen: Generator, n: int) -> NonlinearOperator:
    """Canonical lifting F#_n = sum_J N^J + Lambda_n of a threshold-l
    generator to n particles, J over the increasing l-tuples of {1..n}.

    N = F - Lambda is the natural part, and Lambda is zero above one
    particle, so there the lift is sum_J F^J.  A one-particle lift is
    computed as sum_j F^(j) - (n - 1) Lambda_n; when F was built as Lambda
    of its declared indices (``pointwise_lambda``), N is zero and the lift
    is the pointwise Lambda_n.  It is ``_slot_sum`` at the one level n.
    """
    if n < gen.ell:
        raise BadRange(f"cannot lift a threshold-{gen.ell} generator to n={n}")
    if n == gen.ell:
        return gen.op  # the single tuple J = (0, ..., l-1)
    return _slot_sum(gen, (n,), n, gen.op.space, f"{gen.op.name}#_{n}")


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
    level k is ``ops[k-1]``, a k-particle operator on the space of level 1.

    ``gens`` holds the generators ``from_generators`` summed, and is None
    for a hierarchy built from its levels."""

    ops: tuple[NonlinearOperator, ...]
    gens: tuple[Generator, ...] | None = None

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

    def direct_sum(self, ns: Sequence[int]) -> NonlinearOperator:
        """F_{n_1} (+) ... (+) F_{n_k}: the levels ``ns``, in increasing
        order, as one operator on their states flattened and stacked
        row-wise, level n taking size**n rows, with the batch axes trailing.
        Each row block of its value equals ``op(n).apply`` on that block,
        bit for bit, since a kernel's value on one batch entry does not
        depend on the batch around it.

        For a hierarchy built from generators it is the ``op_combine`` of
        one ``_slot_sum`` per generator that some level reaches, as each
        level combines its canonical lifts: one kernel call per generator
        for all levels, with every kernel of a sum.  A hierarchy built from
        its levels applies each level to its block.
        """
        if list(ns) != sorted(ns):
            raise ValueError(f"levels {list(ns)} are not in increasing order")
        levels = [self.op(n) for n in ns]
        size = self.space.size
        ends = np.cumsum([size**n for n in ns]).tolist()
        space, name = ConfigSpace(ends[-1]), " (+) ".join(op.name for op in levels)
        gens = [g for g in self.gens or () if g.ell <= ns[-1]]
        if gens:
            return op_combine([_slot_sum(g, tuple(ns), 1, space, name) for g in gens], name=name)
        blocks = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]

        def ev(t, data):
            batch = data.shape[1:]
            return np.concatenate([
                op.apply(t, data[blk].reshape((size,) * op.n + batch)).reshape((-1,) + batch)
                for op, blk in zip(levels, blocks)])

        return NonlinearOperator(
            n=1, space=space, eval_fn=ev,
            time_dependent=any(op.time_dependent for op in levels), name=name,
        )

    @classmethod
    def from_generators(cls, gens: Sequence[Generator], n_max: int) -> "Hierarchy":
        """Sum of the canonical lifts of ``gens`` at each level, on their space."""
        if not gens:
            raise ValueError("a hierarchy needs at least one generator")
        ops = []
        for n in range(1, n_max + 1):
            parts = [canonical_lift(g, n) for g in gens if g.ell <= n]
            ops.append(op_combine(parts, name=f"F_{n}") if parts else zero_op(gens[0].op.space, n))
        return cls(tuple(ops), tuple(gens))


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
