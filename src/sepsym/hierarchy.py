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

A hierarchy built from generators keeps them.  Its ``direct_sum`` of
several levels, on their states flattened and stacked row-wise, then
makes one kernel call per generator for all levels: the slot permutations
of every level and tuple ride on one gathered batch axis.

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


def _is_pointwise_lambda(gen: Generator) -> bool:
    """Whether ``gen`` is Lambda of its own indices, whose canonical lift
    is the pointwise Lambda_n (an l > 1 generator may declare no indices:
    None == None is no Lambda)."""
    return gen.op.pointwise_lambda is not None and gen.op.pointwise_lambda == gen.indices


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
    if _is_pointwise_lambda(gen):
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


# the weight op_combine gives each part of a from_generators level
_UNIT = complex(1.0)


def _stacked_lift(gen: Generator, ns: Sequence[int], blocks: Sequence[slice], size: int):
    """The canonical lift of ``gen`` at the stacked levels n >= ell, from one
    kernel call: ``(first row, parts)``, where ``parts(t, data)`` gives the
    rows from the first level n >= ell on; None when no level reaches ell.

    ``_slot_sum``'s permuted copy of each level and tuple J is gathered as
    a group of columns of one (size,)*ell + (columns,) + batch array.  The
    copies are gathered back in slot order, every level's first copy in
    front, so those rows line up with the levels' rows, and each level's
    further copies are added to them in tuple order.  A one-particle
    generator then takes its -(n - 1) Lambda_n term at n > 1, weighted as
    ``canonical_lift`` weights it.  A ``pointwise_lambda`` generator is
    Lambda_n at every level: one elementwise call over all rows."""
    if _is_pointwise_lambda(gen):
        return 0, gen.op.apply
    ell = gen.ell
    levels = [(blk, n, [J + tuple(ax for ax in range(n) if ax not in J)
                        for J in itertools.combinations(range(n), ell)])
              for blk, n in zip(blocks, ns) if n >= ell]
    if not levels:
        return None
    first = levels[0][0].start
    copies, col = [], 0  # copies[level][k]: the columns of copy k
    for blk, n, perms in levels:
        copies.append([slice(col + k * size**(n - ell), col + (k + 1) * size**(n - ell))
                       for k in range(len(perms))])
        col += len(perms) * size**(n - ell)
    gather = np.concatenate([
        np.arange(blk.start, blk.stop).reshape((size,) * n).transpose(perm)
        .reshape(size**ell, -1) for blk, n, perms in levels for perm in perms], axis=1)
    # where each gathered row lands in the kernel's flattened output
    landing = np.arange(gather.size).reshape(gather.shape)
    back, adds, row = [], [], 0  # adds: (a level's rows, the back rows of a further copy)
    for k in range(max(len(perms) for _, _, perms in levels)):
        for (blk, n, perms), cols in zip(levels, copies):
            if k < len(perms):
                back.append(landing[:, cols[k]].reshape((size,) * n)
                            .transpose(np.argsort(perms[k])).ravel())
                if k:
                    adds.append((slice(blk.start - first, blk.stop - first),
                                 slice(row, row + size**n)))
                row += size**n
    back = np.concatenate(back)
    lam, lam_terms = None, []
    if ell == 1 and not gen.indices.is_zero():
        lam = lambda_op(gen.indices, 1, gen.op.space)
        lam_terms = [(slice(blk.start - first, blk.stop - first), complex(-(n - 1.0)), blk)
                     for blk, n, _ in levels if n > 1]
    width, covered = gather.shape[1], blocks[-1].stop - first

    def parts(t, data):
        batch = data.shape[1:]
        out = gen.op.apply(t, np.take(data, gather, axis=0).reshape((size,) * ell + (width,) + batch))
        picked = np.take(out.reshape((-1,) + batch), back, axis=0)
        for rows, copy in adds:
            np.add(picked[rows], picked[copy], out=picked[rows])
        if lam_terms:
            lam_values = lam.apply(t, data)
            for rows, weight, blk in lam_terms:
                level = picked[rows]
                np.multiply(_UNIT, level, out=level)
                level += weight * lam_values[blk]
        return picked[:covered]

    return first, parts


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

        For a hierarchy built from generators, one evaluation makes one
        kernel call per generator for all levels (``_stacked_lift``), and
        combines each level's parts in ``op_combine``'s order and weights.
        A hierarchy built from its levels applies each level to its block.
        """
        if list(ns) != sorted(ns):
            raise ValueError(f"levels {list(ns)} are not in increasing order")
        levels = [self.op(n) for n in ns]
        size = self.space.size
        ends = np.cumsum([size**n for n in ns]).tolist()
        blocks = [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
        if self.gens is None:
            def ev(t, data):
                batch = data.shape[1:]
                return np.concatenate([
                    op.apply(t, data[blk].reshape((size,) * op.n + batch)).reshape((-1,) + batch)
                    for op, blk in zip(levels, blocks)])
        else:
            terms = [term for term in (_stacked_lift(g, ns, blocks, size) for g in self.gens)
                     if term is not None]

            def ev(t, data):
                # a generator's part covers the rows from its first level on:
                # the first part at a row sets it, and later ones add to it
                out, filled = np.empty(data.shape, dtype=np.complex128), len(data)
                for first, parts in terms:
                    value = parts(t, data)
                    if filled < len(data):
                        tail = out[max(first, filled):]
                        tail += _UNIT * value[len(value) - len(tail):]
                    if first < filled:
                        np.multiply(_UNIT, value[:filled - first], out=out[first:filled])
                        filled = first
                out[:filled] = 0  # levels below every threshold are zero_op
                return out

        return NonlinearOperator(
            n=1, space=ConfigSpace(ends[-1]), eval_fn=ev,
            time_dependent=any(op.time_dependent for op in levels),
            name=" (+) ".join(op.name for op in levels),
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
