"""Non-linear operators at fixed particle number and their Frechet calculus.

Operators are maps (t, phi) -> psi between states of one particle count.
Their Frechet derivative is only *real*-linear in the direction, so the
direction must always be formed before differentiating (a complex scalar
cannot be pulled through).  The commutator

    [F, G] = DF . G - DG . F

is the Lie bracket of F and G viewed as vector fields on state space.
Built-in operators register closed-form first derivatives; a central
finite difference is the fallback.  A second derivative is registered only
where a bracket's closed derivative needs it (``lie_bracket``).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import IndexMismatch, SpaceMismatch, ZeroAmplitude
from .mixedpow import IndexPair, pair_action, pair_bracket
from .space import ConfigSpace, sup_norms

# Central-difference step for the Frechet fallback: balances O(h^2)
# truncation against O(eps/h) round-off at double precision.
FD_STEP = 1e-5

# Amplitudes below this floor are outside the domain of logarithmic terms.
NOWHERE_ZERO_FLOOR = 1e-8


def require_nowhere_zero(data: np.ndarray) -> np.ndarray:
    """|data|, after checking that no entry is below the floor."""
    mod = np.abs(data)
    m = mod.min()
    if m < NOWHERE_ZERO_FLOOR:
        raise ZeroAmplitude(f"amplitude {m:.3e} below floor {NOWHERE_ZERO_FLOOR:.0e}")
    return mod


@dataclass(frozen=True)
class NonlinearOperator:
    """A (possibly non-linear) map on n-particle state arrays.

    ``eval_fn(t, data)`` maps a complex state array to one of the same
    shape.  The optional ``derivative_fn(t, data, eta)`` is the
    real-linear Frechet derivative, ``second_derivative_fn(t, data, u, v)``
    its derivative in a second direction v.  ``indices`` declares
    mixed-logarithmic homogeneity indices when known.

    ``linearize_fn(t, data)`` returns ``(F(data), eta -> DF(data).eta)``
    from one preparation of the state, equal bit for bit to ``eval_fn`` and
    ``derivative_fn`` (one formula each); without it an operator
    linearises as ``(apply, derivative)``.  A ``replace`` of either kernel
    must replace it too.

    Kernel contract: all four kernels act on the leading n particle axes
    of arrays shaped ``(size,)*n + batch`` and broadcast over any number
    of trailing batch axes (a gufunc with its core axes in front).  Each
    batch entry is an independent state, so a kernel that sums, shifts or
    multiplies over sites does so along the particle axes only.

    ``pointwise_lambda`` is set only by ``lambda_op`` with static indices,
    to the pair it was built from: the operator is then the pointwise
    Lambda(a, b) phi = ((a, b) . ln phi) phi, whose canonical lift to any
    particle number is Lambda(a, b) there.  Operators derived from another
    (sums, brackets, liftings, natural parts) leave it None.
    """

    n: int
    space: ConfigSpace
    eval_fn: Callable[[float, np.ndarray], np.ndarray]
    derivative_fn: Callable[[float, np.ndarray, np.ndarray], np.ndarray] | None = None
    second_derivative_fn: Callable[..., np.ndarray] | None = None
    indices: IndexPair | None = None
    time_dependent: bool = False
    name: str = ""
    pointwise_lambda: IndexPair | None = None
    linearize_fn: Callable[[float, np.ndarray], tuple] | None = None

    def apply(self, t: float, data: np.ndarray) -> np.ndarray:
        return self.eval_fn(t, data)

    def linearize(self, t: float, data: np.ndarray) -> tuple:
        """The value and the tangent map at one state, for many directions."""
        if self.linearize_fn is not None:
            return self.linearize_fn(t, data)
        return self.apply(t, data), lambda eta: self.derivative(t, data, eta)

    def derivative(
        self,
        t: float,
        data: np.ndarray,
        eta: np.ndarray,
        fd_step: float | None = None,
    ) -> np.ndarray:
        """Frechet derivative at ``data`` in direction ``eta``.

        Uses the registered closed form when available; passing
        ``fd_step`` forces the central finite difference with that step,
        scaled per batch entry by the sup norms over the particle axes.
        """
        if self.derivative_fn is not None and fd_step is None:
            return self.derivative_fn(t, data, eta)
        step = FD_STEP if fd_step is None else fd_step
        axes = tuple(range(self.n))
        scale_phi = np.maximum(1.0, np.abs(data).max(axis=axes, keepdims=True))
        scale_eta = np.maximum(1.0, np.abs(eta).max(axis=axes, keepdims=True))
        h = step * scale_phi / scale_eta
        return (self.apply(t, data + h * eta) - self.apply(t, data - h * eta)) / (2 * h)

    @property
    def has_closed_derivative(self) -> bool:
        return self.derivative_fn is not None

    def renamed(self, name: str) -> "NonlinearOperator":
        return replace(self, name=name)


def _merge_indices(parts: Sequence[IndexPair | None], weights) -> IndexPair | None:
    if any(p is None for p in parts):
        return None
    a = sum(w * p.a for w, p in zip(weights, parts))
    b = sum(w * p.b for w, p in zip(weights, parts))
    return IndexPair(a, b)


def op_combine(
    ops: Sequence[NonlinearOperator],
    coeffs: Sequence[complex] | None = None,
    name: str = "",
) -> NonlinearOperator:
    """Complex-linear combination sum_k c_k F_k of same-level operators.

    Mixed-logarithmic indices combine linearly, so declared indices are
    propagated whenever every part declares them.  With closed derivatives
    in every part, it linearises as the sum of its parts' linearisations.
    """
    if not ops:
        raise ValueError("empty operator combination")
    first = ops[0]
    for op in ops[1:]:
        if op.n != first.n or op.space != first.space:
            raise SpaceMismatch("combined operators must share level and space")
    cs = [complex(c) for c in (coeffs if coeffs is not None else [1.0] * len(ops))]

    def weighted(terms):
        # sum_k c_k x_k in order; each x_k is named, so none is elided
        out = cs[0] * terms[0]
        for c, x in zip(cs[1:], terms[1:]):
            out += c * x
        return out

    def combined(attr):
        # sum_k c_k of one kernel of every part; None unless all parts have it
        fns = [getattr(op, attr) for op in ops]
        if any(fn is None for fn in fns):
            return None
        return lambda t, *arrays: weighted([fn(t, *arrays) for fn in fns])

    def linearize(t, data):
        values, tangents = zip(*(op.linearize(t, data) for op in ops))
        return weighted(values), lambda eta: weighted([tan(eta) for tan in tangents])

    derivative = combined("derivative_fn")
    return NonlinearOperator(
        n=first.n,
        space=first.space,
        eval_fn=combined("eval_fn"),
        derivative_fn=derivative,
        second_derivative_fn=combined("second_derivative_fn"),
        linearize_fn=None if derivative is None else linearize,
        indices=_merge_indices([op.indices for op in ops], cs),
        time_dependent=any(op.time_dependent for op in ops),
        name=name or " + ".join(op.name for op in ops),
    )


def lie_bracket(F: NonlinearOperator, G: NonlinearOperator) -> NonlinearOperator:
    """[F, G] = DF . G - DG . F at a common particle number.

    The result carries a closed-form derivative exactly when both
    operands register first and second derivatives; otherwise callers
    fall back to finite differences for its derivative.
    """
    if F.n != G.n or F.space != G.space:
        raise SpaceMismatch("bracket operands must share level and space")

    def ev(t, data):
        (Fx, DF), (Gx, DG) = F.linearize(t, data), G.linearize(t, data)
        return DF(Gx) - DG(Fx)

    deriv = None
    if None not in (F.derivative_fn, G.derivative_fn,
                    F.second_derivative_fn, G.second_derivative_fn):

        def deriv(t, data, eta):
            (Fx, DF), (Gx, DG) = F.linearize(t, data), G.linearize(t, data)
            return (F.second_derivative_fn(t, data, Gx, eta) + DF(DG(eta))
                    - G.second_derivative_fn(t, data, Fx, eta) - DG(DF(eta)))

    indices = None
    if F.indices is not None and G.indices is not None:
        indices = pair_bracket(F.indices, G.indices)
    return NonlinearOperator(
        n=F.n,
        space=F.space,
        eval_fn=ev,
        derivative_fn=deriv,
        indices=indices,
        time_dependent=F.time_dependent or G.time_dependent,
        name=f"[{F.name}, {G.name}]",
    )


# scaling factors used by the index estimator: k = 2 isolates the first
# logarithmic index (arg k = 0), k = e^{i pi/4} the second (ln|k| = 0)
_K_MOD = 2.0
_K_ARG = cmath.exp(1j * math.pi / 4)


def estimate_log_indices(
    F: NonlinearOperator,
    t: float,
    data: np.ndarray,
) -> tuple[IndexPair, float]:
    """Estimate logarithmic indices (p, q) from F(k phi) - k F(phi).

    For a mixed-logarithmic homogeneous operator the defect equals
    k (p ln|k| + i q arg k) phi; dividing it pointwise by k phi and
    averaging over the states stacked on ``data``'s trailing batch axis
    (state by state, in batch order) recovers the indices.  Returns the
    averaged pair and the worst pointwise deviation from it.  Raises
    IndexMismatch when the operator declares indices that disagree
    beyond 1e-6 plus that deviation.
    """
    require_nowhere_zero(data)
    base = F.apply(t, data)
    dp = F.apply(t, _K_MOD * data) - _K_MOD * base
    dq = F.apply(t, _K_ARG * data) - _K_ARG * base
    # batch axis first: the mean sums the values state by state
    p_all = np.moveaxis(dp / (_K_MOD * math.log(_K_MOD) * data), -1, 0).ravel()
    q_all = np.moveaxis(dq / (1j * _K_ARG * (math.pi / 4) * data), -1, 0).ravel()
    p = complex(p_all.mean())
    q = complex(q_all.mean())
    residual = float(max(np.abs(p_all - p).max(), np.abs(q_all - q).max()))
    est = IndexPair(p, q)
    if F.indices is not None and not est.close_to(F.indices, 1e-6 + residual):
        raise IndexMismatch(
            f"estimated indices ({p:.3e}, {q:.3e}) disagree with declared "
            f"({F.indices.a:.3e}, {F.indices.b:.3e})"
        )
    return est, residual


def check_permutation_property(F: NonlinearOperator, t: float, data: np.ndarray) -> list[float]:
    """Defect of F(pi phi) = pi F(phi), worst over all slot permutations,
    for each state stacked on ``data``'s trailing batch axis."""
    base = F.apply(t, data)
    per_perm = []
    for perm in itertools.permutations(range(F.n)):
        axes = perm + (F.n,)
        per_perm.append(sup_norms(F.apply(t, data.transpose(axes)) - base.transpose(axes)))
    return [max(worst) for worst in zip(*per_perm)]


def euler_log_residual(
    F: NonlinearOperator,
    t: float,
    data: np.ndarray,
    eta: complex,
    indices: IndexPair | None = None,
    fd_step: float | None = None,
) -> list[float]:
    """Defect of DF(phi).(eta phi) = eta F(phi) + ((p,q).eta) phi, per
    stacked state."""
    idx = indices if indices is not None else F.indices
    if idx is None:
        raise ValueError("logarithmic indices required for the Euler residual")
    eta = complex(eta)
    lhs = F.derivative(t, data, eta * data, fd_step=fd_step)
    rhs = eta * F.apply(t, data) + pair_action(idx, eta) * data
    return sup_norms(lhs - rhs)


def euler_power_residual(
    H: NonlinearOperator,
    t: float,
    data: np.ndarray,
    eta: complex,
    indices: IndexPair,
    fd_step: float | None = None,
) -> list[float]:
    """Defect of DH(phi).(eta phi) = ((a,b).eta) H(phi), per stacked state."""
    eta = complex(eta)
    lhs = H.derivative(t, data, eta * data, fd_step=fd_step)
    rhs = pair_action(indices, eta) * H.apply(t, data)
    return sup_norms(lhs - rhs)
