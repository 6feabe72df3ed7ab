"""Built-in operator families.

All constructors return :class:`~sepsym.opcalc.NonlinearOperator` values
with closed-form first derivatives, so bracket and obstruction sums never
fall back to finite differences for the bundled families.  Every kernel
obeys the batched contract of ``NonlinearOperator``: particle axes first,
batch axes after; a site shift is a gather along the particle axis
(``data[sigma]``), which takes a lifted view as it is.  The complex-linear
families come from ``linear_op``; the logarithmic ones, c psi m(psi), from
``multiplier_op``, whose value and derivative are one formula each, shared
by ``linearize`` to prepare m once per state.  Only ``linear_op`` and
``lambda_op`` give a closed second derivative: a bracket's derivative needs
its operands' ones, and the only brackets a check differentiates are of
Lambda symmetries.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import SpaceMismatch
from .mixedpow import IndexPair, ZERO_PAIR, pair_action
from .opcalc import NonlinearOperator, require_nowhere_zero
from .space import ConfigSpace


def linear_op(
    space: ConfigSpace, n: int, ev: Callable, name: str, time_dependent: bool = False
) -> NonlinearOperator:
    """Complex-linear operator with kernel ``ev(t, data)``: its derivative
    is ``ev`` applied to the direction, its second derivative is zero and
    its indices are (0, 0)."""

    def second(t, data, u, v):
        return np.zeros_like(data)

    return NonlinearOperator(
        n=n, space=space, eval_fn=ev,
        derivative_fn=lambda t, data, eta: ev(t, eta),
        second_derivative_fn=second,
        indices=ZERO_PAIR, time_dependent=time_dependent, name=name,
    )


def zero_op(space: ConfigSpace, n: int) -> NonlinearOperator:
    return linear_op(space, n, lambda t, data: np.zeros_like(data), "zero")


def site_matrix_op(space: ConfigSpace, matrix, name: str = "linear") -> NonlinearOperator:
    """One-particle complex-linear operator from a fixed (size, size) matrix.

    The product is an ``einsum``, not ``@``: a BLAS matrix product may round
    a column by its place in the column blocking, while this one gives each
    batch entry the same value at every batch width.
    """
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.shape != (space.size, space.size):
        raise ValueError(f"matrix has shape {mat.shape}, expected ({space.size}, {space.size})")

    def ev(t, data):
        return np.einsum("ij,jk->ik", mat, data.reshape(space.size, -1)).reshape(data.shape)

    return linear_op(space, 1, ev, name)


def site_multiply(vals: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Multiply a site function into the particle axis of a one-particle
    array, leaving its batch axes alone."""
    return vals.reshape(vals.shape + (1,) * (data.ndim - 1)) * data


def diag_mult_op(space: ConfigSpace, values: np.ndarray, name: str = "mult") -> NonlinearOperator:
    """One-particle multiplication by a fixed site function."""
    vals = np.asarray(values, dtype=np.complex128)
    if vals.shape != (space.size,):
        raise ValueError(f"multiplier has shape {vals.shape}, expected ({space.size},)")

    return linear_op(space, 1, lambda t, data: site_multiply(vals, data), name)


def multiplier_op(
    space: ConfigSpace, n: int, coeff: complex, mult: Callable, dmult: Callable,
    indices: IndexPair | None, name: str, time_dependent: bool = False,
    log_self: bool = False, d2mult: Callable | None = None,
) -> NonlinearOperator:
    """The operator psi -> c psi m(psi) of a multiplier ``mult(t, data, |data|)``.

    ``dmult(t, data, eta)`` is the derivative Dm.eta and ``d2mult(t, data,
    u, v)``, if given, the second derivative D2m.(u, v).  The kernels follow
    from the product rule:

        DF.eta     = c (eta m + psi Dm.eta)
        D2F.(u, v) = c (u Dm.v + v Dm.u + psi D2m.(u, v))

    With ``log_self``, m = ln psi + r(psi) and ``dmult`` is that of r:
    psi D(ln psi).eta = eta then costs no division by psi.  No second
    derivative is formed for it: D2F would miss the u v / psi of ln psi.
    Each kernel requires a nowhere-zero state; ``linearize`` checks it and
    forms m once for the value and every direction.  At c = 1, where lambda
    and the cross ratio's unsymmetrised kernels always run, the kernels
    skip the scaling, an extra pass over every array of a large lift.
    """
    c = complex(coeff)

    def scaled(x):
        return x if c == 1 else c * x

    def prepare(t, data):
        return mult(t, data, require_nowhere_zero(data))

    def value(data, m):
        return scaled(data) * m

    def tangent(t, data, m):
        def along(eta):
            out = eta * m + data * dmult(t, data, eta)
            return scaled(np.add(out, eta, out=out) if log_self else out)
        return along

    def linearize(t, data):
        m = prepare(t, data)
        return value(data, m), tangent(t, data, m)

    def second(t, data, u, v):
        require_nowhere_zero(data)
        out = u * dmult(t, data, v) + v * dmult(t, data, u) + data * d2mult(t, data, u, v)
        return scaled(out)

    return NonlinearOperator(
        n=n, space=space, eval_fn=lambda t, data: value(data, prepare(t, data)),
        derivative_fn=lambda t, data, eta: tangent(t, data, prepare(t, data))(eta),
        second_derivative_fn=None if d2mult is None else second, linearize_fn=linearize,
        indices=indices, time_dependent=time_dependent, name=name,
    )


def lambda_op(idx, n: int, space: ConfigSpace) -> NonlinearOperator:
    """The index-carrying operator phi -> ((a,b) . ln phi) phi, pointwise.

    ``idx`` is an IndexPair or a callable t -> IndexPair for explicitly
    time-dependent indices.  Requires nowhere-zero states.  With static
    non-zero indices the operator is marked as ``pointwise_lambda``.
    """
    static = None if callable(idx) else idx
    if static is not None and static.is_zero():
        return zero_op(space, n).renamed("lambda(0,0)")
    last: list = [None, static]  # the time last asked and its indices

    def idxfn(t: float) -> IndexPair:
        # a kernel asks once per multiplier term, all at one t: solve once
        if static is None and last[0] != t:
            last[:] = [t, idx(t)]
        return last[1]

    def mult(t, data, mod):
        # (a,b) . principal_log(data) = a ln|data| + i b arg data, taken from
        # the two real parts without assembling the complex logarithm
        pair = idxfn(t)
        return pair.a * np.log(mod) + 1j * pair.b * np.arctan2(data.imag, data.real)

    label = "lambda" if static is None else f"lambda({static.a:g},{static.b:g})"
    op = multiplier_op(
        space, n, 1.0, mult,
        lambda t, data, eta: pair_action(idxfn(t), eta / data),
        static, label, time_dependent=static is None,
        d2mult=lambda t, data, u, v: pair_action(idxfn(t), -u * v / data**2),
    )
    return replace(op, pointwise_lambda=static)


def log_modulus_op(space: ConfigSpace, coeff: complex = 1.0) -> NonlinearOperator:
    """phi -> c phi ln|phi|; identical to lambda((c, 0))."""
    return lambda_op(IndexPair(coeff, 0.0), 1, space).renamed("log-modulus")


def shifted_log_modulus_op(
    space: ConfigSpace, coeff: complex = 1.0, shift: int = 1
) -> NonlinearOperator:
    """phi(x) -> c phi(x) ln|phi(x + shift)| on the cyclic site ordering.

    Mixed-logarithmic homogeneous with indices (c, 0) but, unlike plain
    log-modulus, with a non-zero strictly homogeneous natural part.
    """
    sigma = _site_shift_index(space, shift)
    return multiplier_op(
        space, 1, coeff,
        lambda t, data, mod: np.log(mod[sigma]),
        lambda t, data, eta: (eta[sigma] / data[sigma]).real,
        IndexPair(complex(coeff), 0.0), f"shifted-log-modulus({shift})",
    )


def relative_log_modulus_op(space: ConfigSpace, coeff: complex = 1.0) -> NonlinearOperator:
    """phi -> c phi ln(|phi| / geometric mean |phi|); strictly homogeneous.

    The scale-invariant normalisation makes the whole operator its own
    natural part, so it drives non-trivial lifting obstructions while
    having a grid-independent definition (used for refinement ladders).
    """
    def centred(r):
        return r - r.mean(axis=0)

    return multiplier_op(
        space, 1, coeff,
        lambda t, data, mod: centred(np.log(mod)),
        lambda t, data, eta: centred((eta / data).real),
        ZERO_PAIR, "relative-log-modulus",
    )


def rms_log_modulus_op(space: ConfigSpace, coeff: complex = 1.0) -> NonlinearOperator:
    """phi -> c phi ln(|phi| / rms |phi|), rms over all sites.

    Strictly homogeneous like the geometric-mean variant, but the rms is
    a log of a mean of exponentials of ln|phi|, i.e. *not* linear in the
    logarithm of the state.  Operators whose multiplier is log-linear
    have exactly commuting disjoint-slot liftings; this one does not, so
    it drives genuinely non-zero lifting obstructions.
    """
    def ms(mod):
        return (mod**2).mean(axis=0)

    def mult(t, data, mod):
        return np.log(mod) - 0.5 * np.log(ms(mod))

    def dmult(t, data, eta):
        return (eta / data).real - (np.conj(data) * eta).real.mean(axis=0) / ms(np.abs(data))

    return multiplier_op(space, 1, coeff, mult, dmult, ZERO_PAIR, "rms-log-modulus")


def principal_log(z: np.ndarray) -> np.ndarray:
    """ln|z| + i atan2(Im z, Re z): the principal branch of ``np.log``, with
    the same sign of the imaginary part on the cut, from two real ufuncs,
    which large arrays evaluate faster than numpy's complex log."""
    out = np.empty(z.shape, dtype=np.complex128)
    out.real = np.log(np.abs(z))
    out.imag = np.arctan2(z.imag, z.real)
    return out


def cross_ratio_op(
    space: ConfigSpace, refs: tuple[int, int] = (0, 0), coupling: complex = 1.0
) -> NonlinearOperator:
    """Two-particle generator built on the logarithm of a cross ratio.

    G(phi)(x1, x2) = phi(x1, x2) ln[ phi(x1,x2) phi(r1,r2)
                                     / (phi(x1,r2) phi(r1,x2)) ],
    symmetrised over the two slots.  The cross ratio is scale invariant,
    so G is strictly homogeneous, and it equals 1 on tensor products, so
    G vanishes there; both hold exactly.  The logarithm is taken on the
    principal branch as ln|R| + i arg R (``principal_log``).

    With distinct reference sites the symmetrisation is the average of G
    on ``data`` and swap . G . swap, i.e. of refs (r1, r2) and (r2, r1).
    With coincident ones, refs (r, r), the average is G itself, so the
    kernels evaluate the cross ratio once: swap . G_(r,r) . swap = G_(r,r),
    because the swapped evaluation gives R'(x1, x2) = R(x2, x1) =
    phi(x1,x2) phi(r,r) / (phi(r,x2) phi(x1,r)), the same cross ratio with
    its two denominator factors commuted.  The values agree with the
    average up to the round-off of that reordering.  The ratio is formed
    as u ((v / w) (1 / y)), with its divisions on the reference slices, and
    ln R = ln u + ln (v / (w y)) (``log_self``), so DG.eta = eta (ln R + 1)
    + phi (eta_v / v - eta_w / w - eta_y / y) has no full-size division.
    """
    r1, r2 = int(refs[0]), int(refs[1])
    if not (0 <= r1 < space.size and 0 <= r2 < space.size):
        raise SpaceMismatch(f"reference sites {refs} out of range for size {space.size}")
    c = complex(coupling)

    def refs_of(arr):
        return arr[r1, r2], arr[:, r2][:, None], arr[r1, :][None, :]

    def log_ratio(t, data, mod):
        v, w, y = refs_of(data)
        return principal_log(data * ((v / w) * (1 / y)))

    def dref(t, data, eta):
        # derivative of the reference terms of ln R: DR.eta / R - eta / phi
        v, w, y = refs_of(data)
        ev, ew, ey = refs_of(eta)
        return ev / v - ew / w - ey / y

    # at coincident sites the product rule's scaling carries the coupling
    # (none at c = 1); at distinct ones it enters with the symmetrisation
    coincident = r1 == r2
    raw = multiplier_op(space, 2, c if coincident else 1.0, log_ratio, dref,
                        ZERO_PAIR, f"cross-ratio{refs}", log_self=True)
    if coincident:
        return raw

    def swap(a):
        return np.swapaxes(a, 0, 1)

    def average(direct, swapped):
        return 0.5 * c * (direct + swap(swapped))

    def sym(fn):
        return lambda t, data, *dirs: average(fn(t, data, *dirs), fn(t, *map(swap, (data, *dirs))))

    def linearize(t, data):
        (dv, dtan), (sv, stan) = raw.linearize(t, data), raw.linearize(t, swap(data))
        return average(dv, sv), lambda eta: average(dtan(eta), stan(swap(eta)))

    return replace(raw, eval_fn=sym(raw.eval_fn), derivative_fn=sym(raw.derivative_fn),
                   linearize_fn=linearize)


def nonseparating_op(space: ConfigSpace, n: int, coupling: complex = 1.0) -> NonlinearOperator:
    """phi -> c phi ln(1 + |phi|^2): pointwise, permutation symmetric, and
    deliberately not a tensor derivation (used as a counterexample term)."""
    c = complex(coupling)

    def ev(t, data):
        return c * data * np.log1p(np.abs(data) ** 2)

    def deriv(t, data, eta):
        w = 1.0 + np.abs(data) ** 2
        return c * (eta * np.log(w) + data * 2.0 * (np.conj(data) * eta).real / w)

    return NonlinearOperator(
        n=n, space=space, eval_fn=ev, derivative_fn=deriv, name="non-separating",
    )


def spin_rms_log_op(space: ConfigSpace, coupling: complex = 1.0) -> NonlinearOperator:
    """phi -> c phi ln(|phi| / rms_spin |phi|) on a factored space.

    The rms runs over the internal (spin) index at each grid site, which
    couples internal components non-linearly: the source of the
    internal-degrees lifting obstruction demonstrations.
    """
    if not space.factors or space.internal_size < 2:
        raise SpaceMismatch("spin-rms operator needs a factored space with internal size >= 2")
    isize, gsize = space.internal_size, space.grid_size

    def spin_axis(arr):
        return arr.reshape(isize, gsize, -1)

    def rms_sq(mod):
        return (mod**2).mean(axis=0, keepdims=True)

    def mult(t, data, mod):
        arr = spin_axis(mod)
        return (np.log(arr) - 0.5 * np.log(rms_sq(arr))).reshape(data.shape)

    def dmult(t, data, eta):
        arr, ea = spin_axis(data), spin_axis(eta)
        dln_rms = (np.conj(arr) * ea).real.mean(axis=0, keepdims=True) / rms_sq(np.abs(arr))
        return ((ea / arr).real - dln_rms).reshape(data.shape)

    return multiplier_op(space, 1, coupling, mult, dmult, ZERO_PAIR, "spin-rms-log")


def spin_rotation_op(space: ConfigSpace) -> NonlinearOperator:
    """Real rotation generator mixing the first two internal components."""
    if not space.factors or space.internal_size < 2:
        raise SpaceMismatch("spin rotation needs a factored space with internal size >= 2")
    isize, gsize = space.internal_size, space.grid_size

    def ev(t, data):
        arr = data.reshape(isize, gsize, -1).copy()
        a0 = arr[0].copy()
        arr[0] = arr[1]
        arr[1] = -a0
        return arr.reshape(data.shape)

    return linear_op(space, 1, ev, "spin-rotation")


def _site_shift_index(space: ConfigSpace, shift: int) -> np.ndarray:
    """Index array sigma with sigma[x] = site x advanced by ``shift``."""
    gsize = space.grid_size
    base = np.arange(space.size).reshape(space.internal_size, gsize)
    rolled = np.roll(base, -shift, axis=1)
    return rolled.reshape(-1)


def shift_all_op(space: ConfigSpace, n: int, shift: int) -> NonlinearOperator:
    """Exact lattice translation of every particle by ``shift`` sites.

    (V phi)(x_1, ..., x_n) = phi(x_1 + shift, ..., x_n + shift).
    """
    sigma = _site_shift_index(space, shift)

    def ev(t, data):
        out = data
        for axis in range(n):
            out = np.take(out, sigma, axis=axis)
        return out

    return linear_op(space, n, ev, f"shift({shift})")


def central_difference_op(space: ConfigSpace) -> NonlinearOperator:
    """One-particle central difference on the periodic grid ordering."""
    if not space.grid:
        raise SpaceMismatch("central difference requires a grid-ordered space")
    h = space.spacing
    # neighbour sites as gathers: a lifted view is read as it is, not reshaped
    fwd, bwd = _site_shift_index(space, 1), _site_shift_index(space, -1)

    def ev(t, data):
        # numpy divides a complex array by a real scalar as a complex division
        return (data[fwd] - data[bwd]) * (1.0 / (2.0 * h))

    return linear_op(space, 1, ev, "grid-derivative")

