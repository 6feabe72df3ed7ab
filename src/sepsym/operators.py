"""Built-in operator families.

All constructors return :class:`~sepsym.opcalc.NonlinearOperator` values
with closed-form first derivatives (and second derivatives where they are
cheap), so bracket and obstruction computations never fall back to finite
differences for the bundled families.  Every kernel obeys the batched
contract of ``NonlinearOperator``: particle axes first, batch axes after.
The complex-linear families all come from ``linear_op``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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


def matrix_op(space: ConfigSpace, n: int, matrix, name: str = "linear") -> NonlinearOperator:
    """Complex-linear operator given by a (size^n, size^n) matrix.

    ``matrix`` may be a fixed array or a callable t -> array.
    """
    if callable(matrix):
        matfn = lambda t: np.asarray(matrix(t), dtype=np.complex128)
        time_dependent = True
    else:
        mat = np.asarray(matrix, dtype=np.complex128)
        matfn = lambda t: mat
        time_dependent = False

    def ev(t, data):
        return (matfn(t) @ data.reshape(space.size**n, -1)).reshape(data.shape)

    return linear_op(space, n, ev, name, time_dependent)


def site_matrix_op(space: ConfigSpace, matrix, name: str = "linear") -> NonlinearOperator:
    """One-particle complex-linear operator from a (size, size) matrix."""
    return matrix_op(space, 1, matrix, name=name)


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


def lambda_op(idx, n: int, space: ConfigSpace) -> NonlinearOperator:
    """The index-carrying operator phi -> ((a,b) . ln phi) phi, pointwise.

    ``idx`` is an IndexPair or a callable t -> IndexPair for explicitly
    time-dependent indices.  Requires nowhere-zero states.
    """
    if callable(idx):
        idxfn: Callable[[float], IndexPair] = idx
        static = None
        time_dependent = True
    else:
        static = idx
        if static.is_zero():
            return zero_op(space, n).renamed("lambda(0,0)")
        idxfn = lambda t: static
        time_dependent = False

    def ev(t, data):
        require_nowhere_zero(data)
        return pair_action(idxfn(t), np.log(data)) * data

    def deriv(t, data, eta):
        require_nowhere_zero(data)
        i = idxfn(t)
        return pair_action(i, eta / data) * data + pair_action(i, np.log(data)) * eta

    def second(t, data, u, v):
        require_nowhere_zero(data)
        i = idxfn(t)
        return (
            pair_action(i, -u * v / data**2) * data
            + pair_action(i, u / data) * v
            + pair_action(i, v / data) * u
        )

    label = "lambda" if static is None else f"lambda({static.a:g},{static.b:g})"
    return NonlinearOperator(
        n=n, space=space, eval_fn=ev, derivative_fn=deriv, second_derivative_fn=second,
        indices=static, time_dependent=time_dependent, name=label,
    )


def log_modulus_op(space: ConfigSpace, coeff: complex = 1.0) -> NonlinearOperator:
    """phi -> c phi ln|phi|; identical to lambda((c, 0))."""
    return lambda_op(IndexPair(coeff, 0.0), 1, space).renamed("log-modulus")


def _roll_sites(space: ConfigSpace, data: np.ndarray, shift: int) -> np.ndarray:
    """Values at the site shifted by ``shift`` grid steps (one-particle)."""
    arr = data.reshape(space.internal_size, space.grid_size, -1)
    return np.roll(arr, -shift, axis=1).reshape(data.shape)


def shifted_log_modulus_op(
    space: ConfigSpace, coeff: complex = 1.0, shift: int = 1
) -> NonlinearOperator:
    """phi(x) -> c phi(x) ln|phi(x + shift)| on the cyclic site ordering.

    Mixed-logarithmic homogeneous with indices (c, 0) but, unlike plain
    log-modulus, with a non-zero strictly homogeneous natural part.
    """
    c = complex(coeff)

    def ev(t, data):
        require_nowhere_zero(data)
        return c * data * np.log(np.abs(_roll_sites(space, data, shift)))

    def deriv(t, data, eta):
        require_nowhere_zero(data)
        ds = _roll_sites(space, data, shift)
        es = _roll_sites(space, eta, shift)
        return c * (eta * np.log(np.abs(ds)) + data * (es / ds).real)

    def second(t, data, u, v):
        require_nowhere_zero(data)
        ds = _roll_sites(space, data, shift)
        us = _roll_sites(space, u, shift)
        vs = _roll_sites(space, v, shift)
        return c * (
            u * (vs / ds).real + v * (us / ds).real - data * (us * vs / ds**2).real
        )

    return NonlinearOperator(
        n=1, space=space, eval_fn=ev, derivative_fn=deriv, second_derivative_fn=second,
        indices=IndexPair(c, 0.0), name=f"shifted-log-modulus({shift})",
    )


def relative_log_modulus_op(space: ConfigSpace, coeff: complex = 1.0) -> NonlinearOperator:
    """phi -> c phi ln(|phi| / geometric mean |phi|); strictly homogeneous.

    The scale-invariant normalisation makes the whole operator its own
    natural part, so it drives non-trivial lifting obstructions while
    having a grid-independent definition (used for refinement ladders).
    """
    c = complex(coeff)

    def rel_log(data):
        ln = np.log(np.abs(data))
        return ln - ln.mean(axis=0)

    def ev(t, data):
        require_nowhere_zero(data)
        return c * data * rel_log(data)

    def deriv(t, data, eta):
        require_nowhere_zero(data)
        r = (eta / data).real
        return c * (eta * rel_log(data) + data * (r - r.mean(axis=0)))

    def second(t, data, u, v):
        require_nowhere_zero(data)
        ru = (u / data).real
        rv = (v / data).real
        rm = (u * v / data**2).real
        return c * (
            u * (rv - rv.mean(axis=0))
            + v * (ru - ru.mean(axis=0))
            - data * (rm - rm.mean(axis=0))
        )

    return NonlinearOperator(
        n=1, space=space, eval_fn=ev, derivative_fn=deriv, second_derivative_fn=second,
        indices=ZERO_PAIR, name="relative-log-modulus",
    )


def rms_log_modulus_op(space: ConfigSpace, coeff: complex = 1.0) -> NonlinearOperator:
    """phi -> c phi ln(|phi| / rms |phi|), rms over all sites.

    Strictly homogeneous like the geometric-mean variant, but the rms is
    a log of a mean of exponentials of ln|phi|, i.e. *not* linear in the
    logarithm of the state.  Operators whose multiplier is log-linear
    have exactly commuting disjoint-slot liftings; this one does not, so
    it drives genuinely non-zero lifting obstructions.
    """
    c = complex(coeff)

    def rel(data):
        return np.log(np.abs(data)) - 0.5 * np.log((np.abs(data) ** 2).mean(axis=0))

    def ev(t, data):
        require_nowhere_zero(data)
        return c * data * rel(data)

    def deriv(t, data, eta):
        require_nowhere_zero(data)
        dln_rms = (np.conj(data) * eta).real.mean(axis=0) / (np.abs(data) ** 2).mean(axis=0)
        return c * (eta * rel(data) + data * ((eta / data).real - dln_rms))

    def second(t, data, u, v):
        require_nowhere_zero(data)
        r2 = (np.abs(data) ** 2).mean(axis=0)
        du = (np.conj(data) * u).real.mean(axis=0) / r2
        dv = (np.conj(data) * v).real.mean(axis=0) / r2
        duv = (np.conj(u) * v).real.mean(axis=0) / r2
        return c * (
            u * ((v / data).real - dv)
            + v * ((u / data).real - du)
            - data * ((u * v / data**2).real + duv - 2.0 * du * dv)
        )

    return NonlinearOperator(
        n=1, space=space, eval_fn=ev, derivative_fn=deriv, second_derivative_fn=second,
        indices=ZERO_PAIR, name="rms-log-modulus",
    )


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
    average up to the round-off of that reordering.
    """
    r1, r2 = int(refs[0]), int(refs[1])
    if not (0 <= r1 < space.size and 0 <= r2 < space.size):
        raise ValueError(f"reference sites {refs} out of range for size {space.size}")
    c = complex(coupling)

    def slices(arr):
        return arr, arr[r1, r2], arr[:, r2][:, None], arr[r1, :][None, :]

    def ratio(data):
        u, v, w, y = slices(data)
        return u * v / (w * y)

    def sdot(data, eta):
        # relative derivative of the cross ratio: DR.eta / R
        u, v, w, y = slices(data)
        eu, evv, ew, ey = slices(eta)
        return eu / u + evv / v - ew / w - ey / y

    def raw_ev(data):
        return data * principal_log(ratio(data))

    def raw_deriv(data, eta):
        return eta * principal_log(ratio(data)) + data * sdot(data, eta)

    def raw_second(data, a, b):
        u, v, w, y = slices(data)
        au, av, aw, ay = slices(a)
        bu, bv, bw, by = slices(b)
        tt = au * bu / u**2 + av * bv / v**2 - aw * bw / w**2 - ay * by / y**2
        return a * sdot(data, b) + b * sdot(data, a) - u * tt

    if r1 == r2:
        def sym(fn, data, *dirs):
            return c * fn(data, *dirs)
    else:
        def sym(fn, data, *dirs):
            direct = fn(data, *dirs)
            swapped = np.swapaxes(
                fn(np.swapaxes(data, 0, 1), *(np.swapaxes(d, 0, 1) for d in dirs)), 0, 1
            )
            return 0.5 * c * (direct + swapped)

    def ev(t, data):
        require_nowhere_zero(data)
        return sym(raw_ev, data)

    def deriv(t, data, eta):
        require_nowhere_zero(data)
        return sym(raw_deriv, data, eta)

    def second(t, data, u, v):
        require_nowhere_zero(data)
        return sym(raw_second, data, u, v)

    return NonlinearOperator(
        n=2, space=space, eval_fn=ev, derivative_fn=deriv, second_derivative_fn=second,
        indices=ZERO_PAIR, name=f"cross-ratio{refs}",
    )


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
        raise ValueError("spin-rms operator needs a factored space with internal size >= 2")
    isize, gsize = space.internal_size, space.grid_size
    c = complex(coupling)

    def rms_sq(arr):
        return (np.abs(arr) ** 2).mean(axis=0, keepdims=True)

    def ev(t, data):
        require_nowhere_zero(data)
        arr = data.reshape(isize, gsize, -1)
        out = arr * (np.log(np.abs(arr)) - 0.5 * np.log(rms_sq(arr)))
        return c * out.reshape(data.shape)

    def deriv(t, data, eta):
        require_nowhere_zero(data)
        arr = data.reshape(isize, gsize, -1)
        ea = eta.reshape(isize, gsize, -1)
        dln_rms = (np.conj(arr) * ea).real.mean(axis=0, keepdims=True) / rms_sq(arr)
        out = ea * (np.log(np.abs(arr)) - 0.5 * np.log(rms_sq(arr))) + arr * (
            (ea / arr).real - dln_rms
        )
        return c * out.reshape(data.shape)

    return NonlinearOperator(
        n=1, space=space, eval_fn=ev, derivative_fn=deriv,
        indices=ZERO_PAIR, name="spin-rms-log",
    )


def spin_rotation_op(space: ConfigSpace) -> NonlinearOperator:
    """Real rotation generator mixing the first two internal components."""
    if not space.factors or space.internal_size < 2:
        raise ValueError("spin rotation needs a factored space with internal size >= 2")
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
        raise ValueError("central difference requires a grid-ordered space")
    h = space.spacing

    def ev(t, data):
        fwd = _roll_sites(space, data, 1)
        bwd = _roll_sites(space, data, -1)
        return (fwd - bwd) / (2.0 * h)

    return linear_op(space, 1, ev, "grid-derivative")

