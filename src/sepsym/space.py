"""Finite configuration spaces and dense multi-particle states.

An n-particle state over a configuration set X with ``|X| = size`` is a
dense complex array of shape ``(size,) * n`` in C order, so particle 1 is
the most significant digit of the flat index and a tensor product is a
contiguous outer product.  Grid spaces carry a periodic 1-D ordering of
the last factor with spacing ``2 pi / grid_size``, which gives exact
cyclic translations and a central-difference derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadTuple, SizeCapExceeded, SpaceMismatch

# Soft desk-scale guarantee: |X|^n may not exceed this flat length.
FLAT_SIZE_CAP = 65536

# Smooth random states are band-limited to |mode| <= SMOOTH_MAX_MODE with the
# fluctuation coefficients normalised to SMOOTH_COEFF_BUDGET in l1.  One mode
# keeps the coarsest ladder grid (8 sites) inside the Taylor regime of the
# central difference, where refinement quarters the discretisation defects.
SMOOTH_MAX_MODE = 1
SMOOTH_COEFF_BUDGET = 0.4
NOWHERE_ZERO_MIN = 0.1


@dataclass(frozen=True)
class ConfigSpace:
    """A finite one-particle configuration set, optionally factored.

    ``factors`` lists internal-degree sizes with the grid factor last,
    e.g. ``(2, 8)`` for spin x sites; ``grid`` declares the periodic 1-D
    ordering used by discrete-derivative symmetries.
    """

    size: int
    factors: tuple[int, ...] | None = None
    grid: bool = False

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"configuration set must be non-empty, got {self.size}")
        if self.factors is not None:
            object.__setattr__(self, "factors", tuple(int(f) for f in self.factors))
            if any(f < 1 for f in self.factors):
                raise ValueError(f"factor sizes must be positive, got {self.factors}")
            if math.prod(self.factors) != self.size:
                raise ValueError(
                    f"factor sizes {self.factors} do not multiply to {self.size}"
                )

    @property
    def grid_size(self) -> int:
        return self.factors[-1] if self.factors else self.size

    @property
    def internal_size(self) -> int:
        return self.size // self.grid_size

    @property
    def spacing(self) -> float:
        """Grid spacing h = 2 pi / grid_size of the periodic ordering."""
        return 2.0 * math.pi / self.grid_size

    def positions(self) -> np.ndarray:
        """Angular positions of the grid sites."""
        return self.spacing * np.arange(self.grid_size)

    def refined(self, k: int) -> ConfigSpace:
        """The same space with ``k`` times the grid sites, each internal
        factor kept: site x of this grid is site k x of the refined one."""
        factors = None if self.factors is None else (*self.factors[:-1], k * self.grid_size)
        return ConfigSpace(k * self.size, factors=factors, grid=self.grid)


def state_shape(space: ConfigSpace, n: int) -> tuple[int, ...]:
    if n < 1:
        raise ValueError(f"particle count must be positive, got {n}")
    if space.size**n > FLAT_SIZE_CAP:
        raise SizeCapExceeded(
            f"|X|^n = {space.size}^{n} exceeds the flat-size cap {FLAT_SIZE_CAP}"
        )
    return (space.size,) * n


def tensor_data(a: np.ndarray, b: np.ndarray, n1: int) -> np.ndarray:
    """Tensor product of state arrays with trailing batch axes, entry by entry.

    ``a`` is shaped ``(size,)*n1 + batch`` and ``b`` ``(size,)*n2 + batch``;
    the result, shaped ``(size,)*(n1+n2) + batch``, holds a[..., k] (x) b[..., k]
    in batch entry k.  With an empty batch it is ``np.multiply.outer(a, b)``.
    """
    n2 = b.ndim - (a.ndim - n1)
    return a.reshape(a.shape[:n1] + (1,) * n2 + a.shape[n1:]) * b


def tensor_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor product phi_1 (x) ... (x) phi_r of states stacked on one
    trailing batch axis, entry by entry, chained left to right."""
    out = factors[0]
    for f in factors[1:]:
        out = tensor_data(out, f, out.ndim - 1)
    return out


def sup_norms(values: np.ndarray) -> list[float]:
    """Sup norm of every entry of a batch, in order.

    ``values`` carries the batch on its last axis: an operator's value on
    states stacked with ``np.stack(..., axis=-1)``, or per-state values
    stacked the same way.  This is the one way a check judges an operator
    over a batch: callers take the max (the worst state) or the mean of
    the list.
    """
    worst = np.abs(values).max(axis=tuple(range(values.ndim - 1)))
    return [float(v) for v in worst]


def check_index_tuple(J: Sequence[int], n: int, length: int | None = None) -> tuple[int, ...]:
    """Validate a strictly increasing tuple of slot indices in 0..n-1."""
    J = tuple(int(j) for j in J)
    if length is not None and len(J) != length:
        raise BadTuple(f"tuple {J} has length {len(J)}, expected {length}")
    if any(j < 0 or j >= n for j in J):
        raise BadTuple(f"tuple {J} out of bounds for {n} slots")
    if any(J[k] >= J[k + 1] for k in range(len(J) - 1)):
        raise BadTuple(f"tuple {J} is not strictly increasing")
    return J


def _smooth_field(space: ConfigSpace, n: int, rng: np.random.Generator) -> np.ndarray:
    """Band-limited random field over the grid ordering.

    Mode coefficients are drawn before the grid is referenced, so the same
    seed yields samples of one underlying function across grid refinements.
    """
    shape = (space.internal_size,) * n + (2 * SMOOTH_MAX_MODE + 1,) * n
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coef *= SMOOTH_COEFF_BUDGET / np.abs(coef).sum(axis=tuple(range(n, 2 * n)), keepdims=True)
    modes = np.arange(-SMOOTH_MAX_MODE, SMOOTH_MAX_MODE + 1)
    waves = np.exp(1j * np.outer(modes, space.positions()))  # (nmodes, grid_size)
    # sum factorisation: contract one mode axis at a time with the wave
    # table, each contraction appending its grid axis at the end
    out = coef
    for _ in range(n):
        out = np.tensordot(out, waves, axes=(n, 0))
    # interleave internal/grid axes and merge into site indices
    order = [ax for j in range(n) for ax in (j, n + j)]
    return np.transpose(out, order).reshape((space.size,) * n)


def random_state(
    n: int,
    space: ConfigSpace,
    seed,
    nowhere_zero: bool = False,
    smooth: bool = False,
    phase_cap: float | None = None,
) -> np.ndarray:
    """Deterministic random n-particle state array, shaped ``(size,)*n``.

    With ``nowhere_zero`` the minimum modulus is at least
    ``NOWHERE_ZERO_MIN``; with ``smooth`` (grid spaces only) the values
    come from a band-limited profile over the periodic ordering.
    ``phase_cap`` bounds |arg| of every entry: identities that multiply
    states together (Leibniz rules, index estimation) are branch-exact
    only while the summed arguments stay on the principal branch.
    """
    rng = np.random.default_rng(seed)  # a Generator comes back as it is
    shape = state_shape(space, n)
    if smooth:
        if not space.grid:
            raise SpaceMismatch("smooth sampling requires a grid-ordered space")
        data = _smooth_field(space, n, rng)
        if nowhere_zero:
            data = data + 1.0  # fluctuation l1-norm <= 0.4 keeps |data| >= 0.6
    elif nowhere_zero:
        r = rng.uniform(0.3, 1.2, shape)
        cap = math.pi if phase_cap is None else float(phase_cap)
        th = rng.uniform(-cap, cap, shape)
        data = r * np.exp(1j * th)
    else:
        data = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    if not np.all(np.isfinite(data)):
        raise ValueError("state data contains non-finite entries")
    return data


def random_batch(sizes: Sequence[int], space: ConfigSpace, seeds, **kwargs) -> list[np.ndarray]:
    """Nowhere-zero states stacked on one trailing batch axis, one stack
    per particle count in ``sizes``.

    For each entry of ``seeds`` one state per size is drawn, in order,
    from that entry's generator: an int or tuple seed starts a fresh one,
    and a Generator, repeated across entries, draws its states in turn.
    ``kwargs`` go to ``random_state``.
    """
    draws = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        draws.append([random_state(n, space, rng, nowhere_zero=True, **kwargs) for n in sizes])
    return [np.stack(states, axis=-1) for states in zip(*draws)]
