"""Mixed powers of complex numbers and their index-pair algebra.

The mixed (a, b) power of z = r e^{i theta} raises modulus and phase to
separate exponents,

    z^(a, b) = e^{a ln|z| + i b arg z},

with arg taken on the principal branch (-pi, pi].  The index pairs
multiply like real-linear endomorphisms of the complex plane acting on
ln z; under that product E = (1, 1) is the identity, B = (1, -1) is
complex conjugation, and B, I = (i, i), J = (i, -i) close into sl(2, R)
under the commutator.  Each law is written once on components (a, b),
which may be numbers or arrays of them, and the ``IndexPair`` functions
wrap it; the pointwise operators built on top live in
:mod:`sepsym.operators`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ZeroBase

# Moduli below this are treated as zero: ln|z| would overflow the double range.
ZERO_BASE_TOL = 1e-300


def _as_complex(value) -> complex:
    z = complex(value)
    if not (cmath.isfinite(z)):
        raise ValueError(f"index components must be finite, got {value!r}")
    return z


@dataclass(frozen=True)
class IndexPair:
    """A pair (a, b) of complex homogeneity indices."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", _as_complex(self.a))
        object.__setattr__(self, "b", _as_complex(self.b))

    def __add__(self, other: "IndexPair") -> "IndexPair":
        return IndexPair(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "IndexPair") -> "IndexPair":
        return IndexPair(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "IndexPair":
        return IndexPair(-self.a, -self.b)

    def __mul__(self, other: "IndexPair") -> "IndexPair":
        return pair_product(self, other)

    def __rmul__(self, scalar) -> "IndexPair":
        c = complex(scalar)
        return IndexPair(c * self.a, c * self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def close_to(self, other: "IndexPair", tol: float) -> bool:
        return abs(self.a - other.a) <= tol and abs(self.b - other.b) <= tol


E = IndexPair(1, 1)
B = IndexPair(1, -1)
I = IndexPair(1j, 1j)
J = IndexPair(1j, -1j)
ZERO_PAIR = IndexPair(0, 0)

GENERATORS = {"E": E, "B": B, "I": I, "J": J}

# Product table for the generators B, I, J (E is the identity); entries are
# (sign, name) for row * column.  Consistent with the matrix representation,
# with germ composition, and with the commutators [B,I] = -2J, [I,J] = -2B,
# [J,B] = 2I.
GENERATOR_TABLE = {
    ("B", "B"): (1, "E"),
    ("B", "I"): (-1, "J"),
    ("B", "J"): (-1, "I"),
    ("I", "B"): (1, "J"),
    ("I", "I"): (-1, "E"),
    ("I", "J"): (-1, "B"),
    ("J", "B"): (1, "I"),
    ("J", "I"): (1, "B"),
    ("J", "J"): (1, "E"),
}


def power_components(z, a, b):
    """z^(a, b) = e^{a ln|z| + i b arg z} on the principal branch.

    z is a complex number, or a complex ndarray with indices a, b that
    broadcast against it (evaluated entrywise through numpy).
    """
    exp, log, phase = (np.exp, np.log, np.angle) if isinstance(z, np.ndarray) else (
        cmath.exp, cmath.log, cmath.phase)
    modulus = abs(z)
    if np.min(modulus) < ZERO_BASE_TOL:
        raise ZeroBase(f"mixed power of zero base |z| = {np.min(modulus):.3e}")
    return exp(a * log(modulus) + 1j * b * phase(z))


def mixed_power(z: complex, idx: IndexPair) -> complex:
    """Evaluate z^(a, b) = e^{a ln|z| + i b arg z} on the principal branch."""
    return power_components(complex(z), idx.a, idx.b)


def product_components(a, b, c, d) -> tuple[complex, complex]:
    """The two components of (a,b)(c,d) = (a Re c + i b Im c, b Re d + i a Im d)."""
    return a * c.real + 1j * b * c.imag, b * d.real + 1j * a * d.imag


def bracket_components(a, b, c, d) -> tuple[complex, complex]:
    """The two components of the commutator (a,b)(c,d) - (c,d)(a,b)."""
    fa, fb = product_components(a, b, c, d)
    ba, bb = product_components(c, d, a, b)
    return fa - ba, fb - bb


def pair_product(p: IndexPair, q: IndexPair) -> IndexPair:
    """Index-pair product ``product_components`` of p and q.

    Under this product (z^(c,d))^(a,b) = z^((a,b)(c,d)) as germs at 1.
    """
    return IndexPair(*product_components(p.a, p.b, q.a, q.b))


def pair_bracket(p: IndexPair, q: IndexPair) -> IndexPair:
    """Commutator pq - qp of index pairs."""
    return IndexPair(*bracket_components(p.a, p.b, q.a, q.b))


def action_components(a, b, z):
    """Real-linear action (a, b) . z = a Re z + i b Im z, entrywise on arrays.

    This is the endomorphism of C whose exponential intertwines with the
    mixed power: ln z^(a,b) = (a,b) . ln z.
    """
    return a * z.real + 1j * b * z.imag


def pair_action(idx: IndexPair, z):
    """``action_components`` of idx on a scalar or a complex ndarray."""
    return action_components(idx.a, idx.b, z if isinstance(z, np.ndarray) else complex(z))


def matrix_components(a, b) -> np.ndarray:
    """2x2 real matrix of the action of (a, b) in the ordered basis (1, i);
    for component arrays, one matrix per entry on two new trailing axes."""
    rows = np.array([[a.real, -b.imag], [a.imag, b.real]], dtype=float)
    return np.moveaxis(rows, (0, 1), (-2, -1))
