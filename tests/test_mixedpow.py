import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsym import mixedpow
from sepsym.checks import CHECKS, run_check
from sepsym.errors import ZeroBase
from sepsym.mixedpow import (
    B,
    E,
    GENERATORS,
    I,
    IndexPair,
    J,
    matrix_components,
    mixed_power,
    pair_action,
    pair_bracket,
    pair_product,
    power_components,
)
from sepsym.scenario import load_scenario

ALG_TOL = 1e-12

# Frozen product table for the generators (row * column).  The value at
# (J, I) is +B: forced by [I, J] = -2B together with I*J = -B, and
# confirmed by the 2x2 matrix representation and by composing the germs
# directly.
PRODUCT_TABLE = {
    ("E", "E"): (1, "E"),
    ("E", "B"): (1, "B"),
    ("E", "I"): (1, "I"),
    ("E", "J"): (1, "J"),
    ("B", "E"): (1, "B"),
    ("I", "E"): (1, "I"),
    ("J", "E"): (1, "J"),
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


def pairs_close(p, q, tol=ALG_TOL):
    return abs(p.a - q.a) <= tol and abs(p.b - q.b) <= tol


def random_pair(rng, scale=1.0):
    return IndexPair(
        complex(*(scale * rng.standard_normal(2))),
        complex(*(scale * rng.standard_normal(2))),
    )


class TestGeneratorAlgebra:
    def test_product_table_all_signs(self):
        for (n1, n2), (sign, target) in PRODUCT_TABLE.items():
            for s1 in (1, -1):
                for s2 in (1, -1):
                    got = pair_product(s1 * GENERATORS[n1], s2 * GENERATORS[n2])
                    expect = (s1 * s2 * sign) * GENERATORS[target]
                    assert pairs_close(got, expect), (n1, n2, s1, s2)

    def test_group_closure(self):
        group = [s * GENERATORS[n] for n in "EBIJ" for s in (1, -1)]
        for p in group:
            for q in group:
                prod = pair_product(p, q)
                assert any(pairs_close(prod, g) for g in group)

    def test_sl2_brackets(self):
        assert pairs_close(pair_bracket(B, I), -2 * J)
        assert pairs_close(pair_bracket(I, J), -2 * B)
        assert pairs_close(pair_bracket(J, B), 2 * I)

    def test_identity_element(self):
        q = IndexPair(0.3 - 0.7j, 1.1 + 0.2j)
        assert pairs_close(pair_product(E, q), q)
        assert pairs_close(pair_product(q, E), q)

    def test_product_formula_frozen(self):
        # hand evaluation of (a Re c + i b Im c, b Re d + i a Im d)
        p = IndexPair(1 + 2j, 3 - 1j)
        q = IndexPair(2 + 1j, -1 + 4j)
        assert pairs_close(pair_product(p, q), IndexPair(3 + 7j, -11 + 5j))

    def test_bracket_antisymmetry_and_jacobi(self, rng):
        for _ in range(300):
            p, q, r = (random_pair(rng) for _ in range(3))
            assert pairs_close(pair_bracket(p, p), IndexPair(0, 0))
            jac = (
                pair_bracket(p, pair_bracket(q, r))
                + pair_bracket(q, pair_bracket(r, p))
                + pair_bracket(r, pair_bracket(p, q))
            )
            scale = max(1.0, abs(p.a), abs(p.b), abs(q.a), abs(q.b), abs(r.a), abs(r.b))
            assert abs(jac.a) <= ALG_TOL * scale**2
            assert abs(jac.b) <= ALG_TOL * scale**2


class TestMixedPower:
    def test_base_one(self):
        for idx in (E, B, I, J, IndexPair(2.3 - 1j, 0.4 + 2j)):
            assert abs(mixed_power(1.0, idx) - 1.0) <= ALG_TOL

    def test_conjugation_of_i(self):
        assert abs(mixed_power(1j, B) - (-1j)) <= ALG_TOL

    def test_e_to_the_ii(self):
        # direct evaluation of e^{a ln|z| + i b arg z} at z = e, (a,b) = (i,i)
        assert abs(mixed_power(math.e, I) - cmath.exp(1j)) <= ALG_TOL

    def test_matches_polar_oracle(self, rng):
        for _ in range(200):
            z = complex(*rng.standard_normal(2))
            if abs(z) < 1e-6:
                continue
            idx = random_pair(rng)
            r, th = abs(z), math.atan2(z.imag, z.real)
            oracle = cmath.exp(idx.a * math.log(r)) * cmath.exp(1j * idx.b * th)
            got = mixed_power(z, idx)
            assert abs(got - oracle) <= 1e-12 * max(1.0, abs(oracle))

    def test_zero_base_raises(self):
        with pytest.raises(ZeroBase):
            mixed_power(0.0, E)

    @settings(max_examples=150, derandomize=True)
    @given(
        lr=st.floats(-0.5, 0.5),
        th=st.floats(-math.pi / 4, math.pi / 4),
        comps=st.lists(st.floats(-1.2, 1.2), min_size=8, max_size=8),
    )
    def test_safe_region_identities(self, lr, th, comps):
        z = math.exp(lr) * cmath.exp(1j * th)
        p = IndexPair(complex(comps[0], comps[1]), complex(comps[2], comps[3]))
        q = IndexPair(complex(comps[4], comps[5]), complex(comps[6], comps[7]))
        # product of powers is the power of the component-wise sum
        lhs = mixed_power(z, p) * mixed_power(z, q)
        rhs = mixed_power(z, p + q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        # composition realises the pair product while no branch is crossed
        inner = mixed_power(z, q)
        if abs(cmath.phase(inner)) < math.pi / 2:
            comp = mixed_power(inner, p)
            direct = mixed_power(z, pair_product(p, q))
            assert abs(comp - direct) <= 1e-12 * max(1.0, abs(direct))
        # ln z^(p) = p . ln z
        assert abs(cmath.log(mixed_power(z, p)) - pair_action(p, cmath.log(z))) <= 1e-12


class TestAction:
    def test_identity_and_conjugation(self, rng):
        for _ in range(50):
            z = complex(*rng.standard_normal(2))
            assert abs(pair_action(E, z) - z) <= ALG_TOL
            assert abs(pair_action(B, z) - z.conjugate()) <= ALG_TOL

    def test_direct_substitution(self):
        assert abs(pair_action(IndexPair(2, 3), 1 + 1j) - (2 + 3j)) <= ALG_TOL

    def test_array_action(self, rng):
        arr = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        idx = IndexPair(0.3 + 1j, -0.7 + 0.2j)
        out = pair_action(idx, arr)
        for k in range(5):
            assert abs(out[k] - pair_action(idx, complex(arr[k]))) <= ALG_TOL


def matrix_rep(idx):
    """The 2x2 matrix of one pair's action."""
    return matrix_components(idx.a, idx.b)


class TestMatrixRep:
    def test_frozen_generators(self):
        assert np.allclose(matrix_rep(E), np.eye(2), atol=ALG_TOL)
        assert np.allclose(matrix_rep(B), np.diag([1.0, -1.0]), atol=ALG_TOL)
        assert np.allclose(matrix_rep(J), np.array([[0.0, 1.0], [1.0, 0.0]]), atol=ALG_TOL)

    def test_homomorphism_and_det(self, rng):
        for _ in range(1000):
            p, q = random_pair(rng), random_pair(rng)
            lhs = matrix_rep(pair_product(p, q))
            rhs = matrix_rep(p) @ matrix_rep(q)
            scale = max(1.0, float(np.abs(rhs).max()))
            assert np.abs(lhs - rhs).max() <= ALG_TOL * scale
            det = np.linalg.det(matrix_rep(p))
            assert abs(det - (p.a * p.b.conjugate()).real) <= ALG_TOL * scale

    def test_rank_statement(self):
        assert np.linalg.matrix_rank(matrix_rep(IndexPair(1, 1))) == 2
        # Re(a conj b) = 0 with (a, b) != 0: rank drops to one
        assert np.linalg.matrix_rank(matrix_rep(IndexPair(1, 1j))) == 1
        assert np.linalg.matrix_rank(matrix_rep(IndexPair(0, 0))) == 0


class TestComponentArrays:
    """The component-level laws on arrays agree entry by entry with the
    ``IndexPair`` functions on scalars."""

    def draw(self, rng, n=64):
        a, b, z = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3))
        return a, b, z, [IndexPair(x, y) for x, y in zip(a, b)]

    def test_matrix_and_action_exact(self, rng):
        a, b, z, pairs = self.draw(rng)
        reps = mixedpow.matrix_components(a, b)
        acts = mixedpow.action_components(a, b, z)
        for k, idx in enumerate(pairs):
            assert np.array_equal(reps[k], matrix_rep(idx))
            assert acts[k] == pair_action(idx, z[k])

    def test_power_to_round_off(self, rng):
        # numpy's exp and log may round their last bit unlike cmath's
        a, b, z, pairs = self.draw(rng)
        got = power_components(z, a, b)
        for k, idx in enumerate(pairs):
            want = mixed_power(z[k], idx)
            assert abs(got[k] - want) <= 1e-14 * max(1.0, abs(want))

    def test_zero_base_entry_raises(self, rng):
        a, b, z, _ = self.draw(rng, 4)
        z[2] = 0.0
        with pytest.raises(ZeroBase):
            power_components(z, a, b)


class TestTrialChecksUseTheLibrary:
    """The algebra checks judge their trials as arrays through the laws of
    ``mixedpow``: a defect planted in a law fails them."""

    @staticmethod
    def statuses(*names):
        sc = load_scenario("algebra", set(CHECKS))
        return {run_check(name, sc, {}).status for name in names}

    def test_unplanted_pass(self):
        assert self.statuses("algebra-brackets", "matrix-rep-homomorphism",
                             "mixed-power-identities") == {"pass"}

    def test_product_with_imaginary_parts_swapped(self, monkeypatch):
        monkeypatch.setattr(mixedpow, "product_components", lambda a, b, c, d: (
            a * c.real + 1j * a * d.imag, b * d.real + 1j * b * c.imag))
        assert self.statuses("matrix-rep-homomorphism") == {"fail"}
        assert self.statuses("algebra-brackets") == {"fail"}

    def test_matrix_with_off_diagonal_transposed(self, monkeypatch):
        monkeypatch.setattr(mixedpow, "matrix_components", lambda a, b: np.moveaxis(
            np.array([[a.real, a.imag], [-b.imag, b.real]]), (0, 1), (-2, -1)))
        assert self.statuses("matrix-rep-homomorphism") == {"fail"}

    def test_power_ignoring_b(self, monkeypatch):
        power = mixedpow.power_components
        monkeypatch.setattr(mixedpow, "power_components", lambda z, a, b: power(z, a, a))
        assert self.statuses("mixed-power-identities") == {"fail"}


def test_index_pair_validation():
    with pytest.raises(ValueError):
        IndexPair(float("nan"), 0.0)
    with pytest.raises(ValueError):
        IndexPair(0.0, complex(float("inf"), 0.0))
