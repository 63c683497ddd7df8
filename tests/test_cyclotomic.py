from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lcong.cyclotomic import (
    INFINITE,
    CyclotomicElement,
    as_element,
    congruent_mod,
    cyclotomic_polynomial,
    euler_phi,
    p_content_valuation,
    rational_valuation,
    root_of_unity_order,
    zeta,
)
from divisibility_oracle import divides_p_locally
from norm_oracle import is_unit_at_p, rational_norm


def poly_from_roots_oracle(n):
    # Independent route: divide x^n - 1 by the cyclotomic polynomials of
    # the proper divisors, using plain long division on integer lists.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = list(cyclotomic_polynomial(d))
            out = [0] * (len(poly) - len(den) + 1)
            for i in range(len(poly) - 1, len(den) - 2, -1):
                c = poly[i]
                if c:
                    out[i - len(den) + 1] = c
                    for j, dc in enumerate(den):
                        poly[i - len(den) + 1 + j] -= c * dc
            poly = out
    return tuple(poly)


class TestCyclotomicPolynomial:
    def test_small_values(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_order_eight_by_division(self):
        assert cyclotomic_polynomial(8) == poly_from_roots_oracle(8) == (1, 0, 0, 0, 1)

    @pytest.mark.parametrize("n", range(1, 41))
    def test_monic_of_degree_phi(self, n):
        poly = cyclotomic_polynomial(n)
        assert poly[-1] == 1
        assert len(poly) - 1 == euler_phi(n)

    @pytest.mark.parametrize("n", [1024, 2310, 720])
    def test_divisor_product_is_x_to_the_n_minus_one(self, n):
        # x^n - 1 = prod_(d | n) Phi_d(x), checked past the sympy oracle's
        # reach: 2^10 is the field of the characters mod 2^11, 2310 has
        # five prime factors and 720 repeated ones.
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                factor = cyclotomic_polynomial(d)
                out = [0] * (len(product) + len(factor) - 1)
                for j, c in enumerate(factor):
                    if c:
                        for i, a in enumerate(product):
                            out[i + j] += c * a
                product = out
        assert product == [-1] + [0] * (n - 1) + [1]


class TestZeta:
    def test_fourth_root_squares_to_minus_one(self):
        assert zeta(4, 1) ** 2 == -1
        assert (zeta(4, 1).num, zeta(4, 1).den) == ((0, 1), 1)

    def test_exponent_reduction(self):
        assert zeta(8, 8) == 1
        assert zeta(8, 9) == zeta(8, 1)

    def test_cube_roots_sum(self):
        assert zeta(3, 1) + zeta(3, 2) == -1

    def test_power_law_all_orders_up_to_48(self):
        for n in range(1, 49):
            for j in range(n):
                for k in range(n):
                    assert zeta(n, j) * zeta(n, k) == zeta(n, j + k)


class TestFieldArithmetic:
    def test_invert_roots_of_unity(self):
        for n in (3, 4, 8, 12):
            for j in range(n):
                assert zeta(n, j).inverse() == zeta(n, n - j)

    def test_product_of_conjugate_differences(self):
        assert (1 - zeta(3, 1)) * (1 - zeta(3, 2)) == 3

    def test_rational_inverse(self):
        assert as_element(2).inverse() == Fraction(1, 2)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDivisionError):
            CyclotomicElement.zero(4).inverse()
        with pytest.raises(ZeroDivisionError):
            zeta(4, 1) / 0

    def test_mixed_order_multiplication(self):
        assert zeta(4, 1) * zeta(3, 1) == zeta(12, 7)
        assert zeta(6, 1) == zeta(12, 2)


def small_rationals():
    return st.fractions(
        min_value=-4, max_value=4, max_denominator=6
    )


def elements(order=12):
    deg = euler_phi(order)
    return st.lists(small_rationals(), min_size=deg, max_size=deg).map(
        lambda cs: CyclotomicElement(order, cs)
    )


class TestRingProperties:
    @settings(max_examples=60, deadline=None)
    @given(elements(), elements(), elements())
    def test_distributivity(self, x, y, z):
        assert (x + y) * z == x * z + y * z

    @settings(max_examples=60, deadline=None)
    @given(elements())
    def test_inverse_roundtrip(self, x):
        if not x.is_zero():
            assert x.inverse() * x == 1

    @settings(max_examples=60, deadline=None)
    @given(elements(8), elements(8))
    def test_multiplication_commutes(self, x, y):
        assert x * y == y * x


class TestValuation:
    def test_examples(self):
        assert p_content_valuation(zeta(8, 1) * 8 + 2, 2) == 1
        assert p_content_valuation(1 - zeta(4, 1), 2) == 0
        assert p_content_valuation(CyclotomicElement.zero(8), 2) == INFINITE

    def test_rational_valuation(self):
        assert rational_valuation(Fraction(12), 2) == 2
        assert rational_valuation(Fraction(5, 8), 2) == -3
        assert rational_valuation(0, 7) == INFINITE

    @settings(max_examples=60, deadline=None)
    @given(elements(), st.sampled_from([2, 3, 5]))
    def test_scaling_by_p_adds_one(self, x, p):
        if not x.is_zero():
            assert p_content_valuation(x * p, p) == 1 + p_content_valuation(x, p)

    @settings(max_examples=60, deadline=None)
    @given(elements(), elements(), st.sampled_from([2, 3, 5]))
    def test_sum_valuation_at_least_min(self, x, y, p):
        vs = p_content_valuation(x + y, p)
        assert vs >= min(p_content_valuation(x, p), p_content_valuation(y, p))


class TestCongruentMod:
    def test_examples(self):
        assert congruent_mod(16, 0, 2, 4) == (True, 4)
        assert congruent_mod(-60, 0, 2, 3) == (False, 2)
        assert congruent_mod(1 - zeta(3, 1), as_element(0), 3, 1) == (False, 0)

    @settings(max_examples=40, deadline=None)
    @given(elements(6), elements(6), elements(6), st.integers(0, 3))
    def test_transitivity(self, x, y, z, n):
        ok_xy, _ = congruent_mod(x, y, 2, n)
        ok_yz, _ = congruent_mod(y, z, 2, n)
        if ok_xy and ok_yz:
            ok_xz, _ = congruent_mod(x, z, 2, n)
            assert ok_xz


class TestDivisibility:
    def test_gaussian(self):
        assert divides_p_locally(1 - zeta(4, 1), as_element(2, 4), 2) is True

    def test_eisenstein(self):
        assert divides_p_locally(1 - zeta(3, 1), as_element(3, 3), 3) is True

    def test_negative_case(self):
        assert divides_p_locally(as_element(3), as_element(1), 3) is False

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            divides_p_locally(CyclotomicElement.zero(4), as_element(1, 4), 2)


class TestNorms:
    def test_small_norms(self):
        assert rational_norm(1 - zeta(4, 1)) == 2
        assert rational_norm(1 - zeta(3, 1)) == 3
        assert rational_norm(as_element(Fraction(3, 2), 4)) == Fraction(9, 4)

    def test_unit_detection_matches_exact_norm(self):
        for n in (4, 6, 12):
            for j in range(n):
                for c in (1, 2, 3, 7):
                    x = 1 - zeta(n, j) * c
                    if x.is_zero():
                        continue
                    for p in (2, 3, 5, 7):
                        exact = rational_valuation(rational_norm(x), p) == 0
                        assert is_unit_at_p(x, p) == exact

    def test_content_zero_but_not_unit(self):
        # 1 - i*2: integral coordinates with content valuation 0, but the
        # norm is 5, so it is not invertible 5-locally.
        x = 1 - zeta(4, 1) * 2
        assert p_content_valuation(x, 5) == 0
        assert not is_unit_at_p(x, 5)


class TestRootOfUnityOrder:
    def test_examples(self):
        assert root_of_unity_order(as_element(-1, 4)) == 2
        assert root_of_unity_order(zeta(18, 6)) == 3
        assert root_of_unity_order(as_element(1)) == 1

    def test_minus_one_in_odd_order_field(self):
        assert root_of_unity_order(as_element(-1, 3)) == 2

    def test_not_a_root(self):
        with pytest.raises(ValueError, match="not a root of unity"):
            root_of_unity_order(1 + zeta(4, 1))


class TestEmbedding:
    def test_equality_across_orders(self):
        x = zeta(6, 1) + Fraction(1, 2)
        assert x == x.embed(24)

    @settings(max_examples=40, deadline=None)
    @given(elements(6), elements(6), st.sampled_from([2, 3, 5]), st.integers(0, 3))
    def test_predicates_invariant_under_embedding(self, x, y, p, n):
        xe, ye = x.embed(24), y.embed(24)
        assert p_content_valuation(x, p) == p_content_valuation(xe, p)
        assert congruent_mod(x, y, p, n) == congruent_mod(xe, ye, p, n)
        assert (x == y) == (xe == ye)
