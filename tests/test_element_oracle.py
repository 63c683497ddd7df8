"""Differential tests: CyclotomicElement against the Fraction oracle.

CyclotomicElement keeps integer numerators over one denominator; the
oracle in fraction_oracle.py keeps one Fraction per coordinate and
reduces, multiplies and inverts the schoolbook way.  Both must give the
same canonical coordinates for every operation, at orders that cover
prime powers, composites, order 1 and mixed-order operands.
"""

import math
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import fraction_oracle as oracle
from lcong.cyclotomic import CyclotomicElement, euler_phi, p_content_valuation

ORDERS = (1, 3, 4, 5, 8, 9, 12, 20, 25, 42)
# Operand orders whose common field stays small enough for the oracle.
ORDER_PAIRS = [
    (a, b) for a in ORDERS for b in ORDERS if euler_phi(math.lcm(a, b)) <= 48
]

scalars = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-20, max_value=20, max_denominator=36),
)


@st.composite
def coefficient_lists(draw, order):
    """Dense lists of any length (so reduction is exercised) or sparse
    combinations of a few powers of zeta, roots of unity included."""
    if draw(st.booleans()):
        return draw(st.lists(scalars, max_size=order + 3))
    coeffs = [0] * (2 * order + 1)
    for exponent, c in draw(st.lists(st.tuples(st.integers(0, 2 * order), scalars), max_size=3)):
        coeffs[exponent] += c
    return coeffs


@st.composite
def pairs(draw, order):
    """(CyclotomicElement, oracle element) built from the same coefficients."""
    coeffs = draw(coefficient_lists(order))
    return CyclotomicElement(order, coeffs), oracle.reduce(order, coeffs)


@st.composite
def operands(draw):
    a, b = draw(st.sampled_from(ORDER_PAIRS))
    return draw(pairs(a)), draw(pairs(b))


def as_oracle(x):
    return x.order, oracle.coordinates(x)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(pairs))
def test_construction_reduces_like_the_oracle(pair):
    x, ox = pair
    assert as_oracle(x) == ox
    assert math.gcd(x.den, *x.num) == 1 and x.den > 0


@settings(max_examples=150, deadline=None)
@given(operands())
def test_ring_operations(ops):
    (x, ox), (y, oy) = ops
    assert as_oracle(x + y) == oracle.add(ox, oy)
    assert as_oracle(x - y) == oracle.sub(ox, oy)
    assert as_oracle(x * y) == oracle.mul(ox, oy)
    assert (x == y) == oracle.equal(ox, oy)
    assert (x == x + y) == oracle.equal(oy, oracle.reduce(1, []))


@settings(max_examples=100, deadline=None)
@given(operands())
def test_division_and_inverse(ops):
    (x, ox), (y, oy) = ops
    assume(not y.is_zero())
    assert as_oracle(y.inverse()) == oracle.inverse(oy)
    assert as_oracle(x / y) == oracle.mul(ox, oracle.inverse(oy))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(pairs), st.integers(-3, 4))
def test_powers(pair, e):
    x, ox = pair
    assume(e >= 0 or not x.is_zero())
    assert as_oracle(x ** e) == oracle.power(ox, e)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(pairs), st.sampled_from([1, 2, 3, 4]))
def test_embedding(pair, factor):
    x, ox = pair
    order = x.order * factor
    assume(euler_phi(order) <= 48)
    assert as_oracle(x.embed(order)) == oracle.embed(ox, order)
    assert x.embed(order) == x


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(pairs), scalars)
def test_scalar_operations(pair, c):
    x, ox = pair
    oc = oracle.reduce(1, [c])
    assert as_oracle(x * c) == as_oracle(c * x) == oracle.mul(ox, oc)
    assert as_oracle(x + c) == as_oracle(c + x) == oracle.add(ox, oc)
    assert as_oracle(c - x) == oracle.sub(oc, ox)
    assert (x == c) == oracle.equal(ox, oc)
    if c:
        assert as_oracle(x / c) == oracle.mul(ox, oracle.inverse(oc))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(pairs), st.sampled_from([2, 3, 5, 7]))
def test_content_valuation(pair, p):
    x, ox = pair
    assert p_content_valuation(x, p) == oracle.valuation(ox, p)


@st.composite
def power_basis_coordinates(draw):
    """(N, phi(N) coordinates): zero, negative, integral and non-integral
    alike, and each one the element's own, since none needs reducing."""
    order = draw(st.sampled_from((1, 3, 4, 8, 9, 12, 25)))
    return order, draw(st.lists(scalars, min_size=euler_phi(order), max_size=euler_phi(order)))


@settings(max_examples=150, deadline=None)
@given(power_basis_coordinates())
def test_record_writes_each_coordinate_as_its_fraction(drawn):
    order, coords = drawn
    x = CyclotomicElement(order, coords)
    record = x.record()
    assert record["order"] == order
    assert record["coeffs"] == [str(Fraction(c, x.den)) for c in x.num]
    assert record["coeffs"] == [str(Fraction(c)) for c in coords]
    assert CyclotomicElement(record["order"], record["coeffs"]) == x


def test_non_integral_example():
    # (1/6) (1 + 2 zeta_12 - 3/4 zeta_12^5): denominator 24 after reduction
    coeffs = [Fraction(1, 6), Fraction(1, 3), 0, 0, 0, Fraction(-1, 8)]
    x = CyclotomicElement(12, coeffs)
    assert as_oracle(x) == oracle.reduce(12, coeffs)
    assert x.den == 24
    assert p_content_valuation(x, 2) == -3 and p_content_valuation(x, 3) == -1
    assert as_oracle(x.inverse()) == oracle.inverse(oracle.reduce(12, coeffs))
