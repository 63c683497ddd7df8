"""Differential tests: CyclotomicElement against the Fraction oracle.

CyclotomicElement keeps integer numerators over one denominator; the
oracle in fraction_oracle.py keeps one Fraction per coordinate and
reduces, multiplies and inverts the schoolbook way.  Both must give the
same canonical coordinates for every operation, at orders that cover
prime powers, composites and order 1, and for a rational operand of
order 1 against any order.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import fraction_oracle as oracle
from bezout_oracle import bezout_constant
from lcong.cli import EXIT_OK, main
from lcong.cyclotomic import CyclotomicElement, congruent_mod, euler_phi, p_content_valuation

ORDERS = (1, 3, 4, 5, 8, 9, 12, 20, 25, 42)
# Operand orders that combine: one order, or order 1 against any.
ORDER_PAIRS = [(a, b) for a in ORDERS for b in ORDERS if a == b or 1 in (a, b)]

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
    return oracle.to_element(order, coeffs), oracle.reduce(order, coeffs)


@st.composite
def operands(draw):
    a, b = draw(st.sampled_from(ORDER_PAIRS))
    return draw(pairs(a)), draw(pairs(b))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(pairs))
def test_construction_reduces_like_the_oracle(pair):
    x, ox = pair
    assert oracle.element(x) == ox
    assert math.gcd(x.den, *x.num) == 1 and x.den > 0


#: Orders N = 1 and 2, small even N, and the N = phi(p^m) of conductors 49,
#: 343, 3^6 and 2^11; every even N is reduced by zeta^(N/2) = -1 first.
FOLD_ORDERS = (1, 2, 4, 6, 42, 98, 294, 486, 1024)


@pytest.mark.parametrize("order", FOLD_ORDERS)
def test_constructor_reduces_long_vectors_like_long_division(order):
    # Lengths 0, N/2, N (a character sum), N - 1 + phi(N) (the longest
    # shift of times_binomial) and 2N + 1, over 40-digit numerators.
    rng = random.Random(order)
    bound = 10**40
    for length in (0, order // 2, order, order - 1 + euler_phi(order), 2 * order + 1):
        for _ in range(2):
            num = [rng.randint(-bound, bound) for _ in range(length)]
            den = rng.randint(1, 10**6)
            x = CyclotomicElement(order, num, den)
            assert oracle.element(x) == oracle.reduce(order, [Fraction(c, den) for c in num])
            assert len(x.num) == euler_phi(order) and math.gcd(x.den, *x.num) == 1


def test_constructor_takes_any_integer_sequence_and_leaves_it_alone():
    num = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3]  # longer than N = 6
    x = CyclotomicElement(6, tuple(num), 4)
    assert oracle.element(x) == oracle.reduce(6, [Fraction(c, 4) for c in num])
    assert CyclotomicElement(6, num, 4) == CyclotomicElement(6, iter(num), 4) == x
    assert num == [3, -1, 4, 1, -5, 9, 2, -6, 5, 3]
    assert repr(x) == f"CyclotomicElement(6, {list(x.num)}, {x.den})"
    assert eval(repr(x)) == x
    assert str(oracle.to_element(4, ["1/2", 3])) == "1/2 + 3*z4"


@pytest.mark.parametrize("order, num, den", [
    (0, [1], 1), (-4, [1], 1), (4, [1], 0), (4, [1], -2),
])
def test_constructor_refuses_order_or_den_below_one(order, num, den):
    with pytest.raises(ValueError, match="must be >= 1"):
        CyclotomicElement(order, num, den)


@pytest.mark.parametrize("num", [[Fraction(1, 2), 3], ["1/2", 3], [1, 0.5]])
def test_constructor_takes_integer_numerators_only(num):
    # Fraction and "n/d" coefficients go through oracle.to_element.
    with pytest.raises(TypeError):
        CyclotomicElement(4, num)


@settings(max_examples=150, deadline=None)
@given(operands())
def test_ring_operations(ops):
    (x, ox), (y, oy) = ops
    assert oracle.element(x + y) == oracle.add(ox, oy)
    assert oracle.element(x - y) == oracle.sub(ox, oy)
    assert (x == y) == oracle.equal(ox, oy)
    assert (x == x + y) == oracle.equal(oy, oracle.reduce(1, []))


@settings(max_examples=100, deadline=None)
@given(operands())
def test_division_and_inverse(ops):
    # lcong never divides by an element: x / y is refused.  The two
    # oracles' inverses of y agree, and the oracle's products check them.
    (x, ox), (y, oy) = ops
    assume(not y.is_zero())
    inverse = oracle.to_element(*oracle.inverse(oy))
    s, c = bezout_constant(y.num, y.order)
    assert inverse == CyclotomicElement(y.order, s) * Fraction(y.den, c)
    assert oracle.product(y, inverse) == 1
    assert oracle.product(x, inverse, y) == x
    with pytest.raises(TypeError):
        x / y
    with pytest.raises(TypeError):
        1 / y


@pytest.mark.parametrize("order", ORDERS)
def test_bezout_constant_is_memoised_as_tuples(order):
    # Callers share the memoised answer, so it must be immutable.
    x = CyclotomicElement(order, [2, 1, 0, 3])
    s, c = answer = bezout_constant(x.num, order)
    assert type(s) is tuple and all(type(v) is int for v in s) and type(c) is int and c != 0
    assert bezout_constant(x.num, order) is answer
    assert oracle.product(CyclotomicElement(order, s), CyclotomicElement(order, x.num)) == c


@pytest.mark.parametrize("order", ORDERS)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_times_binomial_is_the_binomial_product(order, data):
    # (c0 + c1 zeta_N^t) x / d, formed by one shift and one reduction, is
    # the oracle's product by the binomial, for t in [-2N, 2N].  Each
    # example also takes c0 = 0 with a d > 1.
    x, ox = data.draw(pairs(order))
    t = data.draw(st.integers(-2 * order, 2 * order))
    c0, c1 = data.draw(st.integers(-60, 60)), data.draw(st.integers(-60, 60))
    d = data.draw(st.integers(1, 12))
    for c0, d in ((c0, d), (0, d + 1)):
        got = x.times_binomial(c0, c1, t, d)
        binomial = [0] * (t % order + 1)
        binomial[0] += c0
        binomial[t % order] += c1
        product = oracle.mul(oracle.reduce(order, binomial), ox)
        assert oracle.element(got) == (order, tuple(c / d for c in product[1]))
        assert got.den > 0 and math.gcd(got.den, *got.num) == 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(pairs), scalars)
def test_scalar_operations(pair, c):
    x, ox = pair
    oc = oracle.reduce(1, [c])
    assert oracle.element(x * c) == oracle.element(c * x) == oracle.mul(ox, oc)
    assert oracle.element(x + c) == oracle.element(c + x) == oracle.add(ox, oc)
    assert oracle.element(c - x) == oracle.sub(oc, ox)
    assert (x == c) == oracle.equal(ox, oc)
    if c:
        assert oracle.element(x / c) == oracle.mul(ox, oracle.inverse(oc))


# Every order N with phi(N) <= 16.
SMALL_ORDERS = [n for n in range(1, 61) if euler_phi(n) <= 16]
scalar_operands = st.one_of(st.sampled_from([0, Fraction(0), -1, Fraction(-1, 3)]), scalars)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_ORDERS).flatmap(pairs), scalar_operands)
def test_scalar_paths_at_every_small_order(pair, c):
    # Adding, subtracting and dividing by an int or a Fraction touch the
    # fields directly; each agrees with the Fraction oracle and with the
    # element path (the scalar product by 1/c, for division), in
    # canonical form.
    x, ox = pair
    oc, generic = oracle.reduce(1, [c]), CyclotomicElement.from_rational(c, x.order)
    for got, want, expected in ((x + c, x + generic, oracle.add(ox, oc)),
                                (x - c, x - generic, oracle.sub(ox, oc)),
                                (c - x, generic - x, oracle.sub(oc, ox))):
        assert oracle.element(got) == expected
        assert fields(got) == fields(want)
        assert got.den > 0 and math.gcd(got.den, *got.num) == 1
    if c:
        got = x / c
        assert oracle.element(got) == oracle.mul(ox, oracle.inverse(oc))
        assert fields(got) == fields(x * (1 / Fraction(c)))
        assert got.den > 0 and math.gcd(got.den, *got.num) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            x / c


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_ORDERS).flatmap(
           lambda order: st.tuples(pairs(order), st.one_of(
               pairs(order), pairs(1), scalar_operands.map(lambda c: (c,))))),
       st.sampled_from([2, 3, 5, 7]), st.integers(-2, 6))
def test_congruent_mod_reads_the_content_of_the_difference(operands, p, n):
    # y has x's order, order 1, or is an int or a Fraction.
    pair, other = operands
    x, y = pair[0], other[0]
    margin = p_content_valuation(x - y, p)
    assert congruent_mod(x, y, p, n) == (margin >= n, margin)


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
    x = oracle.to_element(order, coords)
    record = x.record()
    assert record["order"] == order
    assert record["coeffs"] == [str(Fraction(c, x.den)) for c in x.num]
    assert record["coeffs"] == [str(Fraction(c)) for c in coords]
    assert oracle.to_element(record["order"], record["coeffs"]) == x


def fields(x):
    return x.order, x.num, x.den


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ORDERS).flatmap(pairs))
def test_from_record_reads_what_record_writes(pair):
    x, _ = pair
    assert fields(CyclotomicElement.from_record(x.order, x.record()["coeffs"])) == fields(x)


def test_from_record_matches_the_fraction_route_on_a_cache_file(tmp_path):
    # Values for foreign moduli (ernvall's chi mod 8, 16 and 11) and 1.6's own.
    path, config = tmp_path / "values.jsonl", tmp_path / "config.json"
    config.write_text(json.dumps({"cache": str(path), "jobs": [
        {"id": "ernvall", "chi_p": [2], "chi_m": [3, 4], "p": [3], "k": "1..6", "l": [1], "n": [1]},
        {"id": "ernvall", "chi_p": [11], "chi_m": [1], "p": [3], "k": "1..6", "l": [1], "n": [1]},
        {"id": "1.6", "p": [3, 5, 7], "m": [1, 2], "k": "0..2", "n": [1], "q": [1]},
    ]}))
    assert main(["sweep", "--config", str(config)]) == EXIT_OK
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) > 100
    assert any("/" in c for record in records for c in record["coeffs"])
    for record in records:
        order, coeffs = record["order"], record["coeffs"]
        assert fields(CyclotomicElement.from_record(order, coeffs)) == fields(
            oracle.to_element(order, coeffs))


#: Fraction or int() spellings of a coordinate, and JSON values that are
#: not strings: none is what record() writes, so each is refused.
UNWRITTEN = [
    "1.5", "1e3", "+3", " 3", "3 ", "3\n", "3/", "/3", "--3", "", "1/-2", "1/0", "1/00",
    "1/2/3", "0x10", "1_0", "\u0661", "1/\u0662", 3, True, 0.5, None,
]


@pytest.mark.parametrize("coeffs", [
    *(["1", coeff] for coeff in UNWRITTEN),
    ["1"], ["1", "0", "0"], "10", ("1", "0"), None,  # not a list of phi(4) = 2 entries
])
def test_from_record_rejects_what_record_never_writes(coeffs):
    with pytest.raises(ValueError):
        CyclotomicElement.from_record(4, coeffs)


def test_non_integral_example():
    # (1/6) (1 + 2 zeta_12 - 3/4 zeta_12^5): denominator 24 after reduction
    coeffs = [Fraction(1, 6), Fraction(1, 3), 0, 0, 0, Fraction(-1, 8)]
    x = oracle.to_element(12, coeffs)
    assert oracle.element(x) == oracle.reduce(12, coeffs)
    assert x.den == 24
    assert p_content_valuation(x, 2) == -3 and p_content_valuation(x, 3) == -1
    assert oracle.product(x, oracle.to_element(*oracle.inverse(oracle.reduce(12, coeffs)))) == 1
