"""Sequence values are checked against independent power-series oracles:
Bernoulli numbers against inversion of (e^t - 1)/t, Euler numbers against
inversion of cosh t, and twisted Bernoulli numbers against division of
the character exponential sum by (e^(ft) - 1)/t."""

import math
from fractions import Fraction

import pytest

from lcong.bernoulli import (
    BernoulliCache,
    ParityError,
    UndefinedCaseError,
    l_value,
    script_l,
)
from lcong.characters import (
    MAX_INDEX,
    DomainError,
    ResourceLimitError,
    character,
    enumerate_characters,
    enumerate_primitive,
    opposite_parity,
)
from lcong.cyclotomic import CyclotomicElement, p_content_valuation
from lcong.power_sums import floor_weighted_sum, power_sum
from bernoulli_oracle import bernoulli_polynomial, bernoulli_recurrence, euler_recurrence
import fraction_oracle
from fraction_oracle import coordinates
from moment_oracle import moment_twisted_bernoulli


def invert_series(coeffs, length):
    # 1/f for a power series f with nonzero constant term
    inv = [None] * length
    inv[0] = 1 / coeffs[0]
    for n in range(1, length):
        acc = sum(
            coeffs[i] * inv[n - i] for i in range(1, min(n, len(coeffs) - 1) + 1)
        )
        inv[n] = -acc * inv[0]
    return inv


def bernoulli_series_oracle(length):
    # t/(e^t - 1): invert sum_i t^i/(i+1)!
    f = [Fraction(1, math.factorial(i + 1)) for i in range(length)]
    return [math.factorial(k) * c for k, c in enumerate(invert_series(f, length))]


def euler_series_oracle(length):
    # sech t = 1/cosh t
    cosh = [
        Fraction(1, math.factorial(i)) if i % 2 == 0 else Fraction(0)
        for i in range(length)
    ]
    return [math.factorial(k) * c for k, c in enumerate(invert_series(cosh, length))]


def direct_twisted_bernoulli(chi, k):
    # Literal evaluation of f^(k-1) sum_a chi(a) B_k(a/f) in Fractions, one
    # residue at a time: the identity production evaluates through scaled
    # integer rows.  The independent route is moment_oracle's moment formula.
    f = chi.modulus
    return sum(
        (chi(a) * bernoulli_polynomial(k, Fraction(a, f)) for a in range(1, f + 1)),
        CyclotomicElement.zero(chi.zeta_order),
    ) * Fraction(f) ** (k - 1)


def twisted_bernoulli_series_oracle(chi, length):
    # coefficients of (sum_a chi(a) e^(at)) / ((e^(ft) - 1)/t)
    f = chi.modulus
    num = [
        sum(
            (chi(a) * Fraction(a**i, math.factorial(i)) for a in range(1, f + 1)),
            CyclotomicElement.zero(chi.zeta_order),
        )
        for i in range(length)
    ]
    den = [Fraction(f ** (i + 1), math.factorial(i + 1)) for i in range(length)]
    out = []
    for n in range(length):
        acc = num[n]
        for i in range(1, n + 1):
            acc = acc - out[n - i] * den[i]
        out.append(acc * (Fraction(1) / den[0]))
    return [coeff * math.factorial(k) for k, coeff in enumerate(out)]


class TestBernoulliNumbers:
    def test_first_values(self, memo):
        assert memo.bernoulli(0) == 1
        assert memo.bernoulli(1) == Fraction(-1, 2)
        assert memo.bernoulli(2) == Fraction(1, 6)
        assert memo.bernoulli(4) == Fraction(-1, 30)
        assert memo.bernoulli(12) == Fraction(-691, 2730)

    def test_against_series_oracle(self, memo):
        oracle = bernoulli_series_oracle(31)
        for k in range(31):
            assert memo.bernoulli(k) == oracle[k], k

    def test_odd_vanishing(self, memo):
        assert all(memo.bernoulli(k) == 0 for k in range(3, 30, 2))


class TestBernoulliPolynomial:
    def test_linear(self):
        assert bernoulli_polynomial(1, 0) == Fraction(-1, 2)
        assert bernoulli_polynomial(1, Fraction(1, 2)) == 0

    def test_quadratic_midpoint(self):
        assert bernoulli_polynomial(2, Fraction(1, 2)) == Fraction(-1, 12)

    def test_value_at_zero_is_bernoulli(self, memo):
        for k in range(20):
            assert bernoulli_polynomial(k, 0) == memo.bernoulli(k)

    def test_difference_property(self):
        # B_k(x+1) - B_k(x) = k x^(k-1)
        for k in range(1, 12):
            for x in (Fraction(0), Fraction(2, 3), Fraction(-5, 4)):
                diff = bernoulli_polynomial(k, x + 1) - bernoulli_polynomial(k, x)
                assert diff == k * x ** (k - 1)


class TestEulerNumbers:
    def test_first_values(self, memo):
        assert [memo.euler(k) for k in range(9)] == [1, 0, -1, 0, 5, 0, -61, 0, 1385]

    def test_against_series_oracle(self, memo):
        oracle = euler_series_oracle(21)
        for k in range(21):
            assert memo.euler(k) == oracle[k], k

    def test_odd_vanishing(self, memo):
        assert all(memo.euler(k) == 0 for k in range(1, 40, 2))


class TestSeidelTriangle:
    """B_k and E_k both read one integer triangle.  The binomial
    recurrences are the slow route for k <= 300; beyond them, von
    Staudt-Clausen and the signs check every even k <= 1000."""

    LIMIT = 1000

    @pytest.fixture(scope="class")
    def recurrences(self):
        return bernoulli_recurrence(300), euler_recurrence(300)

    @pytest.fixture(scope="class")
    def grown(self):
        cache = BernoulliCache()
        cache.bernoulli(self.LIMIT)
        return cache

    def test_one_index_at_a_time_matches_the_recurrences(self, recurrences):
        cache = BernoulliCache()
        values = [(cache.bernoulli(k), cache.euler(k)) for k in range(301)]
        assert [b for b, _ in values] == recurrences[0]
        assert [e for _, e in values] == recurrences[1]
        assert all(type(b) is Fraction and type(e) is int for b, e in values)

    @pytest.mark.parametrize("first", ["bernoulli", "euler"])
    def test_one_jump_matches_the_recurrences(self, recurrences, first):
        cache = BernoulliCache()
        getattr(cache, first)(300)
        assert [cache.bernoulli(k) for k in range(301)] == recurrences[0]
        assert [cache.euler(k) for k in range(301)] == recurrences[1]

    def test_von_staudt_clausen_and_bernoulli_signs(self, grown):
        primes = [q for q in range(2, self.LIMIT + 2) if all(q % d for d in range(2, q))]
        for k in range(2, self.LIMIT + 1, 2):
            b = grown.bernoulli(k)
            assert b.denominator == math.prod(q for q in primes if k % (q - 1) == 0), k
            assert (b > 0) == (k % 4 == 2), k

    def test_euler_numbers_are_odd_with_alternating_signs(self, grown):
        for k in range(0, self.LIMIT + 1, 2):
            e = grown.euler(k)
            assert e % 2 == 1 and (e > 0) == (k % 4 == 0), k


def test_index_above_the_bound_is_refused_before_anything_grows(chi8):
    cache = BernoulliCache()
    for lookup in (cache.bernoulli, cache.euler, lambda k: cache.twisted_bernoulli(chi8, k)):
        with pytest.raises(ResourceLimitError,
                           match=f"^index {MAX_INDEX + 1} exceeds Bernoulli/Euler index bound"):
            lookup(MAX_INDEX + 1)
    assert cache._zigzag_numbers == [1] and not cache._rows and not cache._twisted


@pytest.mark.parametrize("lookup", [
    lambda cache, chi: cache.bernoulli(-1),
    lambda cache, chi: cache.euler(-1),
    lambda cache, chi: cache.twisted_bernoulli(chi, -1),
    lambda cache, chi: l_value(-1, chi, cache),
    lambda cache, chi: script_l(-1, chi, cache),
    lambda cache, chi: power_sum(-1, 8, chi),
    lambda cache, chi: floor_weighted_sum(-1, 3, 2, 3, chi),
], ids=["bernoulli", "euler", "twisted_bernoulli", "l_value", "script_l", "power_sum",
        "floor_weighted_sum"])
def test_negative_index_is_a_domain_error_everywhere(chi_minus8, lookup):
    # Every index is checked against the one range 0..MAX_INDEX, so index -1
    # is a skip wherever it is asked for, and no value is computed for it.
    cache = BernoulliCache()
    with pytest.raises(DomainError):
        lookup(cache, chi_minus8)
    assert cache.take_new() == {}


class TestTwistedBernoulli:
    def test_minus4_first(self, chi4, memo):
        assert memo.twisted_bernoulli(chi4, 1) == Fraction(-1, 2)

    def test_mod8_values(self, chi8, memo):
        assert memo.twisted_bernoulli(chi8, 2) == 2
        assert memo.twisted_bernoulli(chi8, 4) == -44

    def test_against_series_oracle(self, chi4, chi8, memo):
        for chi in (chi4, chi8, character(3, 2, (1,)), character(5, 1, (1,))):
            oracle = twisted_bernoulli_series_oracle(chi, 9)
            for k in range(9):
                assert memo.twisted_bernoulli(chi, k) == oracle[k], (chi.label(), k)

    def test_against_direct_polynomial_formula(self, memo):
        for chi in (
            character(2, 3, (1, 1)),
            character(3, 2, (1,)),
            character(5, 2, (3,)),
            character(7, 1, (1,)),
        ):
            for k in range(11):
                direct = direct_twisted_bernoulli(chi, k)
                assert memo.twisted_bernoulli(chi, k) == direct, (chi.label(), k)

    @pytest.mark.parametrize(
        "pm",
        [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
         (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)],
        ids=lambda pm: f"{pm[0]}^{pm[1]}",
    )
    def test_against_moment_oracle(self, pm):
        # Every character, imprimitive ones and the character mod 2 included;
        # one fresh cache per modulus, so its characters share the rows.
        cache = BernoulliCache()
        for chi in enumerate_characters(*pm):
            for k in range(25):
                expected = moment_twisted_bernoulli(chi, k)
                assert cache.twisted_bernoulli(chi, k) == expected, (chi.label(), k)

    def test_wrong_parity_vanishing(self, memo):
        for p, m in ((2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)):
            if p**m > 49:
                continue
            for chi in enumerate_primitive(p, m):
                for k in range(13):
                    if opposite_parity(chi, k):
                        assert memo.twisted_bernoulli(chi, k).is_zero()

    def test_zeroth_is_zero_for_nontrivial(self, memo):
        for chi in enumerate_primitive(3, 2):
            assert memo.twisted_bernoulli(chi, 0).is_zero()

    def test_modulus_vs_conductor_consistency(self, chi4, memo):
        # The character of conductor 4 evaluated as a character mod 8
        # is the same function on the integers, so its twisted Bernoulli
        # numbers agree with the conductor-4 computation once the oracle
        # embeds Q(zeta_2) into Q(zeta_4).
        lifted = character(2, 3, (1, 0))
        assert lifted.conductor() == 4
        for k in range(8):
            assert fraction_oracle.equal(fraction_oracle.element(memo.twisted_bernoulli(lifted, k)),
                                     fraction_oracle.element(memo.twisted_bernoulli(chi4, k)))


class TestLValues:
    def test_quartic_at_zero(self, chi4, memo):
        assert l_value(0, chi4, memo) == Fraction(1, 2)

    def test_euler_identity(self, chi4, memo):
        for k in range(0, 31, 2):
            assert l_value(k, chi4, memo) * 2 == memo.euler(k)

    def test_mod8(self, chi8, memo):
        assert l_value(1, chi8, memo) == -1
        assert l_value(3, chi8, memo) == 11

    def test_parity_error(self, chi4, chi8, memo):
        with pytest.raises(ParityError):
            l_value(1, chi4, memo)
        with pytest.raises(ParityError):
            l_value(0, chi8, memo)

    def test_memo_matches_a_fresh_bernoulli_quotient(self):
        # Every L(-k, chi) a warm memo answers, the second time from the
        # memo itself, against -B_(k+1,chi)/(k+1) formed with a Fraction
        # from a cache that never forms an L-value.
        warm, reference, checked = BernoulliCache(), BernoulliCache(), 0
        for p, m in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)):
            for chi in enumerate_primitive(p, m):
                for k in range(13):
                    if not opposite_parity(chi, k):
                        with pytest.raises(ParityError):
                            l_value(k, chi, warm)
                        continue
                    expected = reference.twisted_bernoulli(chi, k + 1) * Fraction(-1, k + 1)
                    value = l_value(k, chi, warm)
                    assert value == expected, (chi.label(), k)
                    assert l_value(k, chi, warm) is value
                    checked += 1
        assert len(warm._l_values) == checked > 0 and not reference._l_values

    def test_seeded_value_replaces_memoized_one(self, chi8):
        cache = BernoulliCache()
        assert l_value(3, chi8, cache) == 11
        # L(-3, chi) is built on B_(4,chi); seeding another B_(4,chi) must
        # not leave the old L(-3, chi) behind, and leaves L(-1, chi) alone.
        seeded = CyclotomicElement(chi8.zeta_order, [-45, 2])
        cache.store_twisted((chi8.key(), 4), seeded)
        assert l_value(3, chi8, cache) == seeded * Fraction(-1, 4)
        assert l_value(1, chi8, cache) == -1


class TestScriptL:
    def test_mod8_values(self, chi8, memo):
        assert script_l(1, chi8, memo) == -2
        assert script_l(3, chi8, memo) == 22

    def test_undefined_cases(self, chi4, memo):
        with pytest.raises(UndefinedCaseError):
            script_l(0, chi4, memo)  # p = 2 with m = 2
        with pytest.raises(UndefinedCaseError):
            script_l(0, character(3, 1, (1,)), memo)  # odd p with m = 1
        with pytest.raises(UndefinedCaseError):
            script_l(1, character(3, 2, (0,)), memo)  # imprimitive

    def test_parity_error_propagates(self, chi8, memo):
        with pytest.raises(ParityError):
            script_l(0, chi8, memo)

    @pytest.mark.parametrize("pm", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_p_integrality(self, pm, memo):
        # For p = 2 the normalized value is a full multiple of 2; for odd
        # p it is p-integral.
        p, m = pm
        bound = 1 if p == 2 else 0
        for chi in enumerate_primitive(p, m):
            start = 0 if chi.is_odd() else 1
            for k in range(start, 21, 2):
                assert p_content_valuation(script_l(k, chi, memo), p) >= bound, (pm, chi.label(), k)

    @pytest.mark.parametrize("pm", [(2, 3), (2, 4), (2, 5), (3, 2), (5, 2), (3, 3)],
                             ids=lambda pm: f"{pm[0]}^{pm[1]}")
    def test_memo_matches_unmemoized_route(self, pm):
        # One warm cache answers every L*_k (the second call is a memo
        # hit); the reference builds (1 - chi(u)) L(-k, chi) on a fresh
        # cache per value, so no memo entry can leak into it.
        p, m = pm
        unit = 5 if p == 2 else p + 1
        warm = BernoulliCache()
        checked = 0
        for chi in enumerate_primitive(p, m):
            for k in range(13):
                if not opposite_parity(chi, k):
                    continue
                expected = fraction_oracle.product(1 - chi(unit), l_value(k, chi, BernoulliCache()))
                assert script_l(k, chi, warm) == expected, (chi.label(), k)
                assert script_l(k, chi, warm) == expected, (chi.label(), k)
                checked += 1
        assert len(warm._script_l) == checked > 0

    def test_seeded_value_replaces_memoized_one(self, chi8):
        cache = BernoulliCache()
        assert script_l(3, chi8, cache) == 22
        # L*_3 is built on B_(4,chi); seeding another B_(4,chi) must not
        # leave the old L*_3 behind.
        cache.store_twisted((chi8.key(), 4), CyclotomicElement(chi8.zeta_order, [-45]))
        assert script_l(3, chi8, cache) == (1 - chi8(5)) * Fraction(45, 4)
        assert script_l(1, chi8, cache) == -2


class TestDenominatorStructure:
    @pytest.mark.parametrize("pm", [(2, 3), (2, 4), (3, 2), (5, 1), (7, 1)])
    def test_supported_on_conductor_primes(self, pm, memo):
        p, m = pm
        for chi in enumerate_primitive(p, m):
            f = chi.modulus
            for k in range(9):
                element = memo.twisted_bernoulli(chi, k + 1) * (k + 1) * f
                for c in coordinates(element):
                    d = c.denominator
                    while d % p == 0:
                        d //= p
                    assert d == 1


class TestCache:
    def test_isolated_cache_instances_agree(self, chi8):
        a, b = BernoulliCache(), BernoulliCache()
        assert a.twisted_bernoulli(chi8, 6) == b.twisted_bernoulli(chi8, 6)
        assert a.bernoulli(20) == b.bernoulli(20)

    def test_descending_requests_match_a_fresh_cache(self):
        # Requests in descending k, interleaved over characters, grow the
        # B_k and E_k lists in one jump each; every value must match a
        # cache that grew them one index at a time.
        chis = [character(2, 5, (e1, e2)) for e1 in (0, 1) for e2 in (1, 3, 5)]
        shared = BernoulliCache()
        for k in range(30, 0, -1):
            shared.euler(k)
            for chi in chis:
                shared.twisted_bernoulli(chi, k)
        reference = BernoulliCache()
        for k in range(31):
            assert shared.bernoulli(k) == reference.bernoulli(k), k
            assert shared.euler(k) == reference.euler(k), k
            for chi in chis:
                assert shared.twisted_bernoulli(chi, k) == reference.twisted_bernoulli(chi, k), (
                    chi.label(), k,
                )

    def test_repeated_script_l_passes_match_a_fresh_cache(self):
        # The second and third passes read the L* memo the first one
        # filled; every value must equal the one a fresh cache computes.
        chis = enumerate_primitive(2, 4) + enumerate_primitive(3, 2)
        jobs = [(k, chi) for k in range(12, -1, -1) for chi in chis if opposite_parity(chi, k)]
        shared = BernoulliCache()
        got = [script_l(k, chi, shared) for k, chi in jobs * 3]
        assert got == [script_l(k, chi, BernoulliCache()) for k, chi in jobs * 3]

    def test_dirty_key_tracking(self, chi8):
        cache = BernoulliCache()
        cache.twisted_bernoulli(chi8, 4)
        assert (chi8.key(), 4) in cache.take_new()
        seeded = BernoulliCache()
        seeded.store_twisted((chi8.key(), 4), cache._twisted[(chi8.key(), 4)])
        assert not seeded.take_new()
        assert seeded.twisted_bernoulli(chi8, 4) == cache.twisted_bernoulli(chi8, 4)

    def test_take_new_hands_each_computed_value_over_once_in_key_order(self, chi8):
        chi16 = character(2, 4, (1, 1))
        cache = BernoulliCache()
        # Seeded values are never new: a value seeded over a computed one,
        # and a builder, as a file load seeds it, that a lookup then builds.
        cache.twisted_bernoulli(chi16, 3)
        cache.store_twisted((chi16.key(), 3), BernoulliCache().twisted_bernoulli(chi16, 3))
        cache.store_twisted((chi8.key(), 6), lambda: BernoulliCache().twisted_bernoulli(chi8, 6))
        for chi, k in ((chi16, 2), (chi8, 4), (chi8, 2), (chi8, 6)):
            cache.twisted_bernoulli(chi, k)
        computed = [(chi16.key(), 2), (chi8.key(), 4), (chi8.key(), 2)]
        new = cache.take_new()
        assert list(new) == sorted(computed) != computed
        assert all(new[key] is cache.stored_twisted(key) for key in computed)
        assert cache.take_new() == {}
