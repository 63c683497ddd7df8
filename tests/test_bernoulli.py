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
    bernoulli_number,
    euler_number,
    generalized_bernoulli,
    l_value,
    script_l,
)
from lcong.characters import (
    character,
    enumerate_characters,
    enumerate_primitive,
    opposite_parity,
)
from lcong.cyclotomic import CyclotomicElement, p_content_valuation
from bernoulli_oracle import bernoulli_polynomial
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
    def test_first_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(4) == Fraction(-1, 30)
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_against_series_oracle(self):
        oracle = bernoulli_series_oracle(31)
        for k in range(31):
            assert bernoulli_number(k) == oracle[k], k

    def test_odd_vanishing(self):
        assert all(bernoulli_number(k) == 0 for k in range(3, 30, 2))


class TestBernoulliPolynomial:
    def test_linear(self):
        assert bernoulli_polynomial(1, 0) == Fraction(-1, 2)
        assert bernoulli_polynomial(1, Fraction(1, 2)) == 0

    def test_quadratic_midpoint(self):
        assert bernoulli_polynomial(2, Fraction(1, 2)) == Fraction(-1, 12)

    def test_value_at_zero_is_bernoulli(self):
        for k in range(20):
            assert bernoulli_polynomial(k, 0) == bernoulli_number(k)

    def test_difference_property(self):
        # B_k(x+1) - B_k(x) = k x^(k-1)
        for k in range(1, 12):
            for x in (Fraction(0), Fraction(2, 3), Fraction(-5, 4)):
                diff = bernoulli_polynomial(k, x + 1) - bernoulli_polynomial(k, x)
                assert diff == k * x ** (k - 1)


class TestEulerNumbers:
    def test_first_values(self):
        assert [euler_number(k) for k in range(9)] == [1, 0, -1, 0, 5, 0, -61, 0, 1385]

    def test_against_series_oracle(self):
        oracle = euler_series_oracle(21)
        for k in range(21):
            assert euler_number(k) == oracle[k], k

    def test_odd_vanishing(self):
        assert all(euler_number(k) == 0 for k in range(1, 40, 2))


class TestTwistedBernoulli:
    def test_minus4_first(self, chi4):
        assert generalized_bernoulli(1, chi4) == Fraction(-1, 2)

    def test_mod8_values(self, chi8):
        assert generalized_bernoulli(2, chi8) == 2
        assert generalized_bernoulli(4, chi8) == -44

    def test_against_series_oracle(self, chi4, chi8):
        for chi in (chi4, chi8, character(3, 2, (1,)), character(5, 1, (1,))):
            oracle = twisted_bernoulli_series_oracle(chi, 9)
            for k in range(9):
                assert generalized_bernoulli(k, chi) == oracle[k], (chi.label(), k)

    def test_against_direct_polynomial_formula(self):
        for chi in (
            character(2, 3, (1, 1)),
            character(3, 2, (1,)),
            character(5, 2, (3,)),
            character(7, 1, (1,)),
        ):
            for k in range(11):
                direct = direct_twisted_bernoulli(chi, k)
                assert generalized_bernoulli(k, chi) == direct, (chi.label(), k)

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

    def test_wrong_parity_vanishing(self):
        for p, m in ((2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)):
            if p**m > 49:
                continue
            for chi in enumerate_primitive(p, m):
                for k in range(13):
                    if opposite_parity(chi, k):
                        assert generalized_bernoulli(k, chi).is_zero()

    def test_zeroth_is_zero_for_nontrivial(self):
        for chi in enumerate_primitive(3, 2):
            assert generalized_bernoulli(0, chi).is_zero()

    def test_modulus_vs_conductor_consistency(self, chi4):
        # The character of conductor 4 evaluated as a character mod 8
        # is the same function on the integers, so its twisted Bernoulli
        # numbers agree with the conductor-4 computation.
        lifted = character(2, 3, (1, 0))
        assert lifted.conductor() == 4
        for k in range(8):
            assert generalized_bernoulli(k, lifted) == generalized_bernoulli(k, chi4)


class TestLValues:
    def test_quartic_at_zero(self, chi4):
        assert l_value(0, chi4) == Fraction(1, 2)

    def test_euler_identity(self, chi4):
        for k in range(0, 31, 2):
            assert l_value(k, chi4) * 2 == euler_number(k)

    def test_mod8(self, chi8):
        assert l_value(1, chi8) == -1
        assert l_value(3, chi8) == 11

    def test_parity_error(self, chi4, chi8):
        with pytest.raises(ParityError):
            l_value(1, chi4)
        with pytest.raises(ParityError):
            l_value(0, chi8)


class TestScriptL:
    def test_mod8_values(self, chi8):
        assert script_l(1, chi8) == -2
        assert script_l(3, chi8) == 22

    def test_undefined_cases(self, chi4):
        with pytest.raises(UndefinedCaseError):
            script_l(0, chi4)  # p = 2 with m = 2
        with pytest.raises(UndefinedCaseError):
            script_l(0, character(3, 1, (1,)))  # odd p with m = 1
        with pytest.raises(UndefinedCaseError):
            script_l(1, character(3, 2, (0,)))  # imprimitive

    def test_parity_error_propagates(self, chi8):
        with pytest.raises(ParityError):
            script_l(0, chi8)

    @pytest.mark.parametrize("pm", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_p_integrality(self, pm):
        # For p = 2 the normalized value is a full multiple of 2; for odd
        # p it is p-integral.
        p, m = pm
        bound = 1 if p == 2 else 0
        for chi in enumerate_primitive(p, m):
            start = 0 if chi.is_odd() else 1
            for k in range(start, 21, 2):
                assert p_content_valuation(script_l(k, chi), p) >= bound, (pm, chi.label(), k)

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
                expected = (1 - chi(unit)) * l_value(k, chi, BernoulliCache())
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
    def test_supported_on_conductor_primes(self, pm):
        p, m = pm
        for chi in enumerate_primitive(p, m):
            f = chi.modulus
            for k in range(9):
                element = generalized_bernoulli(k + 1, chi) * (k + 1) * f
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

    def test_concurrent_computation_is_consistent(self):
        # Hammer one cache from many threads over interleaved indices;
        # every stored value must match an isolated recomputation (list
        # growth inside the cache must serialize, not double-append).
        from concurrent.futures import ThreadPoolExecutor

        chis = [character(2, 5, (e1, e2)) for e1 in (0, 1) for e2 in (1, 3, 5)]
        shared = BernoulliCache()
        jobs = [(chi, k) for k in range(30, 0, -1) for chi in chis]
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda job: shared.twisted_bernoulli(*job), jobs))
        reference = BernoulliCache()
        for chi in chis:
            for k in range(31):
                assert shared.twisted_bernoulli(chi, k) == reference.twisted_bernoulli(chi, k), (
                    chi.label(), k,
                )

    def test_concurrent_script_l_is_consistent(self):
        # Pool threads share one L* memo with last-writer-wins updates and
        # no lock; with rapid thread switching every value read back must
        # still equal the one an isolated cache computes.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        chis = enumerate_primitive(2, 4) + enumerate_primitive(3, 2)
        jobs = [(k, chi) for k in range(12, -1, -1) for chi in chis if opposite_parity(chi, k)]
        shared = BernoulliCache()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda job: script_l(*job, shared), jobs * 3))
        finally:
            sys.setswitchinterval(interval)
        reference = BernoulliCache()
        assert got == [script_l(k, chi, reference) for k, chi in jobs * 3]

    def test_dirty_key_tracking(self, chi8):
        cache = BernoulliCache()
        cache.twisted_bernoulli(chi8, 4)
        assert (chi8.key(), 4) in cache.dirty_keys
        seeded = BernoulliCache()
        seeded.store_twisted((chi8.key(), 4), cache._twisted[(chi8.key(), 4)])
        assert not seeded.dirty_keys
        assert seeded.twisted_bernoulli(chi8, 4) == cache.twisted_bernoulli(chi8, 4)
