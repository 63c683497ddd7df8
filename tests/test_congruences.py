import math
from fractions import Fraction
from functools import lru_cache

import pytest

import fraction_oracle as oracle
from lcong.bernoulli import BernoulliCache, ParityError, UndefinedCaseError, script_l
from lcong.characters import (
    character, enumerate_characters, enumerate_primitive, multiplicative_order, opposite_parity,
)
from lcong.congruences import (
    _ernvall_side,
    _normalized_quotient,
    _phi_aligned,
    check_nondivisibility,
    sum_lift_excluded,
    unit_branch_witness,
    verify_character_orders,
    verify_ernvall,
    verify_euler_kummer,
    verify_floor_count,
    verify_kummer_classical,
    verify_lerch,
    verify_lvalue_shift_odd,
    verify_lvalue_shift_odd_iff,
    verify_lvalue_shift_two,
    verify_lvalue_shift_two_iff,
    verify_stern,
    verify_stern_iff,
    verify_sum_lift,
    verify_sum_twist,
    verify_sum_vanishing,
    verify_sum_vanishing_two,
    verify_sun,
    verify_twisted_voronoi,
    verify_voronoi,
)
from lcong.cyclotomic import euler_phi, zeta
from lcong.power_sums import DomainError
from divisibility_oracle import squared_normalizer_divides_p
from fraction_oracle import root_of_unity_order
from norm_oracle import least_unit_witness


class TestKummerClassical:
    def test_holding_instances(self, memo):
        assert verify_kummer_classical(5, 2, 6, 1, memo).holds
        assert verify_kummer_classical(7, 4, 10, 1, memo).holds
        assert verify_kummer_classical(5, 2, 22, 2, memo).holds  # k == l mod phi(25)

    def test_divisible_index_rejected(self, memo):
        with pytest.raises(DomainError):
            verify_kummer_classical(5, 4, 8, 1, memo)

    def test_index_mismatch_rejected(self, memo):
        with pytest.raises(DomainError):
            verify_kummer_classical(5, 2, 4, 1, memo)


def test_phi_alignment_is_the_euler_phi_test():
    # kummer and ernvall decide k == l (mod phi(p^n)) without forming p^n.
    for p in (2, 3, 5, 7, 11, 13):
        for n in range(1, 5):
            phi = euler_phi(p**n)
            for l in (0, 1, 7):
                for k in range(l - 400, l + 401):
                    assert _phi_aligned(k, l, p, n) == ((k - l) % phi == 0), (p, n, k, l)


def fraction_chain_side(chi, p, k, cache):
    """(1 - chi(p) p^(k-1)) B_(k,chi)/k by the Fraction oracle's product:
    the route verify_ernvall took before its one-pass side."""
    return oracle.product(1 - chi(p) * p ** (k - 1), cache.twisted_bernoulli(chi, k)) / k


def full_scan_witness(chi, k):
    """unit_branch_witness's test over every residue a < p^m prime to p:
    the search space unit_branch_witness had before it stopped at p - 1."""
    p = chi.p
    for a in range(1, chi.modulus):
        if a % p == 0:
            continue
        order = chi.value_order(a)
        while order % p == 0:
            order //= p
        if multiplicative_order(pow(a, k + 1, p), p, p - 1) != order:
            return a
    return None


@lru_cache(maxsize=None)
def oracle_quotient_inverse(order, t):
    """1 / (1 - zeta_N^(-t)) as an element, from the Fraction oracle's inverse."""
    divisor = 1 - zeta(order, -t)
    return oracle.to_element(*oracle.inverse(oracle.element(divisor)))


def test_shift_right_side_matches_the_division_route():
    # 1.4 and 1.7 state factor L*_d / (1 - conj(chi)(u)); lcong forms
    # -chi(u) factor L(-d, chi) instead.  Field for field, the two agree at
    # every primitive character of these conductors, d in 0..3.
    cache, cases = BernoulliCache(), 0
    for p, m in [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (7, 2)]:
        unit, factor = (5, 8) if p == 2 else (p + 1, p)
        for chi in enumerate_primitive(p, m):
            inverse = oracle_quotient_inverse(chi.zeta_order, chi.value_exponent(unit))
            for d in range(4):
                if opposite_parity(chi, d):
                    got = _normalized_quotient(chi, unit, d, factor, cache)
                    want = oracle.product(script_l(d, chi, cache) * factor, inverse)
                    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
                    assert got.record() == want.record()
                    cases += 1
    assert cases == 268


class TestErnvall:
    def test_one_pass_side_matches_the_fraction_chain(self):
        cache, cases = BernoulliCache(), 0
        for q, m, p in [(2, 3, 3), (2, 4, 5), (2, 5, 3), (2, 6, 7),
                        (11, 1, 2), (13, 1, 3), (17, 1, 2), (19, 1, 5)]:
            for chi in enumerate_primitive(q, m):
                for k in range(1, 31):
                    got = _ernvall_side(chi, p, k, cache)
                    want = fraction_chain_side(chi, p, k, cache)
                    assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
                    cases += 1
        assert cases == 82 * 30

    def test_quartic_character(self, chi4, memo):
        assert verify_ernvall(chi4, 5, 3, 7, 1, memo).holds
        assert verify_ernvall(chi4, 3, 1, 3, 1, memo).holds

    def test_conductor_power_of_p_rejected(self, memo):
        with pytest.raises(DomainError):
            verify_ernvall(character(3, 2, (1,)), 3, 1, 3, 1, memo)

    def test_trivial_conductor_rejected(self, memo):
        with pytest.raises(DomainError):
            verify_ernvall(character(3, 2, (0,)), 5, 1, 5, 1, memo)

    @pytest.mark.parametrize("p", [-5, 0, 1, 4, 6, 9])
    def test_non_prime_p_rejected(self, chi4, p, memo):
        with pytest.raises(DomainError, match="requires a prime p"):
            verify_ernvall(chi4, p, 1, 3, 1, memo)

    def test_small_sweep(self, chi4, chi8, memo):
        for chi in (chi4, chi8):
            for p in (3, 5, 7):
                for k in range(1, 5):
                    l = k + math.prod([p - 1])
                    assert verify_ernvall(chi, p, k, l, 1, memo).holds, (chi.label(), p, k)


class TestEulerKummer:
    def test_holding_instance(self, memo):
        v = verify_euler_kummer(5, 4, 8, memo)
        assert v.holds and v.lhs == 5 and v.rhs == 1385

    def test_boundary_failure_at_zero(self, memo):
        # E_0 = 1 but E_2 = -1 == 2 (mod 3): the stated congruence fails
        # at k = 0 and the verdict records it.
        v = verify_euler_kummer(3, 0, 2, memo)
        assert not v.holds and v.observed_margin == 0

    def test_equal_indices_infinite_margin(self, memo):
        v = verify_euler_kummer(3, 2, 2, memo)
        assert v.holds and v.observed_margin == math.inf

    def test_positive_grid(self, memo):
        for p in (3, 5, 7, 11):
            for k in range(2, 13, 2):
                for t in range(1, 3):
                    l = k + t * (p - 1) * (2 if (p - 1) % 2 else 1)
                    if l % 2 == 0:
                        assert verify_euler_kummer(p, k, l, memo).holds, (p, k, l)


class TestStern:
    def test_hand_checked(self, memo):
        v = verify_stern(0, 1, 1, memo)
        assert v.holds and v.lhs == -1 and v.rhs == 3
        v = verify_stern(2, 2, 1, memo)
        assert v.holds and v.lhs == -61
        v = verify_stern(0, 3, 1, memo)
        assert v.holds and v.lhs == 1385

    def test_odd_q_required(self, memo):
        with pytest.raises(DomainError):
            verify_stern(0, 1, 2, memo)

    def test_iff_agreement(self, memo):
        assert verify_stern_iff(0, 8, 3, memo).holds      # 0 == 8 mod 8: congruent
        assert verify_stern_iff(0, 4, 3, memo).holds      # 0 != 4 mod 8: must differ
        v = verify_stern_iff(2, 2, 4, memo)
        assert v.holds and v.params["congruent"]


class TestLvalueShiftTwoPower:
    def test_anchor_instance(self, chi8, memo):
        v = verify_lvalue_shift_two(chi8, 1, 1, 1, memo)
        assert v.holds
        assert v.lhs == 24 and v.rhs == -8
        assert v.required_modulus_exponent == 4
        assert v.observed_margin == 5

    def test_rejects_small_conductor(self, chi4, memo):
        with pytest.raises(DomainError):
            verify_lvalue_shift_two(chi4, 0, 1, 1, memo)

    def test_rejects_same_parity(self, chi8, memo):
        with pytest.raises(ParityError):
            verify_lvalue_shift_two(chi8, 0, 1, 1, memo)

    def test_rejects_even_q(self, chi8, memo):
        with pytest.raises(DomainError):
            verify_lvalue_shift_two(chi8, 1, 1, 2, memo)

    def test_iff_examples(self, chi8, memo):
        v = verify_lvalue_shift_two_iff(chi8, 1, 3, 1, memo)
        assert v.holds and v.params["congruent"] and v.params["expected"]
        v = verify_lvalue_shift_two_iff(chi8, 1, 1, 3, memo)
        assert v.holds and v.observed_margin == math.inf


class TestLvalueShiftOddPrime:
    def test_quadratic_mod3_outside_both_branches(self, memo):
        # 1 - chi(a) a^(k+1) is divisible by 3 for every a when chi is
        # the quadratic character mod 3 and k is even, so neither branch
        # hypothesis can be satisfied (branch ii needs m >= 2).
        chi = character(3, 1, (1,))
        assert unit_branch_witness(chi, 2) is None
        with pytest.raises(DomainError):
            verify_lvalue_shift_odd(chi, 2, 1, 1, memo)

    def test_legendre_mod5_branch_i(self, memo):
        chi = character(5, 1, (2,))
        v = verify_lvalue_shift_odd(chi, 3, 1, 1, memo)
        assert v.branch == "i" and v.id == "1.6" and v.holds

    def test_order4_mod5_never_branch_i(self):
        # Both Galois conjugates of an order-4 character mod 5 reduce to
        # the full-order residue character, so no a makes 1 - chi(a) a^(k+1)
        # prime to 5 at any even k.
        chi = character(5, 1, (1,))
        for k in (0, 2, 4, 6):
            assert unit_branch_witness(chi, k) is None

    @pytest.mark.parametrize(
        "p,m",
        [(2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)],
    )
    def test_witness_matches_norm_oracle(self, p, m):
        # The witness depends on k only through k + 1 mod p - 1, so
        # k < p - 1 is exhaustive for p <= 5.
        for chi in enumerate_primitive(p, m):
            for k in range(min(p - 1, 4)):
                assert unit_branch_witness(chi, k) == least_unit_witness(chi, k), (
                    chi.label(), k
                )

    def test_short_witness_search_matches_the_full_residue_scan(self):
        # Every character, primitive or not, of these odd conductors.
        for p, m in [(3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2),
                     (11, 1), (13, 1)]:
            for chi in enumerate_characters(p, m):
                for k in range(14):
                    assert unit_branch_witness(chi, k) == full_scan_witness(chi, k), (
                        chi.label(), k)

    def test_branch_ii_mod9(self, memo):
        chi = character(3, 2, (1,))
        v = verify_lvalue_shift_odd(chi, 0, 1, 1, memo)
        assert v.branch == "ii" and v.id == "1.7"
        assert v.holds
        assert v.params["d"] == 0

    def test_q_divisible_by_p_rejected(self, memo):
        with pytest.raises(DomainError):
            verify_lvalue_shift_odd(character(3, 2, (1,)), 0, 1, 3, memo)

    def test_reproducibility(self, memo):
        chi = character(7, 2, (1,))
        a = verify_lvalue_shift_odd(chi, 0, 1, 1, memo)
        b = verify_lvalue_shift_odd(chi, 0, 1, 1, memo)
        assert a == b

    def test_iff_requires_branch_ii(self, memo):
        with pytest.raises(DomainError):
            verify_lvalue_shift_odd_iff(character(5, 1, (2,)), 3, 1, 1, memo)

    def test_iff_margin_is_valuation_of_h(self, memo):
        # The shift difference L*_(k+(p-1)h) - L*_k has 3-content
        # valuation exactly val_3(h); frozen from exact computation.
        chi = character(3, 2, (1,))
        for n in (1, 2):
            for h, vh in ((1, 0), (2, 0), (3, 1), (6, 1), (9, 2)):
                v = verify_lvalue_shift_odd_iff(chi, 0, h, n, memo)
                assert v.observed_margin == vh, (n, h, v.observed_margin)

    def test_iff_aligned_form_agrees_everywhere(self, memo):
        # With the alignment h == 0 (mod p^n), congruence and
        # divisibility agree in both directions at every sampled point.
        chi = character(3, 2, (1,))
        for n in (1, 2):
            for h in (0, 1, 2, 3, 6, 9, 18, 27):
                v = verify_lvalue_shift_odd_iff(chi, 0, h, n, memo)
                assert v.params["congruent"] == v.params["expected_aligned"], (n, h)

    def test_iff_as_printed_fails_at_boundary(self, memo):
        # The p^(n-1) alignment disagrees exactly when val_3(h) = n - 1:
        # the difference then has valuation n - 1, one power short.
        chi = character(3, 2, (1,))
        v = verify_lvalue_shift_odd_iff(chi, 0, 1, 1, memo)
        assert not v.holds and v.params["expected"] and not v.params["congruent"]
        v = verify_lvalue_shift_odd_iff(chi, 0, 3, 2, memo)
        assert not v.holds and v.params["expected"] and not v.params["congruent"]
        v = verify_lvalue_shift_odd_iff(chi, 0, 9, 2, memo)
        assert v.holds and v.params["congruent"]


class TestTwistedVoronoi:
    def test_anchor_instance(self, chi8, memo):
        v = verify_twisted_voronoi(chi8, 3, 1, 3, memo)
        assert v.holds and v.lhs == -10 and v.rhs == -18
        assert v.observed_margin == 3

    def test_trivial_at_a_one(self, chi8, memo):
        v = verify_twisted_voronoi(chi8, 1, 1, 3, memo)
        assert v.lhs.is_zero() and v.rhs.is_zero() and v.holds

    def test_quartic_character_instance(self, chi4, memo):
        v = verify_twisted_voronoi(chi4, 3, 2, 2, memo)
        assert v.holds

    def test_small_n_for_small_p_rejected(self, chi4, memo):
        with pytest.raises(DomainError):
            verify_twisted_voronoi(chi4, 3, 2, 1, memo)  # p = 2 needs n >= 2... and n >= m

    def test_even_a_rejected(self, chi8, memo):
        with pytest.raises(DomainError):
            verify_twisted_voronoi(chi8, 4, 1, 3, memo)


class TestClassicalVoronoi:
    def test_hand_checked(self, memo):
        v = verify_voronoi(2, 5, 4, memo)
        assert v.holds and v.lhs == Fraction(-1, 2)

    def test_a_one_trivial(self, memo):
        v = verify_voronoi(1, 5, 4, memo)
        assert v.lhs.is_zero() and v.rhs.is_zero()

    def test_full_residue_degenerate_index(self, memo):
        # (p-1) | k: both sides stay congruent because a^k == 1 (mod p)
        # cancels the von Staudt-Clausen pole.
        v = verify_voronoi(3, 7, 6, memo)
        assert v.holds

    def test_p_divides_a_rejected(self, memo):
        with pytest.raises(DomainError):
            verify_voronoi(5, 5, 4, memo)


class TestSun:
    def test_hand_checked(self, memo):
        v = verify_sun(0, 2, memo)
        assert v.holds and v.lhs == 1 and v.rhs == 1

    def test_small_grid(self, memo):
        for k in range(0, 13, 2):
            for n in range(1, 6):
                assert verify_sun(k, n, memo).holds, (k, n)

    def test_odd_k_rejected(self, memo):
        with pytest.raises(DomainError):
            verify_sun(1, 2, memo)


class TestLerch:
    def test_hand_checked(self):
        v = verify_lerch(3, 5)
        assert v.holds and v.lhs == 1 and v.rhs == 1

    def test_a_one_trivial(self):
        v = verify_lerch(1, 5)
        assert v.lhs.is_zero() and v.rhs.is_zero()

    def test_prime_power_moduli(self):
        for n in (5, 8, 9, 16, 27):
            for a in range(1, n):
                if math.gcd(a, n) == 1:
                    assert verify_lerch(a, n).holds, (a, n)

    def test_composite_modulus(self):
        assert verify_lerch(7, 15).holds

    def test_shared_factor_rejected(self):
        with pytest.raises(DomainError):
            verify_lerch(3, 9)


class TestNondivisibility:
    def test_mod8_sharp(self, chi8, memo):
        v = check_nondivisibility(chi8, 1, memo)
        assert v.holds and v.observed_margin == 1

    def test_mod27(self, memo):
        for chi in enumerate_primitive(3, 3):
            d = 0 if chi.is_odd() else 1
            v = check_nondivisibility(chi, d, memo)
            assert v.holds, (chi.label(), v.observed_margin)

    def test_trivial_character_rejected(self, memo):
        with pytest.raises(UndefinedCaseError):
            check_nondivisibility(character(3, 2, (0,)), 1, memo)

    def test_squared_normalizer_observation(self):
        # (1 - chi(p+1))^2 divides p for every primitive chi of conductor
        # p^2: 1 - chi(p+1) generates the prime above p in Q(zeta_p), which
        # divides p to the power p - 1 >= 2 (total ramification).
        observed = [squared_normalizer_divides_p(chi)
                    for p in (3, 5, 7) for chi in enumerate_primitive(p, 2)]
        assert len(observed) == 4 + 16 + 36 and all(observed)


class TestFloorCountParity:
    def test_all_four(self):
        for m in (3, 4, 5, 6):
            assert verify_floor_count(m).holds

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            verify_floor_count(2)
        with pytest.raises(DomainError):
            verify_floor_count(7)


class TestSumLemmas:
    def test_lift_excluded_region_detection(self, chi4):
        triv2 = character(2, 1, (0,))
        assert sum_lift_excluded(triv2, 1)
        assert not sum_lift_excluded(triv2, 2)
        assert not sum_lift_excluded(chi4, 1)

    def test_lift_excluded_case_genuinely_fails(self):
        triv2 = character(2, 1, (0,))
        v = verify_sum_lift(triv2, 1, 2)
        assert not v.holds and v.observed_margin == 1

    def test_lift_requires_n_at_least_m(self, chi4):
        with pytest.raises(DomainError):
            verify_sum_lift(chi4, 1, 1)

    def test_twist_hand_checked(self, chi8):
        v = verify_sum_twist(chi8, 2, 3)
        assert v.holds and v.lhs == 160

    def test_vanishing(self, chi8):
        assert verify_sum_vanishing(chi8, 2, 3).holds
        assert verify_sum_vanishing_two(chi8, 2, 3).holds

    def test_vanishing_two_excluded_cases_fail(self, chi4):
        triv2 = character(2, 1, (0,))
        assert not verify_sum_vanishing_two(chi4, 1, 2).holds   # m=2, odd k
        assert not verify_sum_vanishing_two(triv2, 2, 2).holds  # m=1, even k

    def test_character_orders(self, chi8):
        assert verify_character_orders(chi8).holds
        assert verify_character_orders(character(3, 2, (1,))).holds
        with pytest.raises(DomainError):
            verify_character_orders(character(3, 1, (1,)))

    @pytest.mark.parametrize("p, m", [(3, 2), (3, 3), (5, 2), (7, 2), (2, 3), (2, 5), (2, 7)])
    def test_character_orders_match_the_power_route(self, p, m):
        # 2.3 reads the order of chi(a) = zeta_N^t as N / gcd(t, N); the
        # oracle's root_of_unity_order finds it by raising chi(a) to powers.
        points = [5] if p == 2 else [p ** (m - j) + 1 for j in range(1, m)]
        for chi in enumerate_primitive(p, m):
            orders = list(verify_character_orders(chi).params.values())[1:]
            assert orders == [root_of_unity_order(chi(a)) for a in points], chi.label()


class TestVerdictShape:
    def test_plain_congruence_invariant(self, chi8, memo):
        # holds iff margin >= required, for direct congruence checks
        for v in (
            verify_stern(0, 1, 1, memo),
            verify_lvalue_shift_two(chi8, 1, 1, 1, memo),
            verify_twisted_voronoi(chi8, 3, 1, 3, memo),
            verify_euler_kummer(3, 0, 2, memo),
        ):
            assert v.holds == (v.observed_margin >= v.required_modulus_exponent)
