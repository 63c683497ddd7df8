import pytest

from lcong.characters import character, enumerate_characters, enumerate_primitive
from lcong.cyclotomic import congruent_mod
from lcong.power_sums import DomainError, floor_weighted_sum, power_sum
from bernoulli_oracle import power_sum_via_bernoulli
from norm_oracle import is_unit_at_p

MODULI = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2))


class TestPowerSum:
    def test_examples(self, chi4, chi8):
        assert power_sum(1, 4, chi4) == -2
        assert power_sum(2, 8, chi8) == 16

    def test_orthogonality_at_zero(self):
        for p, m in MODULI:
            for chi in enumerate_characters(p, m):
                if not chi.is_trivial():
                    assert power_sum(0, p**m, chi).is_zero()

    def test_partial_sums_brute_force(self, chi8):
        # direct definition as the oracle for non-period upper limits
        total = None
        for n in range(1, 20):
            term = chi8(n) * n**3
            total = term if total is None else total + term
            assert power_sum(3, n, chi8) == total

    def test_input_validation(self, chi8):
        with pytest.raises(ValueError):
            power_sum(-1, 8, chi8)
        with pytest.raises(ValueError):
            power_sum(2, 0, chi8)


class TestBernoulliRoute:
    def test_examples(self, chi4, chi8):
        assert power_sum_via_bernoulli(2, 8, chi8) == 16
        assert power_sum_via_bernoulli(1, 4, chi4) == -2
        assert power_sum_via_bernoulli(0, 9, character(3, 2, (1,))).is_zero()

    def test_non_multiple_rejected(self, chi8):
        with pytest.raises(DomainError):
            power_sum_via_bernoulli(2, 9, chi8)

    @pytest.mark.parametrize("pm", MODULI)
    def test_equivalence_grid(self, pm):
        p, m = pm
        for chi in enumerate_characters(p, m):
            f = chi.modulus
            for k in range(13):
                for n in (f, p * f):
                    assert power_sum(k, n, chi) == power_sum_via_bernoulli(k, n, chi)


class TestFloorWeightedSum:
    def test_twisted_example(self, chi8):
        assert floor_weighted_sum(1, 3, 2, 3, chi8) == 6

    def test_a_one_vanishes(self, chi4, chi8):
        for chi, p in ((chi4, 2), (chi8, 2)):
            for k in range(4):
                for n in (1, 2, 3):
                    assert floor_weighted_sum(k, 1, p, n, chi).is_zero()

    def test_plain_integer_weighting(self):
        assert floor_weighted_sum(3, 2, 5, 1, None) == 91

    def test_negative_a(self, chi8):
        # floor of negative arguments follows the floor convention
        value = floor_weighted_sum(1, -1, 2, 3, chi8)
        brute = None
        for j in range(1, 8):
            term = chi8(j) * j * (-j // 8)
            brute = term if brute is None else brute + term
        assert value == brute

    def test_p_divides_a_rejected(self, chi8):
        with pytest.raises(DomainError):
            floor_weighted_sum(1, 4, 2, 3, chi8)


class TestScalingCongruence:
    """S_k(p^n) == p^(n-m) S_k(p^m) (mod p^n) on small grids, with the
    parity-free mod-2 character failing for odd k."""

    def test_holds_inside_hypotheses(self):
        for p, m in ((2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
            for chi in enumerate_characters(p, m):
                for k in range(7):
                    if p == 2 and m == 1 and k % 2:
                        continue
                    for n in range(m, m + 3):
                        lhs = power_sum(k, p**n, chi)
                        rhs = power_sum(k, p**m, chi) * p ** (n - m)
                        ok, _ = congruent_mod(lhs, rhs, p, n)
                        assert ok, (p, m, chi.label(), k, n)

    def test_excluded_case_fails(self):
        triv2 = character(2, 1, (0,))
        failures = 0
        for k in (1, 3, 5):
            for n in (2, 3, 4):
                lhs = power_sum(k, 2**n, triv2)
                rhs = power_sum(k, 2, triv2) * 2 ** (n - 1)
                ok, _ = congruent_mod(lhs, rhs, 2, n)
                failures += not ok
        assert failures == 9  # fails at every probed point


class TestTwistCongruence:
    """(1 - chi(a) a^k) S_k(p^m, chi) == 0 (mod p^m) for a coprime to p."""

    def test_full_residue_sweep(self):
        for p, m in ((2, 3), (3, 2), (5, 1), (5, 2)):
            for chi in enumerate_primitive(p, m):
                s = {k: power_sum(k, p**m, chi) for k in range(7)}
                for a in range(1, p**m):
                    if a % p == 0:
                        continue
                    for k in range(7):
                        lhs = (1 - chi(a) * a**k) * s[k]
                        ok, _ = congruent_mod(lhs, 0, p, m)
                        assert ok, (p, m, chi.label(), a, k)

    def test_hand_checked_instance(self, chi8):
        lhs = (1 - chi8(3) * 9) * power_sum(2, 8, chi8)
        assert lhs == 160


class TestUnitVanishing:
    """S_k(p^n, chi) == 0 (mod p^n) whenever 1 - chi(a) a^k is prime to p
    for some a."""

    def test_on_small_grid(self):
        for p, m in ((2, 3), (3, 1), (3, 2), (5, 1)):
            for chi in enumerate_primitive(p, m):
                for k in range(7):
                    witness = any(
                        a % p and is_unit_at_p(1 - chi(a) * a**k, p)
                        for a in range(1, p**m)
                    )
                    if not witness:
                        continue
                    for n in range(m, m + 3):
                        ok, _ = congruent_mod(power_sum(k, p**n, chi), 0, p, n)
                        assert ok, (p, m, chi.label(), k, n)


class TestDivisibilityLemma:
    """S_k(p^n, chi) == 0 (mod p^(n-1)) for primitive chi; full 2^n
    divisibility in the strengthened cases."""

    def test_weak_form(self):
        for p, m in ((2, 2), (2, 3), (3, 1), (3, 2), (5, 1)):
            for chi in enumerate_primitive(p, m):
                for k in range(7):
                    for n in range(m, m + 3):
                        ok, _ = congruent_mod(power_sum(k, p**n, chi), 0, p, n - 1)
                        assert ok

    def test_strengthened_two_power(self, chi4, chi8, chi_minus8):
        triv2 = character(2, 1, (0,))
        cases = [
            (chi8, 1), (chi8, 3), (chi_minus8, 0), (chi_minus8, 2),
            (chi4, 0), (chi4, 2),    # m = 2, even k
            (triv2, 1), (triv2, 3),  # m = 1, odd k
        ]
        for chi, k in cases:
            for n in range(max(chi.m, 2), 6):
                ok, _ = congruent_mod(power_sum(k, 2**n, chi), 0, 2, n)
                assert ok, (chi.label(), k, n)

    def test_strengthened_form_excluded_cases_fail(self, chi4):
        triv2 = character(2, 1, (0,))
        assert not congruent_mod(power_sum(1, 4, chi4), 0, 2, 2)[0]   # m=2, odd k
        assert not congruent_mod(power_sum(2, 4, triv2), 0, 2, 2)[0]  # m=1, even k
