import pytest
from hypothesis import given, settings, strategies as st

from lcong.characters import (
    DirichletCharacter,
    ResourceLimitError,
    build_unit_group,
    character,
    enumerate_characters,
    enumerate_primitive,
    opposite_parity,
    smallest_primitive_root,
)
from lcong.cyclotomic import CyclotomicElement, euler_phi, root_of_unity_order, zeta


class TestUnitGroup:
    def test_two_cubed(self):
        g = build_unit_group(2, 3)
        assert g.generators == ((7, 2), (5, 2))
        assert g.exponents(3) == (1, 1)  # 3 = -5 mod 8
        assert g.exponents(2) is None

    def test_nine(self):
        g = build_unit_group(3, 2)
        assert g.generators == ((2, 6),)

    def test_five(self):
        g = build_unit_group(5, 1)
        assert g.generators == ((2, 4),)

    def test_four_and_two(self):
        assert build_unit_group(2, 2).generators == ((3, 2),)
        assert build_unit_group(2, 1).generators == ((1, 1),)

    def test_dlog_covers_group(self):
        for p, m in ((2, 5), (3, 3), (5, 2), (7, 2), (11, 1)):
            g = build_unit_group(p, m)
            assert len(g.dlog) == euler_phi(p**m)
            for a, exps in g.dlog.items():
                value = 1
                for (gen, _), e in zip(g.generators, exps):
                    value = value * pow(gen, e, g.modulus) % g.modulus
                assert value == a

    def test_not_prime(self):
        with pytest.raises(ValueError):
            build_unit_group(6, 1)

    def test_resource_bound(self):
        with pytest.raises(ResourceLimitError):
            build_unit_group(2, 3, max_modulus=4)

    def test_smallest_primitive_root(self):
        assert smallest_primitive_root(3, 2) == 2
        assert smallest_primitive_root(7, 1) == 3
        assert smallest_primitive_root(7, 2) == 3


class TestCharacterConstruction:
    def test_quartic_conductor_character(self, chi4):
        assert chi4(3) == -1
        assert chi4(1) == 1
        assert chi4(2).is_zero()

    def test_even_mod_eight(self, chi8):
        assert chi8(5) == -1
        assert chi8(3) == -1
        assert chi8(7) == 1
        assert chi8(15) == 1  # reduces mod 8

    def test_sextic_mod_nine(self):
        chi = character(3, 2, (1,))
        assert chi(2) == zeta(6, 1)

    def test_image_length_checked(self):
        with pytest.raises(ValueError):
            DirichletCharacter(build_unit_group(2, 3), (1,))

    def test_one_maps_to_one(self):
        for p, m in ((2, 3), (3, 2), (5, 1)):
            for chi in enumerate_characters(p, m):
                assert chi(1) == 1


class TestConductorParity:
    def test_conductors(self, chi4, chi8):
        assert chi4.conductor() == 4
        assert chi8.conductor() == 8
        assert character(3, 2, (0,)).conductor() == 1
        assert character(3, 2, (2,)).conductor() == 9  # order-3 character
        assert character(3, 2, (3,)).conductor() == 3  # quadratic, lifts mod 3

    def test_parity(self, chi4, chi8, chi_minus8):
        assert chi4.parity() == "odd"
        assert chi8.parity() == "even"
        assert chi_minus8.parity() == "odd"
        assert character(3, 2, (0,)).parity() == "even"

    def test_opposite_parity_convention(self, chi4, chi8):
        # odd character pairs with even k, even character with odd k
        assert opposite_parity(chi4, 0) and not opposite_parity(chi4, 1)
        assert opposite_parity(chi8, 1) and not opposite_parity(chi8, 0)

    @pytest.mark.parametrize("pm", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 1)])
    def test_conductor_against_value_level_factoring(self, pm):
        # Independent route: the conductor is the least d | p^m such that
        # chi(a) depends only on a mod d, checked directly on values.
        p, m = pm
        modulus = p**m
        for chi in enumerate_characters(p, m):
            expected = None
            for j in range(m + 1):
                d = p**j
                factors = all(
                    chi(a) == chi(b)
                    for a in range(1, modulus)
                    if a % p
                    for b in range(a + d, modulus, d)
                    if b % p
                )
                if factors:
                    expected = d
                    break
            assert chi.conductor() == expected, chi.label()


class TestEnumeration:
    def test_counts_mod_eight(self):
        prim = enumerate_primitive(2, 3)
        assert len(prim) == 2
        assert sorted(c.parity() for c in prim) == ["even", "odd"]

    def test_count_formula(self):
        for p, m in ((2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                     (3, 1), (3, 2), (3, 3), (3, 4), (5, 1), (5, 2), (7, 1), (7, 2)):
            if p**m > 200:
                continue
            got = len(enumerate_primitive(p, m))
            assert got == euler_phi(p**m) - euler_phi(p ** (m - 1))

    def test_all_characters_count(self):
        assert len(enumerate_characters(3, 2)) == 6
        assert len(enumerate_characters(2, 5)) == 16


class TestMultiplicativity:
    @pytest.mark.parametrize("pm", [(2, 3), (2, 5), (2, 7), (3, 2), (3, 4), (5, 2), (7, 2), (11, 1), (13, 1)])
    def test_exponent_level_full_sweep(self, pm):
        # chi(ab) = chi(a) chi(b) checked through the value exponents,
        # which determine the root-of-unity values exactly.
        p, m = pm
        if p**m > 128:
            pytest.skip("beyond sweep bound")
        for chi in enumerate_characters(p, m):
            n = chi.zeta_order
            mod = chi.modulus
            for a in range(1, mod):
                if a % p == 0:
                    continue
                ea = chi.value_exponent(a)
                for b in range(a, mod):
                    if b % p == 0:
                        continue
                    assert chi.value_exponent(a * b) == (ea + chi.value_exponent(b)) % n

    def test_element_level_sample(self, chi8):
        for a in range(1, 8):
            for b in range(1, 8):
                assert chi8(a * b) == chi8(a) * chi8(b)

    def test_zero_on_non_coprime(self):
        chi = character(5, 2, (1,))
        for a in range(0, 50, 5):
            assert chi(a).is_zero()


class TestOrthogonality:
    @pytest.mark.parametrize("pm", [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
    def test_value_sums_vanish(self, pm):
        p, m = pm
        for chi in enumerate_characters(p, m):
            total = CyclotomicElement.zero(chi.zeta_order)
            for a in range(1, p**m + 1):
                total = total + chi(a)
            if chi.is_trivial():
                assert total == euler_phi(p**m)
            else:
                assert total.is_zero()


class TestValueOrders:
    """Exact orders of character values at 1 + p^j, for all primitive
    characters of modulus up to 81."""

    @pytest.mark.parametrize("pm", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
    def test_odd_prime_orders(self, pm):
        p, m = pm
        for chi in enumerate_primitive(p, m):
            for k in range(1, m):
                assert root_of_unity_order(chi(p ** (m - k) + 1)) == p**k

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_two_power_orders(self, m):
        for chi in enumerate_primitive(2, m):
            value = chi(5)
            assert value != 1
            assert root_of_unity_order(value) == 2 ** (m - 2)

    def test_conjugate_inverts_values(self):
        for chi in enumerate_primitive(2, 4) + enumerate_primitive(5, 2):
            conj = chi.conjugate()
            for a in range(1, chi.modulus):
                if a % chi.p:
                    assert chi(a) * conj(a) == 1


class TestSerialization:
    def test_key_roundtrip(self):
        chi = character(3, 2, (5,))
        p, m, images = chi.key()
        assert character(p, m, images) == chi

    def test_label(self, chi8):
        assert chi8.label() == "8:0,1"

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([(2, 3), (3, 2), (5, 1), (7, 1)]), st.integers(0, 40))
    def test_images_normalized(self, pm, e):
        p, m = pm
        chi = character(p, m, (e,) * len(build_unit_group(p, m).generators))
        orders = [order for _, order in chi.group.generators]
        assert all(0 <= img < o for img, o in zip(chi.images, orders))
