"""Differential tests for table-free characters and bucketed character sums.

The oracle is the per-residue exponent table lcong once stored in every
character, rebuilt here from generator powers (not from the group's
discrete-log table), with the conductor read off it by brute force and
every character sum taken term by term.
"""

from itertools import product

import pytest

from lcong.characters import enumerate_characters
from lcong.cyclotomic import CyclotomicElement, zeta
from lcong.power_sums import floor_weighted_sum, power_sum

#: 2^1 (one unit, generator (1, 1)) and 2^2 (one generator of order 2)
#: are the degenerate presentations of the generator-order walk.
MODULI = [
    (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
    (3, 2), (3, 3), (5, 2), (7, 2), (7, 1), (11, 1),
]


def exponent_table(chi):
    """residue -> t with chi(residue) = zeta_N^t, over the units only."""
    n, modulus = chi.zeta_order, chi.modulus
    gens = chi.group.generators
    table = {}
    for exps in product(*(range(order) for _, order in gens)):
        residue, t = 1, 0
        for (g, order), image, e in zip(gens, chi.images, exps):
            residue = residue * pow(g, e, modulus) % modulus
            t += image * e * (n // order)
        table[residue] = t % n
    return table


def table_conductor(chi, table):
    for j in range(chi.m + 1):
        d = chi.p**j
        if all(t == 0 for a, t in table.items() if a % d == 1 % d):
            return d
    raise AssertionError("chi is trivial on the kernel of d = p^m")


def naive_sum(chi, table, terms):
    """sum chi(j) w over (j, w), one element addition per term."""
    total = CyclotomicElement.zero(chi.zeta_order)
    for j, w in terms:
        t = table.get(j % chi.modulus)
        if t is not None:
            total = total + zeta(chi.zeta_order, t) * w
    return total


def characters_with_tables():
    for p, m in MODULI:
        for chi in enumerate_characters(p, m):
            yield chi, exponent_table(chi)


@pytest.mark.parametrize("pm", MODULI, ids=lambda pm: f"{pm[0]}^{pm[1]}")
def test_value_exponent_and_conductor(pm):
    p, m = pm
    for chi in enumerate_characters(p, m):
        table = exponent_table(chi)
        assert len(table) == chi.zeta_order
        for a in range(-chi.modulus, 2 * chi.modulus):
            assert chi.value_exponent(a) == table.get(a % chi.modulus), (chi.label(), a)
        assert chi.conductor() == table_conductor(chi, table), chi.label()
        assert chi.is_primitive() == (chi.conductor() == chi.modulus)


def test_power_sum_term_by_term():
    # n = f gives the moments T_k that tests/moment_oracle.py builds on.
    for chi, table in characters_with_tables():
        f = chi.modulus
        for k in range(3):
            for n in (1, f - 1, f, 2 * f + 3):
                expected = naive_sum(chi, table, ((j, j**k) for j in range(1, n + 1)))
                assert power_sum(k, n, chi) == expected, (chi.label(), k, n)


def test_floor_weighted_sum_term_by_term():
    for chi, table in characters_with_tables():
        p = chi.p
        for k in range(3):
            for n in (1, 2):
                for a in (1, p + 1, p * p - 1):
                    top = p**n
                    expected = naive_sum(
                        chi, table, ((j, j**k * (j * a // top)) for j in range(1, top))
                    )
                    assert floor_weighted_sum(k, a, p, n, chi) == expected, (
                        chi.label(), k, n, a,
                    )
