"""p-local divisibility by exact field division, kept for the tests.

lcong decides divisibility by valuations of differences and never
divides by an element; these routes divide in Q(zeta_N) with the Fraction
oracle's inverse and read the p-content valuation of the quotient.
"""

from __future__ import annotations

import fraction_oracle as oracle
from lcong.bernoulli import DomainError
from lcong.characters import DirichletCharacter
from lcong.cyclotomic import ElementLike, as_element


def divides_p_locally(d: ElementLike, x: ElementLike, p: int) -> bool:
    """True iff x/d lies in Z_(p)[zeta] (exact field division, then valuation)."""
    d, x = as_element(d), as_element(x)
    if d.is_zero():
        raise ZeroDivisionError("divisor is zero")
    quotient = oracle.mul(oracle.element(x), oracle.inverse(oracle.element(d)))
    return oracle.valuation(quotient, p) >= 0


def squared_normalizer_divides_p(chi: DirichletCharacter) -> bool:
    """Does (1 - chi(p+1))^2 divide p in Z_(p)[zeta]?

    test_squared_normalizer_observation asserts that it does for every
    primitive chi of conductor p^2 with p in {3, 5, 7}: 1 - chi(p+1)
    generates the prime above p in Q(zeta_p), and p is a unit times
    (1 - zeta_p)^(p-1) with p - 1 >= 2, since (p) is totally ramified.
    """
    p, m = chi.p, chi.m
    if not (p % 2 == 1 and m >= 2 and chi.is_primitive()):
        raise DomainError("needs primitive chi, odd p, m >= 2")
    normalizer = 1 - chi(p + 1)
    return divides_p_locally(oracle.product(normalizer, normalizer), p, p)
