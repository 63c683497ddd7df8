"""p-local divisibility by exact field division, kept for the tests.

lcong decides divisibility by valuations of differences; these routes
divide in Q(zeta_N) and read the p-content valuation of the quotient.
"""

from __future__ import annotations

from lcong.bernoulli import DomainError
from lcong.characters import DirichletCharacter
from lcong.cyclotomic import ElementLike, as_element, p_content_valuation


def divides_p_locally(d: ElementLike, x: ElementLike, p: int) -> bool:
    """True iff x/d lies in Z_(p)[zeta] (exact field division, then valuation)."""
    d = as_element(d)
    if d.is_zero():
        raise ZeroDivisionError("divisor is zero")
    quotient = as_element(x, d.order) / d
    return p_content_valuation(quotient, p) >= 0


def squared_normalizer_divides_p(chi: DirichletCharacter) -> bool:
    """Reported observation: does (1 - chi(p+1))^2 divide p in Z_(p)[zeta]?

    Recorded as data, not asserted; for m = 2 over p >= 5 the square
    does divide p because (p) is totally ramified in Q(zeta_p).
    """
    p, m = chi.p, chi.m
    if not (p % 2 == 1 and m >= 2 and chi.is_primitive()):
        raise DomainError("needs primitive chi, odd p, m >= 2")
    return divides_p_locally((1 - chi(p + 1)) ** 2, p, p)
