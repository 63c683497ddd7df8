"""Slow routes through Bernoulli polynomials, kept as test oracles.

lcong builds twisted Bernoulli numbers from integer rows per modulus and
twisted power sums by bucketing residues; these routes evaluate the
textbook formulas instead:

    B_k(x) = sum_j C(k,j) B_j x^(k-j),
    S_k(n, chi) = (B_(k+1,chi)(n) - B_(k+1,chi)) / (k+1),
    B_(k,chi)(x) = sum_j C(k,j) B_(j,chi) x^(k-j).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from lcong.bernoulli import DomainError, bernoulli_number, generalized_bernoulli
from lcong.characters import DirichletCharacter
from lcong.cyclotomic import CyclotomicElement


def bernoulli_polynomial(k: int, x: Fraction | int) -> Fraction:
    """B_k(x) = sum_j C(k,j) B_j x^(k-j), exact."""
    if k < 0:
        raise ValueError("Bernoulli index must be >= 0")
    x = Fraction(x)
    total = Fraction(0)
    power = Fraction(1)  # x^(k-j), built from the top down
    for j in range(k, -1, -1):
        b = bernoulli_number(j)
        if b:
            total += comb(k, j) * b * power
        power *= x
    return total


def power_sum_via_bernoulli(k: int, n: int, chi: DirichletCharacter) -> CyclotomicElement:
    """S_k(n, chi) through twisted Bernoulli polynomials.  Requires n to
    be a positive multiple of the modulus of chi; the independent oracle
    for lcong.power_sums.power_sum."""
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    f = chi.modulus
    if n < 1 or n % f != 0:
        raise DomainError(f"n={n} is not a positive multiple of the modulus {f}")
    shifted = CyclotomicElement.zero(chi.zeta_order)
    for j in range(k + 1):  # the j = k+1 term cancels against -B_(k+1,chi)
        coeff = comb(k + 1, j) * Fraction(n) ** (k + 1 - j)
        shifted = shifted + generalized_bernoulli(j, chi) * coeff
    return shifted * Fraction(1, k + 1)
