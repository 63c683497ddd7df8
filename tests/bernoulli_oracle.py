"""Slow routes through Bernoulli polynomials, kept as test oracles.

lcong reads B_k and E_k off Seidel's integer triangle, builds twisted
Bernoulli numbers from integer rows per modulus and twisted power sums
by bucketing residues; these routes evaluate the textbook formulas
instead:

    sum_(i<=j) C(j+1, i) B_i = 0,   sum_(even i<=j) C(j, i) E_i = 0,
    B_k(x) = sum_j C(k,j) B_j x^(k-j),
    S_k(n, chi) = (B_(k+1,chi)(n) - B_(k+1,chi)) / (k+1),
    B_(k,chi)(x) = sum_j C(k,j) B_(j,chi) x^(k-j).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from lcong.bernoulli import BernoulliCache, DomainError
from lcong.characters import DirichletCharacter
from lcong.cyclotomic import CyclotomicElement

#: The oracles' own memo of B_j and B_(j,chi).
memo = BernoulliCache()


def bernoulli_recurrence(limit: int) -> list[Fraction]:
    """B_0..B_limit from sum_(i<=j) C(j+1, i) B_i = 0 for j >= 1."""
    bs = [Fraction(1)]
    for j in range(1, limit + 1):
        bs.append(Fraction(-sum(comb(j + 1, i) * b for i, b in enumerate(bs)), j + 1))
    return bs


def euler_recurrence(limit: int) -> list[int]:
    """E_0..E_limit from sum over even i <= j of C(j, i) E_i = 0 for even j >= 2."""
    es = [1]
    for j in range(1, limit + 1):
        es.append(0 if j % 2 else -sum(comb(j, i) * e for i, e in enumerate(es) if i % 2 == 0))
    return es


def bernoulli_polynomial(k: int, x: Fraction | int) -> Fraction:
    """B_k(x) = sum_j C(k,j) B_j x^(k-j), exact."""
    if k < 0:
        raise ValueError("Bernoulli index must be >= 0")
    x = Fraction(x)
    total = Fraction(0)
    power = Fraction(1)  # x^(k-j), built from the top down
    for j in range(k, -1, -1):
        b = memo.bernoulli(j)
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
        shifted = shifted + memo.twisted_bernoulli(chi, j) * coeff
    return shifted * Fraction(1, k + 1)
