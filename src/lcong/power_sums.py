"""Character-twisted power sums and floor-weighted variants.

S_k(n, chi) = sum_(j=1..n) chi(j) j^k is computed by grouping the terms
by residue class mod the character's modulus, so the inner accumulation
is plain integer arithmetic; the per-class sums are then bucketed by the
exponent of chi and reduced once (DirichletCharacter.weighted_sum).
Exactness makes the regrouping indistinguishable from ascending-j
summation.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .bernoulli import DEFAULT_CACHE, BernoulliCache, DomainError, generalized_bernoulli
from .characters import DirichletCharacter
from .cyclotomic import CyclotomicElement


def power_sum(k: int, n: int, chi: DirichletCharacter) -> CyclotomicElement:
    """S_k(n, chi) = sum_(j=1..n) chi(j) j^k, exact."""
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    if n < 1:
        raise ValueError("upper limit must be >= 1")
    f = chi.modulus
    per_class = [0] * f
    for j in range(1, n + 1):
        per_class[j % f] += j**k
    return chi.weighted_sum(per_class)


def power_sum_via_bernoulli(
    k: int, n: int, chi: DirichletCharacter, cache: BernoulliCache = DEFAULT_CACHE
) -> CyclotomicElement:
    """S_k(n, chi) through twisted Bernoulli polynomials:

        S_k(n, chi) = (B_(k+1,chi)(n) - B_(k+1,chi)) / (k+1),
        B_(k,chi)(x) = sum_j C(k,j) B_(j,chi) x^(k-j).

    Requires n to be a positive multiple of the modulus of chi; serves as
    the independent oracle for power_sum.
    """
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    f = chi.modulus
    if n < 1 or n % f != 0:
        raise DomainError(f"n={n} is not a positive multiple of the modulus {f}")
    shifted = CyclotomicElement.zero(chi.zeta_order)
    for j in range(k + 1):  # the j = k+1 term cancels against -B_(k+1,chi)
        coeff = comb(k + 1, j) * Fraction(n) ** (k + 1 - j)
        shifted = shifted + generalized_bernoulli(j, chi, cache) * coeff
    return shifted * Fraction(1, k + 1)


def floor_weighted_sum(
    k: int,
    a: int,
    p: int,
    n: int,
    chi: DirichletCharacter | None,
) -> CyclotomicElement:
    """sum_(j=1..p^n-1) chi(j) j^k floor(j*a / p^n).

    With chi=None the weight is 1 for every j (the classical, untwisted
    sum).  Requires gcd(a, p) = 1.
    """
    if k < 0:
        raise ValueError("exponent k must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    if a % p == 0:
        raise DomainError(f"a={a} is divisible by p={p}")
    modulus = p**n
    if chi is None:
        total = 0
        for j in range(1, modulus):
            total += j**k * (j * a // modulus)
        return CyclotomicElement.from_rational(total)
    f = chi.modulus
    per_class = [0] * f
    for j in range(1, modulus):
        per_class[j % f] += j**k * (j * a // modulus)
    return chi.weighted_sum(per_class)
