"""Character-twisted power sums and floor-weighted variants.

S_k(n, chi) = sum_(j=1..n) chi(j) j^k is computed by grouping the terms
by residue class mod the character's modulus f, so the inner accumulation
is plain integer arithmetic; the f per-class sums are then bucketed by the
exponent of chi, walking the units in generator order, and reduced once
(DirichletCharacter.weighted_sum).  Exactness makes the regrouping
indistinguishable from ascending-j summation.  S_k(n, chi) is a pure
function of (k, n, chi) and elements are immutable, so power_sum is
memoised; so is floor_weighted_sum's per-class row, which every character
of one modulus shares.
"""

from __future__ import annotations

from functools import lru_cache

from .characters import DirichletCharacter, DomainError, bounded_power, check_work
from .cyclotomic import CyclotomicElement


@lru_cache(maxsize=65536)
def power_sum(k: int, n: int, chi: DirichletCharacter) -> CyclotomicElement:
    """S_k(n, chi) = sum_(j=1..n) chi(j) j^k, exact."""
    if n < 1:
        raise ValueError("upper limit must be >= 1")
    check_work(n, k)
    f = chi.modulus
    per_class = [0] * f
    for j in range(1, n + 1):
        per_class[j % f] += j**k
    return chi.weighted_sum(per_class)


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if a % p == 0:
        raise DomainError(f"a={a} is divisible by p={p}")
    check_work(modulus := bounded_power(p, n), k)
    per_class = _floor_row(k, a, modulus, chi.modulus if chi else 1)
    return chi.weighted_sum(per_class) if chi else CyclotomicElement.from_rational(per_class[0])


@lru_cache(maxsize=4096)
def _floor_row(k: int, a: int, modulus: int, f: int) -> tuple[int, ...]:
    per_class = [0] * f
    for j in range(1, modulus):
        per_class[j % f] += j**k * (j * a // modulus)
    return tuple(per_class)
