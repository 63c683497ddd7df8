"""Slow, independent route to twisted Bernoulli numbers, kept as a test oracle.

lcong builds B_(k,chi) from Bernoulli-polynomial values,
f^(k-1) sum_a chi(a) B_k(a/f), scaled to integer rows per modulus.  The
moment formula below expands the generating function
sum_(a=1..f) chi(a) t e^(at) / (e^(ft) - 1) instead:

    B_(k,chi) = sum_(j<=k) C(k,j) B_j f^(j-1) T_(k-j),
    T_r = sum_(a=1..f) chi(a) a^r = S_r(f, chi),

with every moment T_r taken as a character power sum
(`lcong.power_sums.power_sum`, itself checked term by term in
`test_character_oracle.py`).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from lcong.bernoulli import BernoulliCache
from lcong.characters import DirichletCharacter
from lcong.cyclotomic import CyclotomicElement
from lcong.power_sums import power_sum

#: The oracle's own memo of B_j.
memo = BernoulliCache()


def moment_twisted_bernoulli(chi: DirichletCharacter, k: int) -> CyclotomicElement:
    """B_(k,chi) at the modulus f of chi, by the moment formula."""
    f = chi.modulus
    total = CyclotomicElement.zero(chi.zeta_order)
    for j in range(k + 1):
        b = memo.bernoulli(j)
        if b:
            weight = comb(k, j) * b * Fraction(f) ** (j - 1)
            total = total + power_sum(k - j, f, chi) * weight
    return total
