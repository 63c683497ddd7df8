"""An integer-only inverse in Q(zeta_N), kept as a second test oracle.

lcong never divides by an element.  This is the route lcong.cyclotomic
inverted by while it still did: Euclid on pseudo-remainders against
Phi_N.  It shares no step with fraction_oracle.inverse, which runs
Euclid over Q, so the tests check the two inverses against each other.
"""

from __future__ import annotations

import math
from functools import lru_cache

from lcong.cyclotomic import _reduce, cyclotomic_polynomial


@lru_cache(maxsize=4096)
def bezout_constant(f: tuple[int, ...], order: int) -> tuple[tuple[int, ...], int]:
    """(s, c) with s * f == c (mod Phi_N) and c a nonzero integer; f != 0.
    Memoised, so callers share each answer: it is made of tuples.

    Every remainder r carries its cofactor s with s * f == r (mod Phi_N),
    each elimination step scales both by integers, and each pair is divided
    by its content, so every step stays in Z.  Phi_N is irreducible, so the
    last nonzero remainder is a constant.
    """
    r0, s0 = list(cyclotomic_polynomial(order)), [0]
    r1, s1 = _trim(list(f)), [1]
    while len(r1) > 1:
        d1, lead = len(r1) - 1, r1[-1]
        r, s = r0[:], s0 + [0] * (len(r0) + len(s1) - len(s0))
        for i in range(len(r) - 1, d1 - 1, -1):
            if r[i]:
                g = math.gcd(lead, r[i])
                mult, c, shift = lead // g, r[i] // g, i - d1
                if mult != 1:
                    r, s = [x * mult for x in r], [x * mult for x in s]
                for j, y in enumerate(r1):
                    r[shift + j] -= c * y
                for j, y in enumerate(s1):
                    s[shift + j] -= c * y
        r, s = _trim(r[:d1]), _reduce(s, order)
        g = math.gcd(*r, *s)
        r0, s0, r1, s1 = r1, s1, [x // g for x in r], [x // g for x in s]
    return tuple(_reduce(s1, order)), r1[0]


def _trim(poly: list[int]) -> list[int]:
    while poly and not poly[-1]:
        poly.pop()
    return poly
