"""Slow, independent route to "prime to p", kept as a test oracle.

x in Z_(p)[zeta_N] is invertible exactly when its norm down to Q has
p-adic valuation zero.  These functions compute that norm as the product
of all Galois conjugates: over GF(p) for integral coordinates, over Q
otherwise.  `lcong.congruences.unit_branch_witness` decides the same
question by a closed form in integers; the tests compare the two.
"""

from __future__ import annotations

import math
from fractions import Fraction

from lcong.cyclotomic import (
    CyclotomicElement,
    cyclotomic_polynomial,
    euler_phi,
    rational_valuation,
    zeta,
)
from fraction_oracle import coordinates, product


def rational_norm(x: CyclotomicElement) -> Fraction:
    """Norm from Q(zeta_N) down to Q: product of the Galois conjugates."""
    n = x.order
    if x.is_rational():
        return x.as_rational() ** euler_phi(n)
    conjugates = [
        sum((zeta(n, i * t) * c for i, c in enumerate(coordinates(x)) if c),
            CyclotomicElement.zero(n))
        for t in range(1, n) if math.gcd(t, n) == 1
    ]
    return product(*conjugates).as_rational()


def is_unit_at_p(x: CyclotomicElement, p: int) -> bool:
    """True iff x is "prime to p": invertible in Z_(p)[zeta_N].

    For an algebraic integer this is equivalent to the rational norm
    having p-adic valuation zero.  Strictly stronger than having
    p-content valuation zero (e.g. 1 - zeta_p has content valuation 0
    but divides p).
    """
    if x.den == 1:
        # Integral coordinates: the norm is a rational integer, so only
        # its residue mod p matters; work over GF(p) throughout.
        return _integral_norm_mod_p(tuple(c % p for c in x.num), x.order, p) != 0
    return rational_valuation(rational_norm(x), p) == 0


def _integral_norm_mod_p(coeffs: tuple[int, ...], order: int, p: int) -> int:
    phi_n = cyclotomic_polynomial(order)
    deg = len(phi_n) - 1
    product = [1] + [0] * (deg - 1)
    for t in range(1, order + 1):
        if math.gcd(t, order) != 1:
            continue
        conj = [0] * ((deg - 1) * t + 1 if deg > 1 else 1)
        for i, c in enumerate(coeffs):
            if c:
                conj[i * t] = c
        conj = _reduce_int_mod_p(conj, phi_n, p)
        out = [0] * (len(product) + len(conj) - 1)
        for i, a in enumerate(product):
            if a:
                for j, b in enumerate(conj):
                    if b:
                        out[i + j] = (out[i + j] + a * b) % p
        product = _reduce_int_mod_p(out, phi_n, p)
    # The exact product of all conjugates is a rational integer, so the
    # reduced polynomial is constant mod p.
    assert all(c == 0 for c in product[1:])
    return product[0] % p


def _reduce_int_mod_p(coeffs: list[int], phi_n: tuple[int, ...], p: int) -> list[int]:
    deg = len(phi_n) - 1
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i] % p
        if c:
            for j in range(deg):
                coeffs[i - deg + j] = (coeffs[i - deg + j] - c * phi_n[j]) % p
        coeffs[i] = 0
    out = coeffs[:deg]
    out.extend([0] * (deg - len(out)))
    return [c % p for c in out]


def least_unit_witness(chi, k: int) -> int | None:
    """Least a in 1..modulus-1, p not dividing a, with 1 - chi(a) a^(k+1)
    invertible in Z_(p)[zeta], decided by the norm."""
    p = chi.p
    for a in range(1, chi.modulus):
        if a % p and is_unit_at_p(1 - chi(a) * a ** (k + 1), p):
            return a
    return None
