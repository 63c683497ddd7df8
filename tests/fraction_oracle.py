"""Slow reference arithmetic in Q(zeta_N) on Fraction coordinates.

An element is a pair (N, coefficient tuple) on the power basis
1, z, ..., z^(phi(N)-1).  Reduction is long division by Phi_N, products
are schoolbook, and inverses come from the extended Euclidean algorithm
over Q: the arithmetic lcong.cyclotomic used before it stored integer
numerators over one denominator.  The differential tests compare
CyclotomicElement against it.
"""

import math
from fractions import Fraction

from lcong.cyclotomic import cyclotomic_polynomial, rational_valuation


def coordinates(x):
    """The power-basis coordinates of a CyclotomicElement as Fractions."""
    return tuple(Fraction(c, x.den) for c in x.num)


def reduce(order, coeffs):
    """(N, coordinates) of sum_i coeffs[i] z^i, reduced modulo Phi_N."""
    phi_n = cyclotomic_polynomial(order)
    deg = len(phi_n) - 1
    coeffs = [Fraction(c) for c in coeffs]
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = Fraction(0)
            for j in range(deg):
                coeffs[i - deg + j] -= c * phi_n[j]
    coeffs = coeffs[:deg]
    coeffs.extend([Fraction(0)] * (deg - len(coeffs)))
    return order, tuple(coeffs)


def embed(x, order):
    """Image under zeta_N |-> zeta_M^(M/N), N | M."""
    n, coeffs = x
    step = order // n
    out = [Fraction(0)] * ((len(coeffs) - 1) * step + 1)
    for i, c in enumerate(coeffs):
        out[i * step] = c
    return reduce(order, out)


def _common(x, y):
    order = math.lcm(x[0], y[0])
    return order, embed(x, order)[1], embed(y, order)[1]


def add(x, y):
    order, a, b = _common(x, y)
    return order, tuple(s + t for s, t in zip(a, b))


def sub(x, y):
    order, a, b = _common(x, y)
    return order, tuple(s - t for s, t in zip(a, b))


def mul(x, y):
    order, a, b = _common(x, y)
    prod = [Fraction(0)] * (2 * len(a) - 1)
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            prod[i + j] += s * t
    return reduce(order, prod)


def inverse(x):
    order, coeffs = x
    modulus = [Fraction(c) for c in cyclotomic_polynomial(order)]
    r0, r1 = _trim(modulus), _trim(list(coeffs))
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _divmod(r0, r1)
        r0, r1 = r1, _trim(r)
        s0, s1 = s1, _trim(_sub(s0, _mul(q, s1)))
    # r0 is the constant gcd; scale the Bezout coefficient.
    return reduce(order, [c / r0[0] for c in s0])


def power(x, e):
    if e < 0:
        return power(inverse(x), -e)
    result = reduce(x[0], [1])
    for _ in range(e):
        result = mul(result, x)
    return result


def equal(x, y):
    order, a, b = _common(x, y)
    return a == b


def valuation(x, p):
    """Minimum p-adic valuation of the coordinates; math.inf for zero."""
    return min((rational_valuation(c, p) for c in x[1] if c), default=math.inf)


def _trim(poly):
    while poly and not poly[-1]:
        poly.pop()
    return poly


def _divmod(num, den):
    num = num[:]
    dd = len(den) - 1
    if len(num) - 1 < dd:
        return [], num
    out = [Fraction(0)] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / den[-1]
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return out, num[:dd]


def _mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, s in enumerate(a):
        for j, t in enumerate(b):
            out[i + j] += s * t
    return out


def _sub(a, b):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [s - t for s, t in zip(a, b)]
