"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored on the power basis 1, z, ..., z^(phi(N)-1) with
Fraction coefficients, fully reduced modulo the N-th cyclotomic
polynomial, so equality is coefficient-wise.  All "mod p^n" language in
this package means: every power-basis coefficient of the difference has
rational p-adic valuation >= n (membership in p^n * Z_(p)[zeta_N]).
Z[zeta_N] is the full ring of integers of Q(zeta_N), which is what makes
the coefficient-wise reading equivalent to p-local integrality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Union

Scalar = Union[int, Fraction]
ElementLike = Union[int, Fraction, "CyclotomicElement"]

#: Valuation of zero; compares correctly (> any int) under >=, min, etc.
INFINITE = math.inf

Valuation = Union[int, float]


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 by the cyclotomic polynomials of the
    proper divisors of n; monic of degree phi(n).
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_quotient(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _int_poly_quotient(num: list[int], den: Iterable[int]) -> list[int]:
    # Exact division of integer polynomials, divisor monic.
    den = list(den)
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            out[i - dd] = c
            for j, dc in enumerate(den):
                num[i - dd + j] -= c * dc
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _reduce_mod_cyclotomic(coeffs: list[Fraction], order: int) -> tuple[Fraction, ...]:
    phi_n = cyclotomic_polynomial(order)
    deg = len(phi_n) - 1
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = Fraction(0)
            for j in range(deg):
                coeffs[i - deg + j] -= c * phi_n[j]
    coeffs = coeffs[:deg]
    coeffs.extend([Fraction(0)] * (deg - len(coeffs)))
    return tuple(coeffs)


class CyclotomicElement:
    """An element of Q(zeta_N) in canonical power-basis form.

    Immutable; arithmetic with ints and Fractions coerces them to
    degree-0 elements.  Operands of different order are first embedded
    into Q(zeta_lcm).
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Scalar], *, reduce: bool = True):
        if order < 1:
            raise ValueError("order must be >= 1")
        vec = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        if reduce:
            self.coeffs: tuple[Fraction, ...] = _reduce_mod_cyclotomic(vec, order)
        else:
            self.coeffs = tuple(vec)
        self.order = order

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicElement":
        return cls(order, [0] * euler_phi(order), reduce=False)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicElement":
        c = [Fraction(0)] * euler_phi(order)
        c[0] = Fraction(1)
        return cls(order, c, reduce=False)

    @classmethod
    def from_rational(cls, value: Scalar, order: int = 1) -> "CyclotomicElement":
        c = [Fraction(0)] * euler_phi(order)
        c[0] = Fraction(value)
        return cls(order, c, reduce=False)

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def embed(self, order: int) -> "CyclotomicElement":
        """Image under Q(zeta_N) -> Q(zeta_M), zeta_N |-> zeta_M^(M/N); N | M."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        out = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return CyclotomicElement(order, out)

    def _coerce(self, other: ElementLike) -> "tuple[CyclotomicElement, CyclotomicElement] | None":
        if isinstance(other, (int, Fraction)):
            return self, CyclotomicElement.from_rational(other, self.order)
        if isinstance(other, CyclotomicElement):
            if other.order == self.order:
                return self, other
            common = math.lcm(self.order, other.order)
            return self.embed(common), other.embed(common)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: ElementLike) -> "CyclotomicElement":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CyclotomicElement(
            a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)], reduce=False
        )

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicElement":
        return CyclotomicElement(self.order, [-c for c in self.coeffs], reduce=False)

    def __sub__(self, other: ElementLike) -> "CyclotomicElement":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return CyclotomicElement(
            a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)], reduce=False
        )

    def __rsub__(self, other: ElementLike) -> "CyclotomicElement":
        return (-self) + other

    def __mul__(self, other: ElementLike) -> "CyclotomicElement":
        if isinstance(other, (int, Fraction)):
            return CyclotomicElement(
                self.order, [c * other for c in self.coeffs], reduce=False
            )
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        prod = [Fraction(0)] * (2 * len(a.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        prod[i + j] += x * y
        return CyclotomicElement(a.order, prod)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """Multiplicative inverse via extended gcd against Phi_N over Q."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        if self.is_rational():
            return CyclotomicElement.from_rational(1 / self.coeffs[0], self.order)
        phi_n = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        u = _poly_ext_gcd_inverse(list(self.coeffs), phi_n)
        return CyclotomicElement(self.order, u)

    def __truediv__(self, other: ElementLike) -> "CyclotomicElement":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / other)
        if isinstance(other, CyclotomicElement):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other: ElementLike) -> "CyclotomicElement":
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "CyclotomicElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicElement.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparison ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, CyclotomicElement):
            if other.order == self.order:
                return self.coeffs == other.coeffs
            common = math.lcm(self.order, other.order)
            return self.embed(common).coeffs == other.embed(common).coeffs
        return NotImplemented

    __hash__ = None  # mixed-order equality makes a consistent hash impractical

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
        sym = f"z{self.order}"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            mono = sym if i == 1 else f"{sym}^{i}"
            if c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"CyclotomicElement({self.order}, {[str(c) for c in self.coeffs]})"


def _poly_ext_gcd_inverse(f: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    # Returns u with u*f == 1 (mod modulus); modulus irreducible over Q.
    r0, r1 = modulus[:], f[:]
    s0, s1 = [Fraction(0)], [Fraction(1)]

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    r0, r1 = trim(r0), trim(r1)
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, trim(r)
        s0, s1 = s1, trim(_poly_sub(s0, _poly_mul(q, s1)))
    # r0 is a nonzero constant gcd; scale the Bezout coefficient.
    c = r0[0]
    return [x / c for x in s0]


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = num[:]
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [], num
    out = [Fraction(0)] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] / lead
        if c:
            out[i - dd] = c
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    return out, num[:dd]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def zeta(order: int, exponent: int = 1) -> CyclotomicElement:
    """zeta_N^(j mod N) in canonical reduced form."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _zeta_power(order, exponent % order)


@lru_cache(maxsize=65536)
def _zeta_power(order: int, j: int) -> CyclotomicElement:
    # Elements are immutable, so sharing cached instances is safe.
    deg = euler_phi(order)
    if j < deg:
        c = [Fraction(0)] * deg
        c[j] = Fraction(1)
        return CyclotomicElement(order, c, reduce=False)
    c = [Fraction(0)] * j + [Fraction(1)]
    return CyclotomicElement(order, c)


def as_element(value: ElementLike, order: int = 1) -> CyclotomicElement:
    if isinstance(value, CyclotomicElement):
        return value
    return CyclotomicElement.from_rational(value, order)


# -- p-local predicates -----------------------------------------------


def rational_valuation(value: Scalar, p: int) -> Valuation:
    """p-adic valuation of a rational number; INFINITE for zero."""
    q = Fraction(value)
    if q == 0:
        return INFINITE
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def p_content_valuation(x: ElementLike, p: int) -> Valuation:
    """Minimum p-adic valuation over power-basis coefficients; INFINITE iff x = 0.

    This is the largest v with x in p^v * Z_(p)[zeta_N]: the power basis is
    an integral basis, so coefficient-wise valuation captures p-local
    integrality.
    """
    x = as_element(x)
    vals = [rational_valuation(c, p) for c in x.coeffs if c]
    if not vals:
        return INFINITE
    return min(vals)


def congruent_mod(
    x: ElementLike, y: ElementLike, p: int, n: int
) -> tuple[bool, Valuation]:
    """Whether x == y (mod p^n) in Z_(p)[zeta], with the observed margin.

    Returns (holds, margin) where margin = p_content_valuation(x - y) and
    holds iff margin >= n.
    """
    diff = as_element(x) - y
    margin = p_content_valuation(diff, p)
    return margin >= n, margin


def divides_p_locally(d: ElementLike, x: ElementLike, p: int) -> bool:
    """True iff x/d lies in Z_(p)[zeta] (exact field division, then valuation)."""
    d = as_element(d)
    if d.is_zero():
        raise ZeroDivisionError("divisor is zero")
    quotient = as_element(x, d.order) / d
    return p_content_valuation(quotient, p) >= 0


def root_of_unity_order(x: CyclotomicElement) -> int:
    """Least t >= 1 with x^t = 1; raises ValueError if x is not a root of unity.

    The torsion of Q(zeta_N)* is the N-th (N even) or 2N-th (N odd) roots
    of unity, so divisors of lcm(2, N) form a complete search space.
    """
    bound = x.order if x.order % 2 == 0 else 2 * x.order
    if x ** bound != 1:
        raise ValueError("not a root of unity")
    for t in sorted(d for d in range(1, bound + 1) if bound % d == 0):
        if x ** t == 1:
            return t
    raise AssertionError("unreachable")
