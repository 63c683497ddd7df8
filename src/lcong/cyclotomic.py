"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as (N, integer numerator vector, positive
denominator) on the power basis 1, z, ..., z^(phi(N)-1), fully reduced
modulo the N-th cyclotomic polynomial and normalised by the gcd of the
denominator and the numerators, so equality is field-wise.  Phi_N is
monic in Z, so addition, multiplication, reduction and embedding never
leave integer arithmetic; only the inverse divides, once, at the end.
All "mod p^n" language in this package means: every power-basis
coefficient of the difference has rational p-adic valuation >= n
(membership in p^n * Z_(p)[zeta_N]).  Z[zeta_N] is the full ring of
integers of Q(zeta_N), which is what makes the coefficient-wise reading
equivalent to p-local integrality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Union

Scalar = Union[int, Fraction]
ElementLike = Union[int, Fraction, "CyclotomicElement"]

#: Valuation of zero; compares correctly (> any int) under >=, min, etc.
INFINITE = math.inf

Valuation = Union[int, float]


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for q in prime_factors(n):
        result -= result // q
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first;
    monic of degree phi(n).

    For n > 1, Moebius inversion of x^n - 1 = prod_(d | n) Phi_d(x) gives
    Phi_n = prod_S (1 - x^(n / prod S))^((-1)^|S|) over the sets S of
    primes dividing n, expanded as a power series cut at degree phi(n):
    multiplying by 1 - x^d is one backward pass, dividing by it one
    forward prefix pass.
    """
    if n < 1:
        raise ValueError("cyclotomic_polynomial requires n >= 1")
    if n == 1:
        return (-1, 1)
    deg = euler_phi(n)
    poly = [1] + [0] * deg
    primes = prime_factors(n)
    for size in range(len(primes) + 1):
        for subset in combinations(primes, size):
            d = n // math.prod(subset)
            if size % 2 == 0:
                for i in range(deg, d - 1, -1):
                    poly[i] -= poly[i - d]
            else:
                for i in range(d, deg + 1):
                    poly[i] += poly[i - d]
    return tuple(poly)


@lru_cache(maxsize=None)
def _modulus(order: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    # phi(N) and the nonzero terms (j, c_j) of Phi_N below its leading x^phi(N).
    phi_n = cyclotomic_polynomial(order)
    deg = len(phi_n) - 1
    return deg, tuple((j, c) for j, c in enumerate(phi_n[:deg]) if c)


def _reduce(vec: list[int], order: int) -> list[int]:
    """vec reduced modulo Phi_N in place, padded or cut to length phi(N).

    Phi_N is monic with integer coefficients, so x^deg = -sum_j c_j x^j
    keeps the reduction in Z.
    """
    deg, low = _modulus(order)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            base = i - deg
            for j, cj in low:
                vec[base + j] -= c * cj
    del vec[deg:]
    vec.extend([0] * (deg - len(vec)))
    return vec


def _poly_mul(a: Iterable[int], b: Iterable[int]) -> list[int]:
    a, terms = list(a), [(j, y) for j, y in enumerate(b) if y]
    out = [0] * (len(a) + (terms[-1][0] if terms else 0))
    for i, x in enumerate(a):
        if x:
            for j, y in terms:
                out[i + j] += x * y
    return out


def _new(order: int, num: list[int], den: int) -> "CyclotomicElement":
    # num is reduced (length phi(N)) and den > 0; divides out gcd(den, *num).
    return object.__new__(CyclotomicElement)._set(order, num, den)


class CyclotomicElement:
    """An element num/den of Q(zeta_N) in canonical power-basis form.

    ``num`` holds integer coordinates on 1, z, ..., z^(phi(N)-1) and
    ``den`` is a positive common denominator with gcd(den, *num) = 1, so
    equal elements of one order have equal fields.  Immutable; arithmetic
    with ints and Fractions coerces them to degree-0 elements.  Operands
    of different order are first embedded into Q(zeta_lcm).
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Iterable[Scalar]):
        """sum_i coeffs[i] zeta_N^i for rational coeffs of any length."""
        if order < 1:
            raise ValueError("order must be >= 1")
        vec = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in vec))
        self._set(order, _reduce([c.numerator * (den // c.denominator) for c in vec], order), den)

    def _set(self, order: int, num: list[int], den: int) -> "CyclotomicElement":
        g = math.gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        self.order = order
        self.num = tuple(num)
        self.den = den
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int = 1) -> "CyclotomicElement":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CyclotomicElement":
        return cls.from_rational(1, order)

    @classmethod
    def from_rational(cls, value: Scalar, order: int = 1) -> "CyclotomicElement":
        q = Fraction(value)
        return _new(order, _reduce([q.numerator], order), q.denominator)

    # -- structure ----------------------------------------------------

    def record(self) -> dict:
        """{"order": N, "coeffs": [...]} with each power-basis coordinate
        written as str(Fraction) writes it ("n" or "n/d" in lowest terms):
        the one coefficient text of reports, the value cache and repr."""
        coeffs = []
        for c in self.num:
            g = math.gcd(c, self.den)
            coeffs.append(str(c // g) if g == self.den else f"{c // g}/{self.den // g}")
        return {"order": self.order, "coeffs": coeffs}

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def embed(self, order: int) -> "CyclotomicElement":
        """Image under Q(zeta_N) -> Q(zeta_M), zeta_N |-> zeta_M^(M/N); N | M."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot embed order {self.order} into order {order}")
        step = order // self.order
        vec = [0] * ((len(self.num) - 1) * step + 1)
        vec[::step] = self.num
        return _new(order, _reduce(vec, order), self.den)

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

    def _add(self, other: ElementLike, sign: int) -> "CyclotomicElement":
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        return _new(a.order, [x * fa + y * fb for x, y in zip(a.num, b.num)], a.den * fa)

    def __add__(self, other: ElementLike) -> "CyclotomicElement":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicElement":
        return _new(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other: ElementLike) -> "CyclotomicElement":
        return self._add(other, -1)

    def __rsub__(self, other: ElementLike) -> "CyclotomicElement":
        return (-self) + other

    def __mul__(self, other: ElementLike) -> "CyclotomicElement":
        if isinstance(other, (int, Fraction)):
            return _new(self.order, [c * other.numerator for c in self.num],
                        self.den * other.denominator)
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return _new(a.order, _reduce(_poly_mul(a.num, b.num), a.order), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicElement":
        """Multiplicative inverse den * s / c, where s * num == c (mod Phi_N)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        s, c = _bezout_constant(self.num, self.order)
        if c < 0:
            s, c = [-x for x in s], -c
        return _new(self.order, [x * self.den for x in s], c)

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
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if isinstance(other, CyclotomicElement):
            a, b = self._coerce(other)
            return a.num == b.num and a.den == b.den
        return NotImplemented

    __hash__ = None  # mixed-order equality makes a consistent hash impractical

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        coeffs = self.record()["coeffs"]
        if self.is_rational():
            return coeffs[0]
        sym = f"z{self.order}"
        parts = []
        for i, c in enumerate(coeffs):
            if c == "0":
                continue
            if i == 0:
                parts.append(c)
                continue
            mono = sym if i == 1 else f"{sym}^{i}"
            if c == "1":
                term = mono
            elif c == "-1":
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"CyclotomicElement({self.order}, {self.record()['coeffs']})"


def _bezout_constant(f: tuple[int, ...], order: int) -> tuple[list[int], int]:
    """(s, c) with s * f == c (mod Phi_N) and c a nonzero integer; f != 0.

    Euclid on pseudo-remainders: every remainder r carries its cofactor s
    with s * f == r (mod Phi_N), each elimination step scales both by
    integers, and each pair is divided by its content, so every step stays
    in Z.  Phi_N is irreducible, so the last nonzero remainder is a
    constant.
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
    return _reduce(s1, order), r1[0]


def _trim(poly: list[int]) -> list[int]:
    while poly and not poly[-1]:
        poly.pop()
    return poly


def zeta(order: int, exponent: int = 1) -> CyclotomicElement:
    """zeta_N^(j mod N) in canonical reduced form."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return _zeta_power(order, exponent % order)


@lru_cache(maxsize=65536)
def _zeta_power(order: int, j: int) -> CyclotomicElement:
    # Elements are immutable, so sharing cached instances is safe.
    return _new(order, _reduce([0] * j + [1], order), 1)


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
    if x.is_zero():
        return INFINITE
    return rational_valuation(Fraction(math.gcd(*x.num), x.den), p)


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
