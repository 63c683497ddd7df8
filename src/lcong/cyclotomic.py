"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored as (N, integer numerator vector, positive
denominator) on the power basis 1, z, ..., z^(phi(N)-1), fully reduced
modulo the N-th cyclotomic polynomial and normalised by the gcd of the
denominator and the numerators, so equality is field-wise.  Phi_N is
monic in Z, so sums, rational multiples and reduction never leave
integer arithmetic.  There is no element product: an element is
multiplied or divided only by a rational, and each chi-value factor of
the catalog has the form c0 + c1 zeta_N^t, which times_binomial applies
as one shift and one reduction.  Two elements meet only at one order,
or where one of them is rational.
All "mod p^n" language in this package means: every power-basis
coefficient of the difference has rational p-adic valuation >= n
(membership in p^n * Z_(p)[zeta_N]).  Z[zeta_N] is the full ring of
integers of Q(zeta_N), which is what makes the coefficient-wise reading
equivalent to p-local integrality.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Union

Scalar = Union[int, Fraction]
ElementLike = Union[int, Fraction, "CyclotomicElement"]

#: Valuation of zero; compares correctly (> any int) under >=, min, etc.
INFINITE = math.inf

Valuation = Union[int, float]

# record()'s coordinate text; [0-9] is ASCII only, unlike str.isdigit and int().
_COEFFICIENT = re.compile(r"(-?[0-9]+)(?:/0*([1-9][0-9]*))?")
# Those texts joined by commas, which none of them holds.
_COEFFICIENTS = re.compile(rf"{_COEFFICIENT.pattern}(?:,{_COEFFICIENT.pattern})*")


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
    if order % 2 == 0:  # Phi_N divides x^(N/2) + 1: fold by zeta^(N/2) = -1 first
        half = order // 2
        for i in range(len(vec) - 1, half - 1, -1):
            vec[i - half] -= vec[i]
        del vec[half:]
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            base = i - deg
            for j, cj in low:
                vec[base + j] -= c * cj
    del vec[deg:]
    vec.extend([0] * (deg - len(vec)))
    return vec


def _new(order: int, num: list[int], den: int) -> "CyclotomicElement":
    # num is reduced (length phi(N)) and den > 0; divides out gcd(den, *num).
    return object.__new__(CyclotomicElement)._set(order, num, den)


class CyclotomicElement:
    """An element num/den of Q(zeta_N) in canonical power-basis form.

    ``num`` holds integer coordinates on 1, z, ..., z^(phi(N)-1) and
    ``den`` is a positive common denominator with gcd(den, *num) = 1, so
    equal elements of one order have equal fields.  Immutable.  Sums,
    differences, equality and congruent_mod take two elements of one
    order, or a rational (an int, a Fraction or an order-1 element) and
    an element of any order; two orders above 1 raise ValueError.  Only
    an int or a Fraction multiplies or divides an element.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: Iterable[int], den: int = 1):
        """sum_i num[i] zeta_N^i / den for integers num of any length and den >= 1."""
        if order < 1 or den < 1:
            raise ValueError(f"order {order} and den {den} must be >= 1")
        self._set(order, _reduce(list(num), order), den)

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
        return cls(order, [q.numerator], q.denominator)

    # -- structure ----------------------------------------------------

    def record(self) -> dict:
        """{"order": N, "coeffs": [...]} with each power-basis coordinate
        written as str(Fraction) writes it ("n" or "n/d" in lowest terms):
        the one coefficient text of reports and the value cache."""
        if self.den == 1:
            return {"order": self.order, "coeffs": list(map(str, self.num))}
        coeffs = []
        for c in self.num:
            g = math.gcd(c, self.den)
            coeffs.append(str(c // g) if g == self.den else f"{c // g}/{self.den // g}")
        return {"order": self.order, "coeffs": coeffs}

    @staticmethod
    def check_record(order: int, coeffs: list[str]) -> str:
        """record()'s text checked without building the element: exactly
        phi(N) strings, each "n" or "n/d" in ASCII digits with d > 0, else
        ValueError.  Returns them joined by commas, which one regex matches."""
        deg = _modulus(order)[0]
        if not isinstance(coeffs, list) or len(coeffs) != deg:
            raise ValueError(f"coeffs is not a list of {deg} coefficient strings")
        try:
            text = ",".join(coeffs)
        except TypeError:  # a coefficient that is not a string
            text = ""
        if text.count(",") != deg - 1 or not _COEFFICIENTS.fullmatch(text):
            bad = next(c for c in coeffs if not (isinstance(c, str) and _COEFFICIENT.fullmatch(c)))
            raise ValueError(f"coefficient {bad!r} is not n or n/d with d > 0")
        return text

    @classmethod
    def from_record(cls, order: int, coeffs: list[str]) -> "CyclotomicElement":
        """The reader of record()'s text, checked by check_record, into integers."""
        text = cls.check_record(order, coeffs)
        fractions = [(int(n), int(d or 1)) for n, d in _COEFFICIENT.findall(text)]
        den = math.lcm(*(d for _, d in fractions))
        return _new(order, [n * (den // d) for n, d in fractions], den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def _coerce(self, other: "CyclotomicElement") -> "tuple[CyclotomicElement, CyclotomicElement]":
        # The pair at one order: an order-1 element is rational and meets any order.
        if other.order == self.order:
            return self, other
        if other.order == 1:
            return self, CyclotomicElement(self.order, other.num, other.den)
        if self.order == 1:
            return other._coerce(self)[::-1]
        raise ValueError(f"elements of orders {self.order} and {other.order} do not combine")

    # -- arithmetic ---------------------------------------------------

    def _add(self, other: ElementLike, sign: int, scale: int = 1) -> "CyclotomicElement":
        # scale * self + sign * other (scale, sign = +-1); a rational moves only num[0].
        if isinstance(other, (int, Fraction)):
            d = other.denominator
            num = [c * scale * d for c in self.num]
            num[0] += sign * other.numerator * self.den
            return _new(self.order, num, self.den * d)
        if not isinstance(other, CyclotomicElement):
            return NotImplemented
        a, b = self._coerce(other)
        g = math.gcd(a.den, b.den)
        fa, fb = b.den // g, sign * (a.den // g)
        sa = scale * fa
        return _new(a.order, [x * sa + y * fb for x, y in zip(a.num, b.num)], a.den * fa)

    def __add__(self, other: ElementLike) -> "CyclotomicElement":
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicElement":
        return _new(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other: ElementLike) -> "CyclotomicElement":
        return self._add(other, -1)

    def __rsub__(self, other: ElementLike) -> "CyclotomicElement":
        return self._add(other, 1, -1)

    def __mul__(self, other: Scalar) -> "CyclotomicElement":
        if isinstance(other, (int, Fraction)):
            return _new(self.order, [c * other.numerator for c in self.num],
                        self.den * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "CyclotomicElement":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, d = other.numerator, other.denominator
        if n == 0:
            raise ZeroDivisionError("division by zero")
        if n < 0:  # the sign goes into the numerators
            n, d = -n, -d
        return _new(self.order, [c * d for c in self.num], self.den * n)

    def times_binomial(self, c0: int, c1: int, t: int, d: int = 1) -> "CyclotomicElement":
        """(c0 + c1 zeta_N^t) self / d for integers c0, c1, t and d >= 1: the
        numerators shifted by t mod N, plus c0 times themselves, reduced once."""
        vec = [0] * (t % self.order) + [c1 * x for x in self.num]
        for i, x in enumerate(self.num):
            vec[i] += c0 * x
        return CyclotomicElement(self.order, vec, self.den * d)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if isinstance(other, CyclotomicElement):
            a, b = self._coerce(other)
            return a.num == b.num and a.den == b.den
        return NotImplemented

    __hash__ = None  # equal to the int or Fraction of its value, so a hash would have to be theirs

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
        return f"CyclotomicElement({self.order}, {list(self.num)}, {self.den})"


def zeta(order: int, exponent: int = 1) -> CyclotomicElement:
    """zeta_N^(j mod N) in canonical reduced form."""
    return CyclotomicElement(order, [0] * (exponent % order) + [1])


def as_element(value: ElementLike, order: int = 1) -> CyclotomicElement:
    if isinstance(value, CyclotomicElement):
        return value
    return CyclotomicElement.from_rational(value, order)


# -- p-local predicates -----------------------------------------------


def _content_valuation(num: Iterable[int], den: int, p: int) -> Valuation:
    """v_p(gcd(num)) - v_p(den) for integers num over den > 0; INFINITE
    when every numerator is 0."""
    v, g = 0, math.gcd(*num)
    if g == 0:
        return INFINITE
    while g % p == 0:
        g //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rational_valuation(value: Scalar, p: int) -> Valuation:
    """p-adic valuation of a rational number; INFINITE for zero."""
    if isinstance(value, int):
        return _content_valuation((value,), 1, p)
    q = Fraction(value)
    return _content_valuation((q.numerator,), q.denominator, p)


def p_content_valuation(x: ElementLike, p: int) -> Valuation:
    """Minimum p-adic valuation over power-basis coefficients; INFINITE iff x = 0.

    This is the largest v with x in p^v * Z_(p)[zeta_N]: the power basis is
    an integral basis, so coefficient-wise valuation captures p-local
    integrality.
    """
    x = as_element(x)
    return _content_valuation(x.num, x.den, p)


def congruent_mod(
    x: ElementLike, y: ElementLike, p: int, n: int
) -> tuple[bool, Valuation]:
    """Whether x == y (mod p^n) in Z_(p)[zeta], with the observed margin.

    Returns (holds, margin) where margin = p_content_valuation(x - y), read
    from the cross-multiplied numerators without building x - y, and holds
    iff margin >= n.
    """
    x, y = as_element(x)._coerce(as_element(y))
    diff = [a * y.den - b * x.den for a, b in zip(x.num, y.num)]
    margin = _content_valuation(diff, x.den * y.den, p)
    return margin >= n, margin

