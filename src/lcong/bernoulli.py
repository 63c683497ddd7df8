"""Bernoulli numbers, Euler (secant) numbers, character-twisted Bernoulli
numbers, and Dirichlet L-values at non-positive integers.

Everything is exact.  B_k and E_k both read one integer triangle, Seidel's
boustrophedon, whose row n ends in the zigzag number A_n; with the tangent
numbers T_i = A_(2i-1) (Brent and Harvey, arXiv:1108.0286),

    B_(2i) = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)),  B_1 = -1/2,  B_odd = 0,
    E_(2i) = (-1)^i A_(2i),  E_odd = 0   (secant numbers: E_k = 2 L(-k, chi_-4)).

Twisted Bernoulli numbers B_(k,chi) come from Bernoulli polynomials
(Washington, GTM 83, Prop. 4.1),

    B_(k,chi) = f^(k-1) * sum_(a=1..f) chi(a) * B_k(a/f),   f = modulus of chi,

whose weights depend on (f, k) only, so one integer row per modulus and
index serves every character.  L(-k, chi) = -B_(k+1,chi)/(k+1)
whenever k and chi have opposite parity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, lcm
from typing import Callable

from .characters import DirichletCharacter, opposite_parity
from .cyclotomic import CyclotomicElement

CharKey = tuple[int, int, tuple[int, ...]]
#: A twisted value, or a builder of it that is called on first lookup.
Twisted = CyclotomicElement | Callable[[], CyclotomicElement]


class DomainError(ValueError):
    """A stated hypothesis of the requested operation is violated; a sweep
    records such a grid point as a skip."""


class ParityError(DomainError):
    """k and chi have the same parity, so L(-k, chi) = 0 trivially and the
    Bernoulli formula's hypothesis fails."""


class UndefinedCaseError(DomainError):
    """The unit-normalized L-value is only defined for conductor 2^m with
    m >= 3 or p^m with odd p and m >= 2."""


class BernoulliCache:
    """Memo store for Seidel's triangle (the zigzag numbers A_n and its last
    row; B_(2i) from T_i = A_(2i-1), E_(2i) = (-1)^i A_(2i)), B_k, B_(k,chi),
    the per-modulus integer rows the twisted values are built from, and
    the unit-normalized values L*_k of ``script_l`` keyed by (chi.key(), k).

    The L* memo is derived from the twisted values, never persisted (the
    file cache holds B_(k,chi) only), and seeding a twisted value drops
    the L* entry built on it.
    """

    def __init__(self):
        self._seidel: list[int] = [1]
        self._zigzag_numbers: list[int] = [1]
        self._bernoulli: list[Fraction] = [Fraction(1)]
        self._twisted: dict[tuple[CharKey, int], Twisted] = {}
        self._script_l: dict[tuple[CharKey, int], CyclotomicElement] = {}
        self._rows: dict[tuple[int, int], tuple[int, list[int]]] = {}
        #: keys written since the last persistence sync (see lcong.valuecache)
        self.dirty_keys: set[tuple[CharKey, int]] = set()

    # -- classical sequences -------------------------------------------

    def _zigzag(self, n: int) -> int:
        while len(self._zigzag_numbers) <= n:
            self._seidel = [0, *accumulate(reversed(self._seidel))]
            self._zigzag_numbers.append(self._seidel[-1])
        return self._zigzag_numbers[n]

    def bernoulli(self, k: int) -> Fraction:
        if k < 0:
            raise DomainError("Bernoulli index must be >= 0")
        while (j := len(self._bernoulli)) <= k:
            if j % 2:
                self._bernoulli.append(Fraction(-1 if j == 1 else 0, 2))
            else:
                q = 4 ** (j // 2)  # B_j = (-1)^(j/2-1) j T_(j/2) / (q (q-1))
                t = self._zigzag(j - 1)
                self._bernoulli.append(Fraction((-1) ** (j // 2 - 1) * j * t, q * (q - 1)))
        return self._bernoulli[k]

    def euler(self, k: int) -> int:
        if k < 0:
            raise DomainError("Euler index must be >= 0")
        return 0 if k % 2 else (-1) ** (k // 2) * self._zigzag(k)

    # -- twisted values ------------------------------------------------

    def _row(self, f: int, k: int) -> tuple[int, list[int]]:
        """(D, [D f^(k-1) B_k(a/f) for a = 0..f-1]) with D = f L, L = lcm(den B_j,
        j <= k): each weight is the integer sum_j C(k,j) (L B_j) f^j a^(k-j)."""
        row = self._rows.get((f, k))
        if row is None:
            bs = [self.bernoulli(j) for j in range(k + 1)]
            den = lcm(*(b.denominator for b in bs))
            # coefficients of a^k, a^(k-1), ..., a^0, evaluated by Horner in a
            coeffs = [
                comb(k, j) * (den // b.denominator) * b.numerator * f**j
                for j, b in enumerate(bs)
            ]
            weights = []
            for a in range(f):
                acc = 0
                for c in coeffs:
                    acc = acc * a + c
                weights.append(acc)
            row = self._rows[(f, k)] = (f * den, weights)
        return row

    def twisted_bernoulli(self, chi: DirichletCharacter, k: int) -> CyclotomicElement:
        key = (chi.key(), k)
        cached = self.stored_twisted(key)
        if cached is not None:
            return cached
        scale, row = self._row(chi.modulus, k)  # chi(0) = chi(f) = 0 stands in for a = f
        total = chi.weighted_sum(row) * Fraction(1, scale)
        self._twisted[key] = total
        self.dirty_keys.add(key)
        return total

    def stored_twisted(self, key: tuple[CharKey, int]) -> CyclotomicElement | None:
        """The value held for key, built now if it was seeded as a builder."""
        value = self._twisted.get(key)
        if value is not None and type(value) is not CyclotomicElement:
            value = self._twisted[key] = value()
        return value

    def store_twisted(self, key: tuple[CharKey, int], value: Twisted) -> None:
        """Seed a precomputed twisted Bernoulli number, or a builder called
        for it on first lookup (e.g. from a file cache)."""
        self._twisted[key] = value
        self._script_l.pop((key[0], key[1] - 1), None)  # L*_(k-1) is built on B_(k,chi)


#: Default process-wide cache; sweeps re-use values heavily.
DEFAULT_CACHE = BernoulliCache()


def bernoulli_number(k: int, cache: BernoulliCache = DEFAULT_CACHE) -> Fraction:
    """B_k, with B_0 = 1, B_1 = -1/2 (the t/(e^t - 1) normalization)."""
    return cache.bernoulli(k)


def euler_number(k: int, cache: BernoulliCache = DEFAULT_CACHE) -> int:
    """E_k with E_0 = 1, E_odd = 0 (secant numbers)."""
    return cache.euler(k)


def generalized_bernoulli(
    k: int, chi: DirichletCharacter, cache: BernoulliCache = DEFAULT_CACHE
) -> CyclotomicElement:
    """B_(k,chi) evaluated at the modulus of chi."""
    if k < 0:
        raise DomainError("index must be >= 0")
    return cache.twisted_bernoulli(chi, k)


def l_value(
    k: int, chi: DirichletCharacter, cache: BernoulliCache = DEFAULT_CACHE
) -> CyclotomicElement:
    """L(-k, chi) = -B_(k+1,chi)/(k+1) for k of parity opposite to chi."""
    if k < 0:
        raise DomainError("index must be >= 0")
    if not opposite_parity(chi, k):
        raise ParityError(
            f"k={k} and chi={chi.label()} ({chi.parity()}) have the same parity"
        )
    return cache.twisted_bernoulli(chi, k + 1) * Fraction(-1, k + 1)


def script_l(
    k: int, chi: DirichletCharacter, cache: BernoulliCache = DEFAULT_CACHE
) -> CyclotomicElement:
    """Unit-normalized L-value: (1 - chi(u)) L(-k, chi) with u = 5 for
    conductor 2^m (m >= 3) and u = p + 1 for odd p (m >= 2).

    The factor 1 - chi(u) divides p, which forces the result to be
    p-integral (and 2-integral with a full factor of 2 when p = 2).
    Memoized on ``cache`` per (chi.key(), k).
    """
    key = (chi.key(), k)
    if (value := cache._script_l.get(key)) is not None:
        return value
    p, m = chi.p, chi.m
    if not chi.is_primitive():
        raise UndefinedCaseError(
            f"chi={chi.label()} is imprimitive (conductor {chi.conductor()})"
        )
    if p == 2 and m >= 3:
        unit = 5
    elif p >= 3 and m >= 2:
        unit = p + 1
    else:
        raise UndefinedCaseError(
            f"normalized L-value undefined for conductor {p}^{m}"
        )
    value = cache._script_l[key] = (1 - chi(unit)) * l_value(k, chi, cache)
    return value
