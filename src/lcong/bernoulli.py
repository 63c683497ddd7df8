"""Bernoulli numbers, Euler (secant) numbers, character-twisted Bernoulli
numbers, and Dirichlet L-values at non-positive integers.

Everything is exact.  Twisted Bernoulli numbers B_(k,chi) come from
Bernoulli polynomials (Washington, GTM 83, Prop. 4.1),

    B_(k,chi) = f^(k-1) * sum_(a=1..f) chi(a) * B_k(a/f),   f = modulus of chi,

whose weights depend on (f, k) only, so one integer row per modulus and
index serves every character.  L(-k, chi) = -B_(k+1,chi)/(k+1)
whenever k and chi have opposite parity.

The Euler numbers use the secant generating function 2/(e^t + e^(-t)),
i.e. E_0 = 1, E_odd = 0; this normalization is the one under which
E_k = 2 L(-k, chi_-4) holds exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from threading import Lock

from .characters import DirichletCharacter, opposite_parity
from .cyclotomic import CyclotomicElement

CharKey = tuple[int, int, tuple[int, ...]]


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
    """Memo store for B_k, E_k, B_(k,chi), the per-modulus integer rows
    the twisted values are built from, and the unit-normalized values
    L*_k of ``script_l`` keyed by (chi.key(), k).

    Values are immutable once written and recomputation is deterministic,
    so concurrent last-writer-wins dict updates are safe; a lock guards
    only the growth of the index-addressed B_k and E_k sequences, where an
    interleaved append would shift later entries.  The L* memo is one of
    those unlocked last-writer-wins dicts; it is derived from the twisted
    values, never persisted (the file cache holds B_(k,chi) only), and
    seeding a twisted value drops the L* entry built on it.
    """

    def __init__(self):
        self._bernoulli: list[Fraction] = [Fraction(1)]
        self._euler: list[int] = [1]
        self._twisted: dict[tuple[CharKey, int], CyclotomicElement] = {}
        self._script_l: dict[tuple[CharKey, int], CyclotomicElement] = {}
        self._rows: dict[tuple[int, int], tuple[int, list[int]]] = {}
        self._lock = Lock()
        #: keys written since the last persistence sync (see lcong.valuecache)
        self.dirty_keys: set[tuple[CharKey, int]] = set()

    # -- classical sequences -------------------------------------------

    def bernoulli(self, k: int) -> Fraction:
        if k < 0:
            raise ValueError("Bernoulli index must be >= 0")
        if k >= len(self._bernoulli):
            with self._lock:
                while len(self._bernoulli) <= k:
                    j = len(self._bernoulli)
                    # sum_(i<=j) C(j+1, i) B_i = 0  for j >= 1
                    acc = sum(
                        comb(j + 1, i) * b for i, b in enumerate(self._bernoulli)
                    )
                    self._bernoulli.append(Fraction(-acc, j + 1))
        return self._bernoulli[k]

    def euler(self, k: int) -> int:
        if k < 0:
            raise ValueError("Euler index must be >= 0")
        if k >= len(self._euler):
            with self._lock:
                while len(self._euler) <= k:
                    j = len(self._euler)
                    if j % 2:
                        self._euler.append(0)
                        continue
                    # sum over even i <= j of C(j, i) E_i = 0  for even j >= 2
                    acc = sum(
                        comb(j, i) * e
                        for i, e in enumerate(self._euler)
                        if i % 2 == 0
                    )
                    self._euler.append(-acc)
        return self._euler[k]

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
        cached = self._twisted.get(key)
        if cached is not None:
            return cached
        scale, row = self._row(chi.modulus, k)  # chi(0) = chi(f) = 0 stands in for a = f
        total = chi.weighted_sum(row) * Fraction(1, scale)
        self._twisted[key] = total
        self.dirty_keys.add(key)
        return total

    def store_twisted(self, key: tuple[CharKey, int], value: CyclotomicElement) -> None:
        """Seed a precomputed twisted Bernoulli number (e.g. from a file cache)."""
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
        raise ValueError("index must be >= 0")
    return cache.twisted_bernoulli(chi, k)


def l_value(
    k: int, chi: DirichletCharacter, cache: BernoulliCache = DEFAULT_CACHE
) -> CyclotomicElement:
    """L(-k, chi) = -B_(k+1,chi)/(k+1) for k of parity opposite to chi."""
    if k < 0:
        raise ValueError("index must be >= 0")
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
