"""Dirichlet characters modulo prime powers.

The unit group (Z/p^m)* is cyclic for odd p and for p^m in {2, 4}; for
p = 2, m >= 3 it is generated by -1 (order 2) and 5 (order 2^(m-2)).
A character is pinned down by generator images, stored as exponents
e_i with chi(g_i) = zeta_(order_i)^(e_i); every value then lives in
Q(zeta_N) with N = phi(p^m).
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product

from .cyclotomic import CyclotomicElement, euler_phi, prime_factors, zeta

# Resource bounds: each size a user gives is checked before what it sizes is formed.

#: Largest modulus, prime or base |a|, so the longest dlog table or sum.
MAX_TABLE_MODULUS = 200_000
#: Largest index of B_k, E_k and B_(k,chi), and largest exponent of a power.
MAX_INDEX = 2000
#: Largest terms x exponent of a loop of powers (a power or floor sum, a B_(k,chi)
#: row, all rows of a table); a row at f = 625, k = 1600 takes 1.5 s, as B_2000 does.
MAX_WORK = 1_000_000


class DomainError(ValueError):
    """A stated hypothesis of the requested operation is violated; a sweep
    records such a grid point as a skip."""


class ResourceLimitError(ValueError):
    """An input above one of the bounds of this section."""


def check_bound(n: int, name: str = "modulus") -> None:
    if n > MAX_TABLE_MODULUS:
        raise ResourceLimitError(f"{name} {n} exceeds dlog table bound {MAX_TABLE_MODULUS}")


def bounded_power(p: int, m: int) -> int:
    """p^m for p >= 2, m >= 0, within the table bound: m is bounded before
    p**m is formed, so a unit group or a sum over p^m terms is refused at once."""
    if m >= MAX_TABLE_MODULUS.bit_length():  # then p^m >= 2^m exceeds the bound
        raise ResourceLimitError(f"modulus {p}^{m} exceeds dlog table bound {MAX_TABLE_MODULUS}")
    modulus = p**m
    check_bound(modulus)
    return modulus


def check_index(k: int) -> None:
    """The one index range 0..MAX_INDEX: below it no catalog entry applies (a skip)."""
    if k < 0:
        raise DomainError(f"index {k} is negative")
    if k > MAX_INDEX:
        raise ResourceLimitError(f"index {k} exceeds Bernoulli/Euler index bound {MAX_INDEX}")


def check_work(terms: int, exponent: int) -> None:
    """A loop of ``terms`` powers of degree ``exponent``; the exponent first, as check_index."""
    check_index(exponent)
    if terms * exponent > MAX_WORK:
        raise ResourceLimitError(f"work {terms * exponent} exceeds work bound {MAX_WORK}")


def is_prime(n: int) -> bool:
    """Trial division, so n > MAX_TABLE_MODULUS is refused first: every
    congruence prime and conductor prime passes here."""
    check_bound(n, "prime")
    return n >= 2 and prime_factors(n) == [n]


def multiplicative_order(a: int, modulus: int, group_order: int) -> int:
    """Order of the unit a modulo ``modulus``; ``group_order`` is a multiple of it."""
    order = group_order
    for q in prime_factors(group_order):
        while order % q == 0 and pow(a, order // q, modulus) == 1:
            order //= q
    return order


def smallest_primitive_root(p: int, m: int) -> int:
    """Smallest primitive root modulo p^m, p an odd prime."""
    modulus = p**m
    phi = euler_phi(modulus)
    for g in range(2, modulus):
        if math.gcd(g, p) == 1 and multiplicative_order(g, modulus, phi) == phi:
            return g
    raise ArithmeticError(f"no primitive root modulo {modulus}")


class UnitGroup:
    """(Z/p^m)* by generators and a dlog table; one shared instance per (p, m),
    read-only by convention."""

    __slots__ = ("p", "m", "modulus", "order", "generators", "dlog")

    def __init__(self, p: int, m: int, modulus: int, order: int,
                 generators: tuple[tuple[int, int], ...], dlog: dict[int, tuple[int, ...]]):
        self.p, self.m, self.modulus = p, m, modulus
        self.order = order  # phi(p^m)
        self.generators = generators  # (residue, order) pairs
        self.dlog = dlog

    def __repr__(self) -> str:
        return (f"UnitGroup(p={self.p!r}, m={self.m!r}, modulus={self.modulus!r}, "
                f"order={self.order!r}, generators={self.generators!r})")


@lru_cache(maxsize=16)
def build_unit_group(p: int, m: int) -> UnitGroup:
    """Generators and discrete logs for (Z/p^m)*, one group per (p, m).

    Odd p uses the smallest primitive root; p = 2, m >= 3 uses the pair
    (-1, 5).  The degenerate modulus 2 gets the trivial one-generator
    presentation so that the lone character mod 2 is still expressible.
    """
    if m < 1 or p < 2:
        raise ValueError(f"{p}^{m} is not a prime power p^m with m >= 1")
    modulus = bounded_power(p, m)  # before p is trial-divided
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    order = euler_phi(modulus)
    if p == 2 and m == 1:
        generators: tuple[tuple[int, int], ...] = ((1, 1),)
    elif p == 2 and m >= 3:
        generators = ((modulus - 1, 2), (5, 2 ** (m - 2)))
    elif p == 2:  # modulus 4
        generators = ((3, 2),)
    else:
        g = smallest_primitive_root(p, m)
        generators = ((g, order),)

    # Insertion order is generator-product order: weighted_sum walks it.
    dlog: dict[int, tuple[int, ...]] = {}
    ranges = [range(order) for _, order in generators]
    for exps in product(*ranges):
        residue = 1
        for (g, _), e in zip(generators, exps):
            residue = residue * pow(g, e, modulus) % modulus
        dlog[residue] = tuple(exps)
    if len(dlog) != order:
        raise ArithmeticError("generator presentation does not cover the unit group")
    return UnitGroup(p=p, m=m, modulus=modulus, order=order, generators=generators, dlog=dlog)


class DirichletCharacter:
    """A character of (Z/p^m)*, zero on residues sharing a factor with p;
    read-only by convention.

    ``images[i]`` is the exponent e_i with chi(g_i) = zeta_(order_i)^(e_i).
    Values are embedded in Q(zeta_N), N = phi(p^m).
    """

    __slots__ = ("group", "p", "m", "modulus", "images", "zeta_order", "_weights", "_key",
                 "_conductor", "_primitive", "_label", "_odd")

    def __init__(self, group: UnitGroup, images: tuple[int, ...]):
        if len(images) != len(group.generators):
            raise ValueError("one image exponent per generator required")
        self.group = group
        self.p, self.m, self.modulus = group.p, group.m, group.modulus
        self.images = tuple(e % order for e, (_, order) in zip(images, group.generators))
        self.zeta_order = n = group.order
        # chi(g_i)^x = zeta_N^(e_i * (N / order_i) * x)
        self._weights = tuple(
            e * (n // order) for e, (_, order) in zip(self.images, group.generators))
        self._key = (self.p, self.m, self.images)
        self._conductor = self._least_conductor()
        self._primitive = self._conductor == group.modulus
        self._label = self._odd = None  # computed on first use, not while enumerating

    def __repr__(self) -> str:
        return (f"DirichletCharacter(group={self.group!r}, images={self.images!r}, "
                f"zeta_order={self.zeta_order!r})")

    # -- identity -------------------------------------------------------

    def key(self) -> tuple[int, int, tuple[int, ...]]:
        """Stable serialization key (p, m, exponent vector)."""
        return self._key

    def label(self) -> str:
        if self._label is None:
            self._label = f"{self.modulus}:" + ",".join(str(e) for e in self.images)
        return self._label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletCharacter):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # -- evaluation -----------------------------------------------------

    def __call__(self, a: int) -> CyclotomicElement:
        exp = self.value_exponent(a)
        if exp is None:
            return CyclotomicElement.zero(self.zeta_order)
        return zeta(self.zeta_order, exp)

    def value_exponent(self, a: int) -> int | None:
        """Exponent t with chi(a) = zeta_N^t, or None when chi(a) = 0."""
        exps = self.group.dlog.get(a % self.modulus)
        if exps is None:
            return None
        return sum(w * x for w, x in zip(self._weights, exps)) % self.zeta_order

    def value_order(self, a: int) -> int:
        """Order N / gcd(t, N) of the root of unity chi(a) = zeta_N^t, a prime to p."""
        return self.zeta_order // math.gcd(self.value_exponent(a), self.zeta_order)

    def weighted_sum(self, weights: list[int], den: int = 1) -> CyclotomicElement:
        """sum_r chi(r) * weights[r] / den, one integer weight per residue
        r = 0..f-1 and a positive common denominator.

        The units are walked in the dlog table's order, which is generator
        product order, so the exponent t of chi(r) = zeta_N^t steps by the
        generator weights; each weight is added into bucket t of one integer
        vector of length N, which is reduced once.
        """
        n = self.zeta_order
        exps = [0]
        for w, (_, order) in zip(self._weights, self.group.generators):
            exps = [t + w * x for t in exps for x in range(order)]
        vec = [0] * n
        for r, t in zip(self.group.dlog, exps):
            vec[t % n] += weights[r]
        return CyclotomicElement(n, vec, den)

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.group, tuple(-e for e in self.images))

    # -- invariants -----------------------------------------------------

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.images)

    def is_odd(self) -> bool:
        if self._odd is None:
            self._odd = self.value_exponent(self.modulus - 1) != 0
        return self._odd

    def parity(self) -> str:
        return "odd" if self.is_odd() else "even"

    def conductor(self) -> int:
        """Smallest divisor d of p^m with chi trivial on the kernel of
        (Z/p^m)* -> (Z/d)*."""
        return self._conductor

    def _least_conductor(self) -> int:
        # The kernel for d = p^j is generated by 1 + p^j (j >= 1 for odd p,
        # j >= 2 for p = 2; for p = 2 the kernel at d = 2 is everything).
        if self.is_trivial():
            return 1
        for j in range(2 if self.p == 2 else 1, self.m):
            if self.value_exponent(1 + self.p**j) == 0:
                return self.p**j
        return self.modulus

    def is_primitive(self) -> bool:
        return self._primitive


def character(p: int, m: int, images: tuple[int, ...] | list[int]) -> DirichletCharacter:
    return DirichletCharacter(build_unit_group(p, m), tuple(images))


def opposite_parity(chi: DirichletCharacter, k: int) -> bool:
    """True when chi(-1) = (-1)^(k+1), the parity hypothesis of the L-value formula."""
    return chi.is_odd() == (k % 2 == 0)


def enumerate_characters(p: int, m: int) -> list[DirichletCharacter]:
    """All characters modulo p^m, in lexicographic image order."""
    group = build_unit_group(p, m)
    check_work(group.order * euler_phi(group.order), 1)  # characters x element degree
    ranges = [range(order) for _, order in group.generators]
    return [DirichletCharacter(group, tuple(exps)) for exps in product(*ranges)]


def enumerate_primitive(p: int, m: int) -> list[DirichletCharacter]:
    """Characters modulo p^m of conductor exactly p^m."""
    return [chi for chi in enumerate_characters(p, m) if chi.is_primitive()]


def chi_minus4() -> DirichletCharacter:
    """The unique non-trivial character modulo 4 (odd, quadratic)."""
    return character(2, 2, (1,))
