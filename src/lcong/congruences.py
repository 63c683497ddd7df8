"""One verifier per numbered congruence in the catalog (see README).

Every verifier returns a CongruenceVerdict with the exact left- and
right-hand sides and the observed valuation margin; hypothesis
violations raise DomainError (or a subclass) instead of producing a
failed verdict.  Verifiers are pure: re-running one reproduces the
verdict bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .bernoulli import BernoulliCache, ParityError, l_value, script_l
from .characters import (
    DirichletCharacter,
    DomainError,
    bounded_power,
    check_bound,
    check_work,
    is_prime,
    multiplicative_order,
    opposite_parity,
)
from .cyclotomic import (
    CyclotomicElement,
    Valuation,
    as_element,
    congruent_mod,
    euler_phi,
    p_content_valuation,
    prime_factors,
    rational_valuation,
)
from .power_sums import floor_weighted_sum, power_sum


class CongruenceVerdict(NamedTuple):
    """One checked congruence instance.

    For plain congruence checks, ``holds`` is equivalent to
    ``observed_margin >= required_modulus_exponent``.  For iff-style
    checks (the verdicts with ``branch == "iff"``: ``stern-iff``, ``1.5``
    and ``1.8``) and for the non-divisibility check, ``holds`` records
    agreement with the predicted boolean instead; the margin is still
    the observed valuation of lhs - rhs.
    """

    id: str
    params: dict
    holds: bool
    required_modulus_exponent: int
    observed_margin: Valuation
    lhs: CyclotomicElement
    rhs: CyclotomicElement
    branch: Optional[str] = None


def _congruence_verdict(
    id_: str,
    params: dict,
    lhs,
    rhs,
    p: int,
    n: int,
    branch: str | None = None,
    expected: bool | None = None,
) -> CongruenceVerdict:
    """Verdict on lhs == rhs (mod p^n).  Given ``expected``, the verdict
    is an iff check instead: it holds when the congruence's truth equals
    ``expected``, and both booleans are appended to ``params``."""
    lhs = as_element(lhs)
    rhs = as_element(rhs)
    holds, margin = congruent_mod(lhs, rhs, p, n)
    if expected is not None:
        params.update(congruent=holds, expected=expected)
        holds, branch = holds == expected, "iff"
    return CongruenceVerdict(id_, params, holds, n, margin, lhs, rhs, branch)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise DomainError(message)


def _require_base(a: int, p: int) -> None:
    """The base a of a^k: bounded in absolute value before a^k is formed, and prime to p."""
    check_bound(abs(a), "base |a|")
    if a % p == 0:
        raise DomainError(f"a={a} must be coprime to p={p}")


def _phi_aligned(k: int, l: int, p: int, n: int) -> bool:
    """k == l (mod phi(p^n)) for a prime p and n >= 1, with phi(p^n) =
    (p-1) p^(n-1): read from the valuation of k - l, so p^n is never formed."""
    return (k - l) % (p - 1) == 0 and rational_valuation(k - l, p) >= n - 1


# ---------------------------------------------------------------------
# Kummer-family congruences for Bernoulli and Euler numbers


def verify_kummer_classical(
    p: int, k: int, l: int, n: int, cache: BernoulliCache
) -> CongruenceVerdict:
    """(1 - p^(k-1)) B_k/k == (1 - p^(l-1)) B_l/l  (mod p^n)

    for p >= 5 prime, even k, l >= 2 with k == l mod phi(p^n) and
    (p-1) not dividing k.
    """
    _require(p >= 5 and is_prime(p), "requires a prime p >= 5")
    _require(k % 2 == 0 and l % 2 == 0 and k >= 2 and l >= 2, "k, l must be even >= 2")
    _require(n >= 1, "n must be >= 1")
    _require(_phi_aligned(k, l, p, n), "requires k == l (mod phi(p^n))")
    _require(k % (p - 1) != 0, "requires (p-1) not dividing k")
    b_k, b_l = cache.bernoulli(k), cache.bernoulli(l)  # first: the index bound before p^(k-1)
    lhs = Fraction((1 - p ** (k - 1)) * b_k.numerator, b_k.denominator * k)
    rhs = Fraction((1 - p ** (l - 1)) * b_l.numerator, b_l.denominator * l)
    return _congruence_verdict("kummer", {"p": p, "k": k, "l": l, "n": n}, lhs, rhs, p, n)


def verify_ernvall(
    chi: DirichletCharacter,
    p: int,
    k: int,
    l: int,
    n: int,
    cache: BernoulliCache,
) -> CongruenceVerdict:
    """Kummer-type congruence for twisted Bernoulli numbers:

        (1 - chi(p) p^(k-1)) B_(k,chi)/k == (1 - chi(p) p^(l-1)) B_(l,chi)/l  (mod p^n)

    for chi of prime-power conductor coprime to p, k == l mod phi(p^n).
    """
    _require(is_prime(p), "requires a prime p")
    conductor = chi.conductor()
    _require(conductor > 1 and conductor % p != 0, "conductor must be a prime power coprime to p")
    _require(k >= 1 and l >= 1, "k, l must be >= 1")
    _require(n >= 1, "n must be >= 1")
    _require(_phi_aligned(k, l, p, n), "requires k == l (mod phi(p^n))")
    lhs = _ernvall_side(chi, p, k, cache)
    rhs = _ernvall_side(chi, p, l, cache)
    params = {"chi": chi.label(), "p": p, "k": k, "l": l, "n": n}
    return _congruence_verdict("ernvall", params, lhs, rhs, p, n)


def _ernvall_side(
    chi: DirichletCharacter, p: int, k: int, cache: BernoulliCache
) -> CyclotomicElement:
    """(1 - chi(p) p^(k-1)) B_(k,chi)/k in one integer pass, with chi(p) = zeta_N^t;
    looking B_(k,chi) up first bounds k before p^(k-1) is formed."""
    value = cache.twisted_bernoulli(chi, k)
    return value.times_binomial(1, -p ** (k - 1), chi.value_exponent(p), k)


def verify_euler_kummer(p: int, k: int, l: int, cache: BernoulliCache) -> CongruenceVerdict:
    """E_k == E_l (mod p) for odd prime p and even k == l (mod p-1).

    Stated for all even k, l >= 0; the boundary k = 0 genuinely fails
    (E_0 = 1 while E_2 = -1 mod 3), and the verdict reports it honestly.
    """
    _require(p % 2 == 1 and is_prime(p), "requires an odd prime")
    _require(k % 2 == 0 and l % 2 == 0 and k >= 0 and l >= 0, "k, l must be even >= 0")
    _require((k - l) % (p - 1) == 0, "requires k == l (mod p-1)")
    lhs = cache.euler(k)
    rhs = cache.euler(l)
    return _congruence_verdict("euler-kummer", {"p": p, "k": k, "l": l}, lhs, rhs, p, 1)


def verify_stern(k: int, n: int, q: int, cache: BernoulliCache) -> CongruenceVerdict:
    """E_(k + 2^n q) == E_k + 2^n  (mod 2^(n+1)) for even k >= 0, odd q >= 1."""
    _require(k % 2 == 0 and k >= 0, "k must be even >= 0")
    _require(n >= 1, "n must be >= 1")
    _require(q % 2 == 1 and q >= 1, "q must be odd >= 1")
    power = bounded_power(2, n)  # before E_(k + 2^n q) is looked up
    lhs = cache.euler(k + power * q)
    rhs = cache.euler(k) + power
    return _congruence_verdict("stern", {"k": k, "n": n, "q": q}, lhs, rhs, 2, n + 1)


def verify_stern_iff(k: int, l: int, n: int, cache: BernoulliCache) -> CongruenceVerdict:
    """Two-sided check of:  E_k == E_l (mod 2^n)  iff  k == l (mod 2^n)."""
    _require(k % 2 == 0 and l % 2 == 0, "k, l must be even")
    _require(n >= 1, "n must be >= 1")
    return _congruence_verdict(
        "stern-iff", {"k": k, "l": l, "n": n}, cache.euler(k), cache.euler(l), 2, n,
        expected=rational_valuation(k - l, 2) >= n,  # 2^n is never formed
    )


# ---------------------------------------------------------------------
# Shift congruences for normalized L-values (prime-power conductor)


def _normalized_quotient(
    chi: DirichletCharacter, unit: int, d: int, factor: int, cache: BernoulliCache
) -> CyclotomicElement:
    """factor L*_d / (1 - conj(chi)(u)), the right side of the shift
    congruences, with no division.  L*_d = (1 - w) L(-d, chi) for the root
    of unity w = chi(u), which is not 1 for primitive chi, and
    (1 - w) / (1 - w^(-1)) = -w; so the quotient is -w factor L(-d, chi)."""
    return l_value(d, chi, cache).times_binomial(0, -factor, chi.value_exponent(unit))


def verify_lvalue_shift_two(
    chi: DirichletCharacter,
    k: int,
    n: int,
    q: int,
    cache: BernoulliCache,
) -> CongruenceVerdict:
    """For primitive chi of conductor 2^m, m >= 3, writing L* for the
    normalized value (1 - chi(5)) L(-k, chi):

        L*_(k + 2^n q) - L*_k == (2^(n+2) / (1 - conj(chi)(5))) L*_d  (mod 2^(n+3))

    with q odd, k of parity opposite to chi, d in {0, 1}, d == k (mod 2).
    """
    _require(chi.p == 2 and chi.m >= 3, "requires conductor 2^m with m >= 3")
    _require(chi.is_primitive(), "requires a primitive character")
    _require(q % 2 == 1 and q >= 1, "q must be odd >= 1")
    _require(n >= 1, "n must be >= 1")
    if not opposite_parity(chi, k):
        raise ParityError(f"k={k} has the same parity as chi={chi.label()}")
    d = k % 2
    power = bounded_power(2, n)  # before L*_(k + 2^n q) is looked up
    lhs = script_l(k + power * q, chi, cache) - script_l(k, chi, cache)
    rhs = _normalized_quotient(chi, 5, d, 4 * power, cache)
    params = {"chi": chi.label(), "k": k, "d": d, "n": n, "q": q}
    return _congruence_verdict("1.4", params, lhs, rhs, 2, n + 3)


def verify_lvalue_shift_two_iff(
    chi: DirichletCharacter,
    k: int,
    l: int,
    n: int,
    cache: BernoulliCache,
) -> CongruenceVerdict:
    """Two-sided check of:  L*_k == L*_l (mod 2^(n+2))  iff  k == l (mod 2^n)."""
    _require(chi.p == 2 and chi.m >= 3, "requires conductor 2^m with m >= 3")
    _require(chi.is_primitive(), "requires a primitive character")
    _require(n >= 1, "n must be >= 1")
    if not (opposite_parity(chi, k) and opposite_parity(chi, l)):
        raise ParityError("k and l must both have parity opposite to chi")
    lhs = script_l(k, chi, cache)
    rhs = script_l(l, chi, cache)
    params = {"chi": chi.label(), "k": k, "l": l, "n": n}
    return _congruence_verdict("1.5", params, lhs, rhs, 2, n + 2,
                               expected=rational_valuation(k - l, 2) >= n)


@lru_cache(maxsize=65536)
def unit_branch_witness(chi: DirichletCharacter, k: int) -> int | None:
    """Least a coprime to p with 1 - chi(a) a^(k+1) prime to p, or None.

    "Prime to p" means invertible in Z_(p)[zeta_N].  With chi(a) = zeta_N^t
    and c = a^(k+1), the element 1 - c zeta_N^t is a non-unit exactly when
    some prime P above p has zeta_N^t == 1/c (mod P).  Roots of unity of
    p-power order are 1 modulo every such P, reduction is injective on
    those of order prime to p, and the Galois group permutes the P
    transitively (Washington, Introduction to Cyclotomic Fields, GTM 83,
    ch. 2).  So it is a non-unit exactly when the order of c mod p equals
    the prime-to-p part of the order N/gcd(t, N) of zeta_N^t.  Content
    valuation 0 is not enough: 1 - zeta_p has it but divides p.

    Both tests depend on a mod p only, so the loop runs over a = 1..p-1 and
    still returns the least witness below p^m: a witness a leaves the
    witness a mod p <= a.  a^(k+1) mod p plainly depends on a mod p.  For
    chi(a), write a = w(a) <a>, with w(a) the Teichmueller lift of a mod p,
    of order dividing p - 1, and <a> == 1 (mod p) in the subgroup 1 + pZ of
    p-power order (for p = 2, all of (Z/2^m)*, and w(a) = 1).  chi(<a>) has
    p-power order and chi(w(a)) order prime to p, so the prime-to-p part of
    the order of chi(a) is the order of chi(w(a)), fixed by a mod p.
    """
    p = chi.p
    for a in range(1, p):
        order = chi.value_order(a)
        while order % p == 0:
            order //= p
        if multiplicative_order(pow(a, k + 1, p), p, p - 1) != order:
            return a
    return None


def verify_lvalue_shift_odd(
    chi: DirichletCharacter,
    k: int,
    n: int,
    q: int,
    cache: BernoulliCache,
) -> CongruenceVerdict:
    """Shift congruence for primitive chi of odd prime-power conductor p^m.

    Branch (i), when some a has 1 - chi(a) a^(k+1) prime to p:

        L(-k - phi(p^n) q, chi) == L(-k, chi)  (mod p^n).

    Branch (ii), when no such a exists (requires m >= 2), with L* the
    normalization by (1 - chi(p+1)) and d == k (mod p-1), 0 <= d <= p-2:

        L*_(k + phi(p^n) q) - L*_k == (p^n q / (1 - conj(chi)(p+1))) L*_d  (mod p^n).
    """
    p, m = chi.p, chi.m
    _require(p % 2 == 1, "requires an odd prime conductor")
    _require(chi.is_primitive(), "requires a primitive character")
    _require(n >= 1 and q >= 1, "n, q must be >= 1")
    _require(q % p != 0, "requires p not dividing q")
    if not opposite_parity(chi, k):
        raise ParityError(f"k={k} has the same parity as chi={chi.label()}")
    power = bounded_power(p, n)  # before L_(k + phi(p^n) q) is looked up
    shift = power // p * (p - 1) * q  # phi(p^n) q, p^n not trial-divided
    witness = unit_branch_witness(chi, k)
    if witness is not None:
        lhs = l_value(k + shift, chi, cache)
        rhs = l_value(k, chi, cache)
        params = {"chi": chi.label(), "k": k, "n": n, "q": q, "a": witness}
        return _congruence_verdict("1.6", params, lhs, rhs, p, n, branch="i")
    _require(m >= 2, "no unit witness and m = 1: outside both branches")
    d = k % (p - 1)
    lhs = script_l(k + shift, chi, cache) - script_l(k, chi, cache)
    rhs = _normalized_quotient(chi, p + 1, d, power * q, cache)
    params = {"chi": chi.label(), "k": k, "d": d, "n": n, "q": q}
    return _congruence_verdict("1.7", params, lhs, rhs, p, n, branch="ii")


def verify_lvalue_shift_odd_iff(
    chi: DirichletCharacter,
    k: int,
    h: int,
    n: int,
    cache: BernoulliCache,
) -> CongruenceVerdict:
    """Two-sided check, under the branch (ii) hypotheses, of:

        L*_(k + (p-1) h) == L*_k (mod p^n)  iff  h == 0 (mod p^(n-1)).

    ``holds`` records agreement with that statement.  Observed data show
    the difference has p-content valuation exactly val_p(h) (consistent
    with the shift congruence, whose right side has valuation exactly
    n - 1), so the alignment that actually holds is h == 0 (mod p^n);
    the verdict records it as ``expected_aligned``.  See the findings
    table emitted by the acceptance suite.
    """
    p, m = chi.p, chi.m
    _require(p % 2 == 1, "requires an odd prime conductor")
    _require(chi.is_primitive(), "requires a primitive character")
    _require(m >= 2, "branch (ii) requires m >= 2")
    _require(n >= 1 and h >= 0, "n must be >= 1 and h >= 0")
    if not opposite_parity(chi, k):
        raise ParityError(f"k={k} has the same parity as chi={chi.label()}")
    _require(
        unit_branch_witness(chi, k) is None,
        "a unit witness exists: branch (ii) hypotheses fail",
    )
    lhs = script_l(k + (p - 1) * h, chi, cache)
    rhs = script_l(k, chi, cache)
    params = {"chi": chi.label(), "k": k, "h": h, "n": n}
    val_h = rational_valuation(h, p)  # p^(n-1) and p^n are never formed
    verdict = _congruence_verdict("1.8", params, lhs, rhs, p, n, expected=val_h >= n - 1)
    # Reports print params in insertion order: the aligned reading goes last.
    verdict.params["expected_aligned"] = val_h >= n
    return verdict


# ---------------------------------------------------------------------
# Floor-sum (Voronoi-type) congruences


def verify_twisted_voronoi(
    chi: DirichletCharacter,
    a: int,
    k: int,
    n: int,
    cache: BernoulliCache,
) -> CongruenceVerdict:
    """For a character chi mod p^m, n >= m, p not dividing a, and k of
    parity opposite to chi, provided p >= 5 or (p in {2, 3} and n >= 2):

        (1 - chi(a) a^(k+1)) L(-k, chi)
            == chi(a) a^k sum_(j < p^n) chi(j) j^k floor(ja/p^n)   (mod p^n).
    """
    p, m = chi.p, chi.m
    _require_base(a, p)
    _require(n >= m, "requires n >= m")
    _require(p >= 5 or n >= 2, "requires p >= 5, or p in {2, 3} with n >= 2")
    if not opposite_parity(chi, k):
        raise ParityError(f"k={k} has the same parity as chi={chi.label()}")
    check_work(bounded_power(p, n), k + 1)  # the p^n-term floor sum, and B_(k+1,chi)
    t = chi.value_exponent(a)
    value = l_value(k, chi, cache)  # first: a negative k is refused before a**k
    lhs = value.times_binomial(1, -a ** (k + 1), t)
    rhs = floor_weighted_sum(k, a, p, n, chi).times_binomial(0, a**k, t)
    params = {"chi": chi.label(), "a": a, "k": k, "n": n}
    return _congruence_verdict("3.2", params, lhs, rhs, p, n)


def verify_voronoi(a: int, p: int, k: int, cache: BernoulliCache) -> CongruenceVerdict:
    """Classical floor-sum congruence for Bernoulli numbers:

        (a^k - 1) B_k == k a^(k-1) sum_(j<p) j^(k-1) floor(ja/p)  (mod p)

    for even k >= 2 and p >= 5 not dividing a.
    """
    _require(p >= 5 and is_prime(p), "requires a prime p >= 5")
    _require(k % 2 == 0 and k >= 2, "k must be even >= 2")
    _require_base(a, p)
    check_work(p, k)  # the floor sum's p terms, before B_k is looked up and a**k formed
    b_k = cache.bernoulli(k)
    lhs = (a**k - 1) * b_k
    rhs = floor_weighted_sum(k - 1, a, p, 1, None) * (k * a ** (k - 1))
    return _congruence_verdict("voronoi", {"a": a, "p": p, "k": k}, lhs, rhs, p, 1)


def verify_sun(k: int, n: int, cache: BernoulliCache) -> CongruenceVerdict:
    """Floor-sum congruence for Euler numbers:

        (3^(k+1) + 1)/4 * E_k
            == (3^k / 2) sum_(j < 2^n) (-1)^(j-1) (2j+1)^k floor((3j+1)/2^n)
        (mod 2^n), for even k >= 0.
    """
    _require(k % 2 == 0 and k >= 0, "k must be even >= 0")
    _require(n >= 1, "n must be >= 1")
    check_work(modulus := bounded_power(2, n), k)  # before E_k is looked up
    e_k = cache.euler(k)
    total = 0
    for j in range(modulus):
        sign = 1 if j % 2 else -1  # (-1)^(j-1)
        total += sign * (2 * j + 1) ** k * ((3 * j + 1) // modulus)
    lhs = Fraction(3 ** (k + 1) + 1, 4) * e_k
    rhs = Fraction(3**k, 2) * total
    return _congruence_verdict("sun", {"k": k, "n": n}, lhs, rhs, 2, n)


def verify_lerch(a: int, n: int) -> CongruenceVerdict:
    """Fermat-quotient congruence:

        (a^phi(n) - 1)/n == (1/a) sum_(j coprime to n) (1/j) floor(ja/n)  (mod n)

    with inverses taken mod n.  Margins are meaningful only up to the
    modulus: for a prime power n = p^e the required exponent is e and a
    holding verdict reports margin e.
    """
    _require(n >= 2, "n must be >= 2")
    check_bound(n)  # before euler_phi(n) trial-divides n
    if math.gcd(a, n) != 1:
        raise DomainError(f"a={a} must be coprime to n={n}")
    lhs = (pow(a, euler_phi(n), n * n) - 1) // n % n
    total = 0
    for j in range(1, n + 1):
        if math.gcd(j, n) == 1:
            total += pow(j, -1, n) * (j * a // n)
    rhs = pow(a, -1, n) * total % n
    holds = (lhs - rhs) % n == 0
    primes = prime_factors(n)
    if len(primes) == 1:
        # 0 <= lhs, rhs < n = p^e, so the margin is val_p(lhs - rhs) capped at e
        required = rational_valuation(n, primes[0])
        margin: Valuation = min(rational_valuation(lhs - rhs, primes[0]), required)
    else:
        required, margin = 1, (1 if holds else 0)
    return CongruenceVerdict(
        id="lerch",
        params={"a": a, "n": n},
        holds=holds,
        required_modulus_exponent=required,
        observed_margin=margin,
        lhs=as_element(lhs),
        rhs=as_element(rhs),
    )


# ---------------------------------------------------------------------
# Sharpness observations


def check_nondivisibility(
    chi: DirichletCharacter, d: int, cache: BernoulliCache
) -> CongruenceVerdict:
    """Sharpness of the normalized L-value L*_d = (1 - chi(u)) L(-d, chi):

    for odd p the claim is that p does not divide L*_d (content valuation
    exactly 0); for p = 2 that L*_d is a multiple of 2 but not 4
    (content valuation exactly 1).  ``holds`` records whether the
    observed valuation equals that bound.
    """
    value = script_l(d, chi, cache)
    p = chi.p
    expected = 1 if p == 2 else 0
    margin = p_content_valuation(value, p)
    return CongruenceVerdict(
        id="nondiv",
        params={"chi": chi.label(), "d": d, "expected_valuation": expected},
        holds=margin == expected,
        required_modulus_exponent=expected,
        observed_margin=margin,
        lhs=value,
        rhs=CyclotomicElement.zero(value.order),
    )


def _floor_count(m: int) -> int:
    count = 0
    for j in range(0, 2 ** (m + 2) // 20 + 2):
        v = 20 * j + 5
        if 2**m <= v < 2 ** (m + 1):
            count += 1
        if 3 * 2**m <= v < 2 ** (m + 2):
            count += 1
    return count


def verify_floor_count(m: int) -> CongruenceVerdict:
    """|{j : 2^m <= 20j+5 < 2^(m+1)}| + |{j : 3*2^m <= 20j+5 < 2^(m+2)}|
    must be odd, i.e. congruent to 1 mod 2; defined for 3 <= m <= 6."""
    _require(3 <= m <= 6, "m must be in 3..6")
    return _congruence_verdict("floor-parity", {"m": m}, _floor_count(m), 1, 2, 1)


# ---------------------------------------------------------------------
# Power-sum lemmas


def verify_sum_lift(
    chi: DirichletCharacter, k: int, n: int
) -> CongruenceVerdict:
    """S_k(p^n, chi) == p^(n-m) S_k(p^m, chi)  (mod p^n) for n >= m.

    Stated for any character mod p^m; genuinely fails for p = 2, m = 1
    (the parity-free character mod 2) with odd k and n >= 2, which the
    sweep treats as the excluded region.
    """
    p, m = chi.p, chi.m
    _require(n >= m, "requires n >= m")
    lhs = power_sum(k, bounded_power(p, n), chi)
    rhs = power_sum(k, p**m, chi) * p ** (n - m)
    params = {"chi": chi.label(), "k": k, "n": n}
    return _congruence_verdict("2.1", params, lhs, rhs, p, n)


def verify_sum_twist(
    chi: DirichletCharacter, k: int, a: int
) -> CongruenceVerdict:
    """(1 - chi(a) a^k) S_k(p^m, chi) == 0  (mod p^m) for a coprime to p."""
    p, m = chi.p, chi.m
    _require_base(a, p)
    lhs = power_sum(k, p**m, chi).times_binomial(1, -a**k, chi.value_exponent(a))
    rhs = CyclotomicElement.zero(chi.zeta_order)
    params = {"chi": chi.label(), "k": k, "a": a}
    return _congruence_verdict("2.2", params, lhs, rhs, p, m)


def verify_character_orders(chi: DirichletCharacter) -> CongruenceVerdict:
    """Order structure of character values at 1 + p^j:

    odd p, primitive chi mod p^m, 1 <= j < m: chi(p^(m-j) + 1) has exact
    order p^j; p = 2, m >= 3: chi(5) has exact order 2^(m-2).
    """
    p, m = chi.p, chi.m
    _require(chi.is_primitive(), "requires a primitive character")
    checks: dict[str, int] = {}
    ok = True
    if p == 2:
        _require(m >= 3, "p = 2 requires m >= 3")
        order = chi.value_order(5)
        checks["order_chi_5"] = order
        ok = order == 2 ** (m - 2)
    else:
        _require(m >= 2, "odd p requires m >= 2")
        for j in range(1, m):
            order = chi.value_order(p ** (m - j) + 1)
            checks[f"order_at_1+p^{m - j}"] = order
            ok = ok and order == p**j
    one = CyclotomicElement.one(chi.zeta_order)
    return CongruenceVerdict(
        id="2.3",
        params={"chi": chi.label(), **checks},
        holds=ok,
        required_modulus_exponent=0,
        observed_margin=math.inf if ok else 0,
        lhs=one,
        rhs=one,
    )


def vanishing_character_ok(chi: DirichletCharacter) -> bool:
    # The power-sum vanishing lemmas are about primitive characters; the
    # m = 1 statement at p = 2 is carried by the parity-free character
    # mod 2 (the only character there, of conductor 1).
    if chi.p == 2 and chi.m == 1:
        return chi.is_trivial()
    return chi.is_primitive()


def verify_sum_vanishing(
    chi: DirichletCharacter, k: int, n: int
) -> CongruenceVerdict:
    """S_k(p^n, chi) == 0  (mod p^(n-1)) for primitive chi mod p^m, n >= m."""
    p, m = chi.p, chi.m
    _require(vanishing_character_ok(chi), "requires a primitive character")
    _require(n >= m and n >= 1, "requires n >= max(m, 1)")
    lhs = power_sum(k, bounded_power(p, n), chi)
    rhs = CyclotomicElement.zero(chi.zeta_order)
    params = {"chi": chi.label(), "k": k, "n": n}
    return _congruence_verdict("2.4", params, lhs, rhs, p, n - 1)


def verify_sum_vanishing_two(
    chi: DirichletCharacter, k: int, n: int
) -> CongruenceVerdict:
    """S_k(2^n, chi) == 0  (mod 2^n) for n >= max(m, 2).

    Holds when m >= 3, or m = 2 with k even, or m = 1 with k odd; the
    complementary cases are the sweep's excluded region and genuinely
    fail.
    """
    p, m = chi.p, chi.m
    _require(p == 2, "only defined for p = 2")
    _require(vanishing_character_ok(chi), "requires a primitive character")
    _require(n >= max(m, 2), "requires n >= max(m, 2)")
    lhs = power_sum(k, bounded_power(2, n), chi)
    rhs = CyclotomicElement.zero(chi.zeta_order)
    params = {"chi": chi.label(), "k": k, "n": n}
    return _congruence_verdict("2.5", params, lhs, rhs, 2, n)


def strengthened_vanishing_applies(chi: DirichletCharacter, k: int) -> bool:
    """Case condition for the full 2^n vanishing: m >= 3, or m = 2 with k
    even, or m = 1 with k odd."""
    m = chi.m
    return m >= 3 or (m == 2 and k % 2 == 0) or (m == 1 and k % 2 == 1)


def sum_lift_excluded(chi: DirichletCharacter, k: int) -> bool:
    """Excluded region of the power-sum lift congruence: p = 2, m = 1, odd k."""
    return chi.p == 2 and chi.m == 1 and k % 2 == 1
