"""Dirichlet characters modulo prime powers.

A character is pinned down by its images on canonical generators of
(Z/p^m)*: the smallest primitive root for odd p, the pair (-1, 5) for
2^m with m >= 3.  All values land in Q(zeta_N) with N = phi(p^m).
"""

from lcong import (
    build_unit_group,
    character,
    chi_minus4,
    enumerate_primitive,
)

# The unit group mod 8 needs two generators:
group = build_unit_group(2, 3)
print("generators of (Z/8)*:", group.generators)
print("3 = (-1)^1 * 5^1 mod 8:", group.dlog[3])

# The quadratic character of conductor 4 (the one behind the Euler numbers):
chi4 = chi_minus4()
print("chi_4(3) =", chi4(3), "| parity:", chi4.parity(), "| conductor:", chi4.conductor())

# An order-6 character mod 9, built from its image exponent on the generator 2:
chi9 = character(3, 2, (1,))
print("chi_9(2) =", chi9(2))
print("chi_9 conductor:", chi9.conductor(), "| primitive:", chi9.is_primitive())

# Values are roots of unity chi(a) = zeta_N^t, with t = chi.value_exponent(a).
# Characters are totally multiplicative and vanish off the coprime residues;
# multiplying by chi_9(2) = zeta_6^t shifts the exponent by t:
print("chi_9(4) = chi_9(2)^2:", chi9(4) == chi9(2).times_binomial(0, 1, chi9.value_exponent(2)))
print("chi_9(6) =", chi9(6))

# Enumeration by conductor: exactly phi(p^m) - phi(p^(m-1)) primitive ones.
for p, m in ((2, 3), (2, 4), (3, 2), (5, 2)):
    prim = enumerate_primitive(p, m)
    parities = {c.parity() for c in prim}
    print(f"{len(prim):2d} primitive characters mod {p}^{m} (parities: {sorted(parities)})")

# Primitivity is visible in value orders: chi(5) = zeta_N^t has exact order
# N / gcd(t, N) = 2^(m-2) for primitive characters of conductor 2^m, m >= 3.
for m in (3, 4, 5):
    orders = {chi.value_order(5) for chi in enumerate_primitive(2, m)}
    print(f"orders of chi(5) for conductor 2^{m}:", orders)

# Likewise chi(p^(m-k) + 1) has exact order p^k for odd p:
for chi in enumerate_primitive(3, 3):
    assert chi.value_order(3**2 + 1) == 3
    assert chi.value_order(3 + 1) == 9
print("value orders at 1 + p^j check out for all primitive characters mod 27")
