"""A tour of exact cyclotomic arithmetic.

Everything in lcong is built on elements of Q(zeta_N) stored on the
power basis as integer coordinates over one positive denominator: no
floats anywhere, so "equal" means equal and "divisible" means divisible.
Printing shows each coordinate as a reduced fraction.
"""

from fractions import Fraction

from lcong import (
    congruent_mod,
    cyclotomic_polynomial,
    p_content_valuation,
    root_of_unity_order,
    zeta,
)

# The reduction modulus for Q(zeta_8) is x^4 + 1 (constant term first):
print("Phi_8 =", cyclotomic_polynomial(8))

# Roots of unity multiply by adding exponents, even across orders:
i = zeta(4)
print("i^2 =", i * i)                    # -1
print("zeta_4 * zeta_3 =", zeta(4) * zeta(3))  # an element of Q(zeta_12)

# Classical identities hold on the nose:
print("zeta_3 + zeta_3^2 =", zeta(3) + zeta(3, 2))          # -1
print("(1 - zeta_3)(1 - zeta_3^2) =", (1 - zeta(3)) * (1 - zeta(3, 2)))  # 3

# Only a rational divides an element; a quotient by an element is
# written as a product, e.g. (1 - w) / (1 - w^-1) = -w for a root of unity w:
x = 1 + zeta(8) - zeta(8, 3) * Fraction(2, 3)
print("x =", x, "is stored as", x.num, "over", x.den)
print("x / 3 =", x / 3)
w = zeta(8, 3)
print("1 - w == -w (1 - w^-1) for w = zeta_8^3:", 1 - w == -w * (1 - zeta(8, -3)))  # True

# The p-content valuation reads off how divisible an element is by p.
# It is the minimum p-adic valuation of the power-basis coordinates:
y = zeta(8) * 8 + 2
print("val_2(8*zeta_8 + 2) =", p_content_valuation(y, 2))   # 1

# Congruences "mod p^n" mean the difference lands in p^n Z_(p)[zeta]:
holds, margin = congruent_mod(16, 0, 2, 4)
print("16 == 0 mod 2^4:", holds, "with margin", margin)
holds, margin = congruent_mod(-60, 0, 2, 3)
print("-60 == 0 mod 2^3:", holds, "(margin", str(margin) + ")")

# (1 - i)(1 + i) = 2, so (1 - i) divides 2 without leaving Z_(2)[i]:
q = 1 + i
print("(1 - i)(1 + i) =", (1 - i) * q, "with val_2(1 + i) =", p_content_valuation(q, 2))  # 2, 0

# Orders of roots of unity are computed exactly:
print("order of zeta_18^6:", root_of_unity_order(zeta(18, 6)))  # 3
try:
    root_of_unity_order(1 + i)
except ValueError as exc:
    print("1 + i:", exc)
