"""A tour of exact cyclotomic arithmetic.

Everything in lcong is built on elements of Q(zeta_N) stored on the
power basis as integer coordinates over one positive denominator: no
floats anywhere, so "equal" means equal and "divisible" means divisible.
Printing shows each coordinate as a reduced fraction.

The ring is the one the congruence catalog uses: sums and differences at
one order, multiples and quotients by rationals, and products by a
binomial c0 + c1 zeta_N^t, the shape of every chi-value factor.
"""

from fractions import Fraction

from lcong import (
    congruent_mod,
    cyclotomic_polynomial,
    p_content_valuation,
    zeta,
)

# The reduction modulus for Q(zeta_8) is x^4 + 1 (constant term first):
print("Phi_8 =", cyclotomic_polynomial(8))

# Sums reduce modulo Phi_N; zeta_8^4 = -1:
print("zeta_8^4 + zeta_8^2 =", zeta(8, 4) + zeta(8, 2))  # -1 + z8^2
print("zeta_3 + zeta_3^2 =", zeta(3) + zeta(3, 2))        # -1

# A rational meets an element of any order; it multiplies and divides:
x = 1 + zeta(8) - zeta(8, 3) * Fraction(2, 3)
print("x =", x, "is stored as", x.num, "over", x.den)
print("x / 3 =", x / 3)
print("3 - 2x =", 3 - 2 * x)

# An element is multiplied only by a binomial c0 + c1 zeta_N^t, applied as
# one shift and one reduction: (c0 + c1 zeta^t) * y is y.times_binomial(c0, c1, t).
print("(1 - zeta_3)(1 - zeta_3^2) =", (1 - zeta(3)).times_binomial(1, -1, 2))  # 3
i = zeta(4)
print("i * i =", i.times_binomial(0, 1, 1))                   # -1
print("(1 - i)(1 + i) =", (1 + i).times_binomial(1, -1, 1))  # 2
# Two elements of different orders above 1 are never combined:
try:
    zeta(4) + zeta(3)
except ValueError as exc:
    print("zeta_4 + zeta_3:", exc)

# The p-content valuation reads off how divisible an element is by p.
# It is the minimum p-adic valuation of the power-basis coordinates:
y = zeta(8) * 8 + 2
print("val_2(8*zeta_8 + 2) =", p_content_valuation(y, 2))   # 1
print("val_2(1 + i) =", p_content_valuation(1 + i, 2))       # 0, yet (1 + i) divides 2

# Congruences "mod p^n" mean the difference lands in p^n Z_(p)[zeta]:
holds, margin = congruent_mod(16, 0, 2, 4)
print("16 == 0 mod 2^4:", holds, "with margin", margin)
holds, margin = congruent_mod(-60, 0, 2, 3)
print("-60 == 0 mod 2^3:", holds, "(margin", str(margin) + ")")
# (1 - zeta_8^3)(1 + 4 zeta_8) == 1 - zeta_8^3 mod 2^2, with margin exactly 2:
w = 1 - zeta(8, 3)
holds, margin = congruent_mod(w.times_binomial(1, 4, 1), w, 2, 2)
print("(1 - zeta_8^3)(1 + 4 zeta_8) == 1 - zeta_8^3 mod 2^2:", holds, "with margin", margin)
