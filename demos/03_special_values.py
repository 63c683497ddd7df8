"""Bernoulli numbers, Euler numbers, and exact L-values at non-positive
integers.

The bridge is B_(k,chi), the character-twisted Bernoulli number:
L(-k, chi) = -B_(k+1,chi)/(k+1) whenever k and chi have opposite parity.
The secant numbers are the special case E_k = 2 L(-k, chi_4) for the
quadratic character of conductor 4.
"""

from lcong import (
    bernoulli_number,
    character,
    chi_minus4,
    euler_number,
    generalized_bernoulli,
    l_value,
    power_sum,
    script_l,
)

print("Bernoulli numbers:", [str(bernoulli_number(k)) for k in range(0, 13, 2)])
print("Euler numbers:    ", [euler_number(k) for k in range(0, 13, 2)])

chi4 = chi_minus4()
print("\nE_k = 2 L(-k, chi_4), checked exactly:")
for k in (0, 2, 4, 6, 8):
    print(f"  k={k}: E_k = {euler_number(k)}, 2L = {2 * l_value(k, chi4)}")

# The even quadratic character mod 8, and its twisted Bernoulli numbers:
chi8 = character(2, 3, (0, 1))
print("\nB_(k, chi_8):", [str(generalized_bernoulli(k, chi8)) for k in range(5)])
print("L(-1, chi_8) =", l_value(1, chi8))
print("L(-3, chi_8) =", l_value(3, chi8))

# The unit-normalized values (1 - chi(5)) L(-k, chi) are always even
# integers here; they are the quantities whose shift congruences the
# verifier catalog is about:
print("normalized L*: ", [str(script_l(k, chi8)) for k in (1, 3, 5, 7)])

# A twisted power sum over one period is a Bernoulli quantity:
# f B_(1,chi) = S_1(f, chi) for a nontrivial chi of modulus f.
s_1 = power_sum(1, 4, chi4)
print("\nS_1(4, chi_4) =", s_1, "== 4 B_(1, chi_4):", s_1 == 4 * generalized_bernoulli(1, chi4))

# A character with honest cyclotomic values (order 6 mod 9):
chi9 = character(3, 2, (1,))
print("\nB_(3, chi_9) =", generalized_bernoulli(3, chi9))
print("L(-2, chi_9) =", l_value(2, chi9))
print("L*(2, chi_9) =", script_l(2, chi9))
