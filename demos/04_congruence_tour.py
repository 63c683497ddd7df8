"""One instance of every congruence verifier in the catalog.

Each verifier returns a CongruenceVerdict carrying the exact sides, the
required modulus exponent, and the observed valuation margin (which is
often strictly larger than required: that excess is data).
"""

from lcong.characters import character, chi_minus4
from lcong.congruences import (
    check_nondivisibility,
    verify_character_orders,
    verify_ernvall,
    verify_euler_kummer,
    verify_floor_count,
    verify_kummer_classical,
    verify_lerch,
    verify_lvalue_shift_odd,
    verify_lvalue_shift_odd_iff,
    verify_lvalue_shift_two,
    verify_lvalue_shift_two_iff,
    verify_stern,
    verify_stern_iff,
    verify_sum_lift,
    verify_sum_twist,
    verify_sum_vanishing,
    verify_sun,
    verify_twisted_voronoi,
    verify_voronoi,
)

chi4 = chi_minus4()
chi8 = character(2, 3, (0, 1))   # even quadratic mod 8
chi9 = character(3, 2, (1,))     # order 6 mod 9


def show(v):
    mark = "ok " if v.holds else "NO "
    branch = f" [{v.branch}]" if v.branch else ""
    print(f"{mark}{v.id:12s}{branch:6s} {v.params}  margin {v.observed_margin} "
          f"(needs {v.required_modulus_exponent})")


# Kummer-family congruences for the classical and twisted Bernoulli numbers:
show(verify_kummer_classical(5, 2, 6, 1))
show(verify_ernvall(chi4, 5, 3, 7, 1))
show(verify_euler_kummer(5, 4, 8))

# Euler-number shift congruence and its two-sided iff form:
show(verify_stern(0, 3, 1))           # E_8 = 1385 == 1 + 8 (mod 16)
show(verify_stern_iff(0, 4, 3))       # 0 != 4 mod 8, so E_0 != E_4 mod 8

# The normalized L-value shift congruence for conductor 8, with the
# hand-checkable instance L*_3 - L*_1 = 24 == -8 (mod 16):
show(verify_lvalue_shift_two(chi8, 1, 1, 1))
show(verify_lvalue_shift_two_iff(chi8, 1, 3, 1))

# The odd-prime analogue branches on whether 1 - chi(a) a^(k+1) can be
# prime to p; conductor 9 characters always land in branch (ii):
show(verify_lvalue_shift_odd(character(5, 1, (2,)), 3, 1, 1))   # branch (i)
show(verify_lvalue_shift_odd(chi9, 0, 1, 1))                    # branch (ii)
show(verify_lvalue_shift_odd_iff(chi9, 0, 9, 2))

# Floor-weighted sums: the L-value form, the classical Bernoulli form,
# the Euler-number form, and the Fermat-quotient form:
show(verify_twisted_voronoi(chi8, 3, 1, 3))   # -10 == -18 (mod 8)
show(verify_voronoi(2, 5, 4))
show(verify_sun(2, 3))
show(verify_lerch(3, 5))

# Power-sum lemmas: lifting, twisting, divisibility, and value orders:
show(verify_sum_lift(chi8, 2, 4))
show(verify_sum_twist(chi8, 2, 3))
show(verify_sum_vanishing(chi9, 1, 3))
show(verify_character_orders(chi8))

# Sharpness: the normalized L*_d is exactly as divisible as claimed,
# never more (valuation 1 at p=2, valuation 0 at odd p):
show(check_nondivisibility(chi8, 1))
show(check_nondivisibility(chi9, 0))

# And the four-case floor-count parity check:
print("floor-count parity for m=3..6:", [verify_floor_count(m).holds for m in (3, 4, 5, 6)])
