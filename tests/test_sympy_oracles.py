"""sympy as an independent oracle for the classical sequences and orders.

Test-only: the package itself stays pure stdlib, and these tests are
skipped where sympy is not installed.
"""

from fractions import Fraction
from math import gcd

import pytest

sympy = pytest.importorskip("sympy")

from lcong.characters import multiplicative_order
from lcong.cyclotomic import cyclotomic_polynomial, euler_phi


def test_bernoulli_numbers(memo):
    for k in range(80):
        b = sympy.bernoulli(k)
        expected = Fraction(int(b.p), int(b.q))
        if k == 1:
            expected = -expected  # sympy uses B_1 = +1/2, lcong t/(e^t - 1)
        assert memo.bernoulli(k) == expected, k


def test_euler_numbers(memo):
    for k in range(80):
        assert memo.euler(k) == int(sympy.euler(k)), k


def test_cyclotomic_polynomials():
    x = sympy.Symbol("x")
    for n in range(1, 211):
        coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(coeffs)), n


def test_multiplicative_orders():
    for modulus in (*range(2, 130), 243, 256, 343, 625, 1024):
        phi = euler_phi(modulus)
        for a in range(1, modulus):
            if gcd(a, modulus) == 1:
                expected = sympy.ntheory.n_order(a, modulus)
                assert multiplicative_order(a, modulus, phi) == expected, (a, modulus)
