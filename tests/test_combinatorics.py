"""Combinatorial primitives against brute force and classical identities.

Only `binomial` is in the package.  The Stirling numbers, the
alternating sum and the binomial expansion are references in
`tests/reference.py`; the other tests build on them, so they are
checked here against enumeration and closed forms.
"""
import itertools
import math
from fractions import Fraction

import pytest

from reeshk.hk_formulas import binomial
from reeshk.polynomials import Poly

from reference import (
    alternating_binomial_sum,
    alternating_binomial_sum_closed_form,
    binomial_poly_expand,
    cycle_count,
    stirling_first,
    stirling_second,
)


def brute_cycle_count(n: int, k: int) -> int:
    """Count permutations of n elements with exactly k cycles, by enumeration."""
    count = 0
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            i = start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
        if cycles == k:
            count += 1
    return count


class TestBinomial:
    def test_examples(self):
        assert binomial(4, 2) == 6
        assert binomial(2, 4) == 0
        assert binomial(6, 4) == 15

    def test_vanishing_convention(self):
        assert binomial(-1, 3) == 0
        assert binomial(-5, 0) == 0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            binomial(4, -1)

    def test_pascal(self):
        for n in range(1, 61):
            for k in range(1, n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestStirlingFirst:
    def test_examples(self):
        assert stirling_first(4, 3) == -6

    def test_diagonal(self):
        for n in range(13):
            assert stirling_first(n, n) == 1

    def test_subdiagonal(self):
        for n in range(1, 13):
            assert stirling_first(n, n - 1) == -binomial(n, 2)

    def test_small_by_enumeration(self):
        for n in range(7):
            for k in range(n + 1):
                sign = 1 if (n - k) % 2 == 0 else -1
                assert stirling_first(n, k) == sign * brute_cycle_count(n, k)

    def test_generating_identity(self):
        # sum_k s(n, k) x^k = n! C(x, n)
        for n in range(13):
            for x in range(21):
                lhs = sum(stirling_first(n, k) * x**k for k in range(n + 1))
                assert lhs == math.factorial(n) * binomial(x, n)


class TestCycleCount:
    def test_examples(self):
        assert cycle_count(4, 2) == 11
        assert cycle_count(5, 3) == brute_cycle_count(5, 3) == 35

    def test_diagonal(self):
        for n in range(10):
            assert cycle_count(n, n) == 1

    def test_second_subdiagonal_closed_form(self):
        # c(d+1, d-1) = d (d+1) (3 d^2 - d - 2) / 24
        for d in range(2, 12):
            expected = d * (d + 1) * (3 * d**2 - d - 2) // 24
            assert cycle_count(d + 1, d - 1) == expected


class TestStirlingSecond:
    def test_examples(self):
        assert stirling_second(4, 3) == 6
        assert stirling_second(3, 3) == 1
        assert stirling_second(2, 3) == 0

    def test_one_above_diagonal(self):
        for d in range(1, 13):
            assert stirling_second(d + 1, d) == binomial(d + 1, 2)

    def test_alternating_sum_formula(self):
        # S(n, k) = (1/k!) sum_i (-1)^(k-i) C(k,i) i^n
        for n in range(11):
            for k in range(n + 1):
                acc = sum(
                    (-1) ** (k - i) * binomial(k, i) * i**n for i in range(k + 1)
                )
                assert acc % math.factorial(k) == 0
                assert stirling_second(n, k) == acc // math.factorial(k)

    def test_power_sum_identity(self):
        # sum_i (-1)^(d-i) C(d,i) i^j = d! S(j, d)
        for d in range(11):
            for j in range(13):
                lhs = sum((-1) ** (d - i) * binomial(d, i) * i**j for i in range(d + 1))
                assert lhs == math.factorial(d) * stirling_second(j, d)


class TestAlternatingSumIdentity:
    def test_examples(self):
        assert alternating_binomial_sum(2, 2) == alternating_binomial_sum_closed_form(2, 2) == 4
        assert alternating_binomial_sum(3, 1) == alternating_binomial_sum_closed_form(3, 1) == 0
        assert alternating_binomial_sum(3, 2) == alternating_binomial_sum_closed_form(3, 2) == 12

    def test_identity_grid(self):
        for d in range(1, 11):
            for s in range(1, 11):
                assert alternating_binomial_sum(d, s) == alternating_binomial_sum_closed_form(d, s)


class TestBinomialPolyExpand:
    def test_d3(self):
        poly = binomial_poly_expand(3)
        assert poly == Poly([0, Fraction(-2, 24), Fraction(-1, 24), Fraction(2, 24), Fraction(1, 24)])
        assert poly.coefficient(4) == Fraction(1, 24)
        assert poly.coefficient(3) == Fraction(1, 12)
        assert poly.coefficient(2) == Fraction(-1, 24)

    def test_d2(self):
        poly = binomial_poly_expand(2)
        assert poly == Poly([0, Fraction(-1, 6), 0, Fraction(1, 6)])
        assert poly.coefficient(2) == 0

    def test_d4_leading(self):
        assert binomial_poly_expand(4).coefficient(5) == Fraction(1, 120)

    def test_top_three_coefficients(self):
        # 1/(d+1)!, beta1/d!, beta2/(d-1)! with beta1 = (d-2)/2,
        # beta2 = (d-1)(3d-10)/24
        for d in range(2, 9):
            poly = binomial_poly_expand(d)
            assert poly.coefficient(d + 1) == Fraction(1, math.factorial(d + 1))
            beta1 = Fraction(d - 2, 2)
            beta2 = Fraction((d - 1) * (3 * d - 10), 24)
            assert poly.coefficient(d) == beta1 / math.factorial(d)
            assert poly.coefficient(d - 1) == beta2 / math.factorial(d - 1)

    def test_matches_binomial_at_integers(self):
        for d in range(2, 9):
            poly = binomial_poly_expand(d)
            for s in range(1, 31):
                assert poly(s) == binomial(s + d - 1, d + 1)
