"""Hilbert-Samuel functions against the staircase-counting oracle."""
import itertools

import pytest

from reeshk.hk_formulas import c_of_d, hilbert_F, hilbert_H
from reeshk.monomial_algebra import minimalize
from fractions import Fraction

from reference import (
    asymptotic_coefficients,
    cm_sop_hk_polynomial,
    hilbert_F_unrefined,
    middle_branch_sum,
    power,
    reduction_number_power,
)


def param_ideal(exponents):
    d = len(exponents)
    gens = []
    for i, a in enumerate(exponents):
        e = [0] * d
        e[i] = a
        gens.append(e)
    return minimalize(gens)


def oracle_F(exponents, s, n):
    """length(I^[s] / I^[s] I^n) as a difference of two staircase counts."""
    m = param_ideal(exponents)
    frob = m.frobenius(s)
    return frob.product(power(m, n)).colength() - frob.colength()


class TestHilbertH:
    def test_examples(self):
        assert hilbert_H(2, 1, 3) == 6
        assert hilbert_H(3, 2, 1) == 2

    def test_against_staircase_count(self):
        m = param_ideal((1, 1, 1))
        assert hilbert_H(3, 1, 5) == power(m, 5).colength() == 35

    def test_nonpositive_n(self):
        assert hilbert_H(3, 2, 0) == 0
        assert hilbert_H(3, 2, -4) == 0

    def test_context_validation(self):
        # d >= 1 and e0 >= 1, checked by both functions at any n
        for n in (-1, 0, 3):
            with pytest.raises(ValueError):
                hilbert_H(0, 1, n)
            with pytest.raises(ValueError):
                hilbert_H(2, 0, n)
            with pytest.raises(ValueError):
                hilbert_F(0, 1, 2, n)
            with pytest.raises(ValueError):
                hilbert_F(2, 0, 2, n)


class TestHilbertF:
    def test_first_branch_example(self):
        assert hilbert_F(2, 1, 2, 1) == 2
        assert oracle_F((1, 1), 2, 1) == 2

    def test_third_branch_example(self):
        assert hilbert_F(2, 1, 2, 2) == 6
        assert oracle_F((1, 1), 2, 2) == 6

    def test_middle_branch_example(self):
        # 4 H(4) - 6 H(1) + 4 H(-2) = 140 - 6 + 0
        assert hilbert_F(4, 1, 3, 4) == 134
        assert oracle_F((1, 1, 1, 1), 3, 4) == 134

    def test_nonpositive_n(self):
        assert hilbert_F(3, 2, 2, 0) == 0
        assert hilbert_F(3, 2, 2, -1) == 0

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            hilbert_F(1, 1, 2, 1)

    def test_bad_s_rejected(self):
        with pytest.raises(ValueError):
            hilbert_F(2, 1, 0, 1)

    def test_matches_oracle_grid(self):
        for d in (2, 3):
            for exps in itertools.product((1, 2), repeat=d):
                e0 = 1
                for a in exps:
                    e0 *= a
                for s in range(1, 5):
                    for n in range(1, d * s + 1):
                        assert hilbert_F(d, e0, s, n) == oracle_F(exps, s, n), (
                            exps,
                            s,
                            n,
                        )

    def test_refined_equals_original_split(self):
        for d in range(2, 6):
            for e0 in (1, 3):
                for s in range(1, 5):
                    for n in range(0, d * s + 4):
                        assert hilbert_F(d, e0, s, n) == hilbert_F_unrefined(d, e0, s, n)

    def test_nondecreasing_in_n(self):
        for d in (2, 3, 4):
            for s in range(1, 5):
                values = [hilbert_F(d, 2, s, n) for n in range(1, 3 * d * s)]
                assert values == sorted(values)

    def test_boundary_window_consistency(self):
        # the middle-branch sum agrees with H(n+s) - s^d e0 on the window
        # s(d-1)-d+1 <= n <= s(d-1)
        for d in range(2, 7):
            for e0 in (1, 2):
                for s in range(2, 7):
                    for n in range(s * (d - 1) - d + 1, s * (d - 1) + 1):
                        expected = hilbert_H(d, e0, n + s) - s**d * e0
                        assert middle_branch_sum(d, e0, s, n) == expected, (d, s, n)


class TestReductionNumber:
    def test_examples(self):
        assert reduction_number_power(3, 5) == 2
        assert reduction_number_power(4, 2) == 2
        assert reduction_number_power(3, 2) == 1

    def test_stable_regime(self):
        for d in range(2, 11):
            for s in range(d, 31):
                assert reduction_number_power(d, s) == d - 1

    def test_small_s(self):
        assert reduction_number_power(4, 1) == 0  # k1 = 4, k2 = 0
        assert reduction_number_power(6, 4) == 4  # k1 = 1, k2 = 2


class TestConstantAndAsymptotics:
    def test_c_of_d(self):
        assert c_of_d(2) == Fraction(4, 3)
        assert c_of_d(3) == Fraction(13, 8)
        assert c_of_d(1) == 1

    def test_asymptotic_d3(self):
        assert asymptotic_coefficients(3, 1) == (
            Fraction(13, 8), Fraction(-1, 4), Fraction(-1, 8)
        )

    def test_asymptotic_d2(self):
        # (4/3) s^3 - (1/3) s: no s^2 term, and -1/3 sits in degree d-1 = 1
        assert asymptotic_coefficients(2, 1) == (Fraction(4, 3), 0, Fraction(-1, 3))

    def test_scaling_in_e0(self):
        assert asymptotic_coefficients(2, 7)[0] == Fraction(28, 3)

    def test_matches_exact_polynomial(self):
        for d in range(2, 8):
            poly = cm_sop_hk_polynomial(d, 3)
            top = tuple(poly.coefficient(k) for k in (d + 1, d, d - 1))
            assert top == asymptotic_coefficients(d, 3)
