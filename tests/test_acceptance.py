"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.  Every comparison is exact; the only tolerances
are the stated wall-clock budgets.
"""
import itertools
import random
import time
from fractions import Fraction
from math import prod

from reeshk.hk_formulas import (
    binomial,
    c_of_d,
    cm_sop_hk,
    compare_to_eto_yoshida,
    hilbert_F,
    hilbert_H,
)
from reeshk.monomial_algebra import minimalize
from reeshk.polynomials import Poly
from reeshk.rees_oracle import (
    InconsistentSamples,
    alpha_table,
    estimate_ehk,
    fit_quasi_polynomial,
    parameter_ideal,
    rees_colength_dim1,
    rees_colength_monomial,
)

from reference import (
    alternating_binomial_sum,
    alternating_binomial_sum_closed_form,
    binomial_poly_expand,
    colength_by_inclusion_exclusion,
    middle_branch_sum,
    power,
    stirling_first,
    stirling_second,
)


def report(number: int, label: str, failures: list, started: float, budget: float):
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < budget
    print(
        f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:.2f}s / {budget:.0f}s budget]"
    )
    assert not failures, f"criterion {number}: {failures[:5]}"
    assert elapsed < budget, f"criterion {number}: {elapsed:.2f}s over budget {budget}s"


def test_criterion_1_three_variable_example():
    started = time.monotonic()
    failures = []
    for exps in [(1, 1, 1), (1, 2, 1), (2, 2, 3)]:
        e0 = prod(exps)
        formula = cm_sop_hk(3, e0, 2)
        oracle = rees_colength_monomial(parameter_ideal(exps), [2])[2]
        if formula != 23 * e0:
            failures.append((exps, "formula", formula))
        if oracle != 23 * e0:
            failures.append((exps, "oracle", oracle))
    report(1, "three-variable example at s=2", failures, started, 10.0)


def test_criterion_2_three_variable_polynomial():
    started = time.monotonic()
    failures = []
    poly = Poly([0, Fraction(-1, 4), Fraction(-1, 8), Fraction(-1, 4), Fraction(13, 8)])
    expected = {3: 123, 4: 397, 5: 980}
    for s in (3, 4, 5):
        value = cm_sop_hk(3, 1, s)
        if value != poly(s) or value != expected[s]:
            failures.append((s, value))
    oracle = rees_colength_monomial(parameter_ideal((1, 1, 1)), [3])[3]
    if oracle != 123:
        failures.append(("oracle s=3", oracle))
    report(2, "13/8 s^4 - 1/4 s^3 - 1/8 s^2 - 1/4 s", failures, started, 60.0)


def test_criterion_3_dimension_two_closed_form():
    started = time.monotonic()
    failures = []
    expected = [10, 35, 84, 165, 286]
    for s, want in zip(range(2, 7), expected):
        value = cm_sop_hk(2, 1, s)
        if 3 * value != 4 * s**3 - s or value != want:
            failures.append((s, value))
    ideal = parameter_ideal((1, 1))
    for s in range(2, 6):
        oracle = rees_colength_monomial(ideal, [s])[s]
        if oracle != cm_sop_hk(2, 1, s):
            failures.append(("oracle", s, oracle))
    report(3, "(4/3) s^3 - s/3 with oracle", failures, started, 10.0)


def test_criterion_4_fermat_parameter_rees():
    started = time.monotonic()
    failures = []
    for e in range(2, 7):
        q = 2**e
        want = 5 * q * q - (4 * q if e % 2 == 0 else 6 * q)
        value = rees_colength_dim1(5, "rees-of-x", [q])[q]
        if value != want:
            failures.append((e, value, want))
    report(4, "rees-of-x: 5q^2-4q even, 5q^2-6q odd", failures, started, 30.0)


def test_criterion_5_fermat_maximal_rees():
    started = time.monotonic()
    failures = []
    for e in range(3, 7):
        q = 2**e
        want = 5 * q * q if e % 2 == 0 else 5 * q * q - 10
        value = rees_colength_dim1(5, "rees-of-m", [q])[q]
        if value != want:
            failures.append((e, value, want))
    table = alpha_table(5, 3, [2**e for e in range(2, 8)])
    golden = {0: (-4, -6), 1: (-3, -5), 2: (-2, -3), 3: (-1, -1)}
    for n, (even, odd) in golden.items():
        for e in range(2, 8):
            want = even if e % 2 == 0 else odd
            if table[n][2**e] != want:
                failures.append(("alpha", n, e, table[n][2**e], want))
    report(5, "rees-of-m: 5q^2 even, 5q^2-10 odd, alpha table", failures, started, 300.0)


def test_criterion_6_property_suite():
    started = time.monotonic()
    failures = []
    # combinatorial identity, all of d, s <= 10
    for d in range(1, 11):
        for s in range(1, 11):
            if alternating_binomial_sum(d, s) != alternating_binomial_sum_closed_form(d, s):
                failures.append(("combi", d, s))
    # Stirling recurrence and identity checks up to n = 12
    import math

    for n in range(13):
        if stirling_first(n, n) != 1 or stirling_second(n, n) != 1:
            failures.append(("stirling-diag", n))
        if n >= 1 and stirling_first(n, n - 1) != -binomial(n, 2):
            failures.append(("stirling-sub", n))
        for x in range(0, 13):
            lhs = sum(stirling_first(n, k) * x**k for k in range(n + 1))
            if lhs != math.factorial(n) * binomial(x, n):
                failures.append(("stirling-identity", n, x))
    # exact binomial polynomial expansion
    for d in range(2, 9):
        poly = binomial_poly_expand(d)
        for s in range(1, 31):
            if poly(s) != binomial(s + d - 1, d + 1):
                failures.append(("expand", d, s))
    # F(s, n) against the two-colength oracle
    for d in (2, 3):
        for exps in itertools.product((1, 2), repeat=d):
            ideal = parameter_ideal(exps)
            for s in range(1, 5):
                frob = ideal.frobenius(s)
                base = frob.colength()
                for n in range(1, d * s + 1):
                    oracle = frob.product(power(ideal, n)).colength() - base
                    if hilbert_F(d, prod(exps), s, n) != oracle:
                        failures.append(("F", exps, s, n))
    # boundary window of the refined split
    for d in range(2, 7):
        for s in range(2, 7):
            for n in range(s * (d - 1) - d + 1, s * (d - 1) + 1):
                if middle_branch_sum(d, 1, s, n) != hilbert_H(d, 1, n + s) - s**d:
                    failures.append(("boundary", d, s, n))
    # box walk versus inclusion-exclusion on 200 random primary ideals
    rng = random.Random(987654321)
    for trial in range(200):
        d = rng.choice([2, 3])
        gens = []
        for i in range(d):
            e = [0] * d
            e[i] = rng.randint(1, 6)
            gens.append(tuple(e))
        for _ in range(rng.randint(0, 6 - d)):
            gens.append(tuple(rng.randint(0, 6) for _ in range(d)))
        ideal = minimalize(gens)
        if ideal.colength() != colength_by_inclusion_exclusion(ideal):
            failures.append(("colength", trial, gens))
    report(6, "property suite", failures, started, 120.0)


def test_criterion_7_multiplicity_checks():
    started = time.monotonic()
    failures = []
    for d, e0 in [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1)]:
        values = {s: cm_sop_hk(d, e0, s) for s in range(d, 2 * d + 4)}
        estimate = estimate_ehk(values, d)
        if estimate != c_of_d(d) * e0:
            failures.append(("formula-sweep", d, e0, estimate))
        if compare_to_eto_yoshida(estimate, d, e0) != "equal":
            failures.append(("bound", d, e0))
    ideal = parameter_ideal((1, 1))
    sweep = {s: rees_colength_monomial(ideal, [s])[s] for s in range(2, 8)}
    estimate = estimate_ehk(sweep, 2)
    if estimate != Fraction(4, 3):
        failures.append(("oracle-sweep", estimate))
    if compare_to_eto_yoshida(estimate, 2, 1) != "equal":
        failures.append(("oracle-bound", estimate))
    report(7, "multiplicities are exactly c(d) e0", failures, started, 30.0)


def test_criterion_8_quasi_polynomial_fitting():
    started = time.monotonic()
    failures = []
    # parameter-ideal Rees samples, e = 2..9 (odd class needs four points
    # for a quadratic fit with one held-out validator)
    lengths_x = rees_colength_dim1(5, "rees-of-x", [2**e for e in range(2, 10)])
    values_x = {e: lengths_x[2**e] for e in range(2, 10)}
    qp_x = fit_quasi_polynomial(values_x, 2, 2, 2, holdout=1)
    if qp_x.polys[0] != Poly([0, -4, 5]) or qp_x.polys[1] != Poly([0, -6, 5]):
        failures.append(("rees-of-x fit", qp_x.format()))
    if qp_x.valid_from_e != 2:
        failures.append(("rees-of-x threshold", qp_x.valid_from_e))
    # maximal-ideal Rees samples, e = 2..7
    lengths_m = rees_colength_dim1(5, "rees-of-m", [2**e for e in range(2, 8)])
    values_m = {e: lengths_m[2**e] for e in range(2, 8)}
    qp_m = fit_quasi_polynomial(values_m, 2, 2, 2, holdout=0)
    if qp_m.polys[0] != Poly([0, 0, 5]) or qp_m.polys[1] != Poly([-10, 0, 5]):
        failures.append(("rees-of-m fit", qp_m.format()))
    if qp_m.valid_from_e != 2:
        failures.append(("rees-of-m threshold", qp_m.valid_from_e))
    # corrupted samples must be refused
    corrupted = dict(values_x)
    corrupted[9] += 1
    try:
        fit_quasi_polynomial(corrupted, 2, 2, 2, holdout=1)
        failures.append(("corruption not detected",))
    except InconsistentSamples:
        pass
    report(8, "quasi-polynomial fitting", failures, started, 60.0)
