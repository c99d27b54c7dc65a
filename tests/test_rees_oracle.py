"""Oracles, formula-oracle equivalence, alpha tables and exact fitting."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeshk import binomial_groebner, monomial_algebra, rees_oracle
from reeshk.binomial_groebner import plane_heights, quotient_colength
from reeshk.hk_formulas import cm_sop_hk, sop_dim1_hk
from reeshk.monomial_algebra import MonomialIdeal, minimalize
from reeshk.polynomials import Poly
from reeshk.rees_oracle import (
    InconsistentSamples,
    InsufficientSamples,
    ReesInstanceDim1,
    ReesInstanceMonomial,
    StabilizationNotReached,
    _graded_lengths,
    _plane_ring,
    _polynomial_ring,
    alpha_table,
    estimate_ehk,
    fit_quasi_polynomial,
    rees_colength_dim1,
    rees_colength_monomial,
)

from reference import graded_length_by_window, power

# the maximal ideal (X, Y) of k[X, Y], kept as its generators
PLANE_MAXIMAL = minimalize([(1, 0), (0, 1)])


class TestInstances:
    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            ReesInstanceMonomial((1,))
        with pytest.raises(ValueError):
            ReesInstanceMonomial((1, 0))
        assert ReesInstanceMonomial((2, 2, 3)).e0 == 12

    def test_dim1_validation(self):
        with pytest.raises(ValueError):
            ReesInstanceDim1(1, 2, "rees-of-x")
        with pytest.raises(ValueError):
            ReesInstanceDim1(5, 4, "rees-of-x")  # p not prime
        for variant in ("rees-of-t", "rees_of_x", "rees_of_m"):  # one spelling per variant
            with pytest.raises(ValueError, match="unknown variant"):
                ReesInstanceDim1(5, 2, variant)


class TestMonomialOracle:
    def test_graded_pieces_example(self):
        assert rees_colength_monomial(ReesInstanceMonomial((1, 1)), [2])[2] == 10

    def test_three_variables(self):
        assert rees_colength_monomial(ReesInstanceMonomial((1, 1, 1)), [2])[2] == 23

    def test_s_one_is_colength_of_ideal(self):
        assert rees_colength_monomial(ReesInstanceMonomial((1, 1)), [1])[1] == 1
        assert rees_colength_monomial(ReesInstanceMonomial((2, 3)), [1])[1] == 6

    def test_formula_oracle_equivalence(self):
        for d in (2, 3):
            for exps in itertools.product((1, 2, 3), repeat=d):
                inst = ReesInstanceMonomial(exps)
                for s in range(1, 5):
                    assert rees_colength_monomial(inst, [s])[s] == cm_sop_hk(
                        d, inst.e0, s
                    ), (exps, s)

    def test_tail_vanishes_at_detection_point(self):
        # the truncation point T has a zero summand, and so does T+1
        for exps, s in [((1, 1), 2), ((1, 2), 3), ((1, 1, 1), 2)]:
            inst = ReesInstanceMonomial(exps)
            ideal = inst.ideal()
            frob = ideal.frobenius(s)
            T = None
            for n in range(s, inst.d * s + 1):
                if frob.product(power(ideal, n - s)) == power(ideal, n):
                    T = n
                    break
            assert T is not None
            for n in (T, T + 1):
                piece = frob.product(power(ideal, n - s))
                assert piece.colength() == power(ideal, n).colength()


class TestDim1Oracle:
    def test_rees_of_x_values(self):
        inst = ReesInstanceDim1(5, 2, "rees-of-x")
        assert rees_colength_dim1(inst, [3])[3] == 272
        values = [rees_colength_dim1(inst, [e])[e] for e in range(2, 7)]
        assert values == [64, 272, 1216, 4928, 20224]

    def test_rees_of_m_values(self):
        inst = ReesInstanceDim1(5, 2, "rees-of-m")
        assert rees_colength_dim1(inst, [4])[4] == 1280
        assert rees_colength_dim1(inst, [3])[3] == 310

    def test_rees_of_x_matches_predictor(self):
        inst = ReesInstanceDim1(5, 2, "rees-of-x")
        qp = sop_dim1_hk(5, (-4, -6), 2)
        for e in range(2, 7):
            assert rees_colength_dim1(inst, [e])[e] == qp.value_at(e)

    def test_rees_of_m_matches_quasi_polynomial(self):
        from reeshk.cli import FERMAT5
        from reeshk.hk_formulas import cordim1_hk

        inst = ReesInstanceDim1(5, 2, "rees-of-m")
        qp = cordim1_hk(FERMAT5)
        for e in range(3, 11):
            assert rees_colength_dim1(inst, [e])[e] == qp.value_at(e)

    def test_unit_ideal_has_colength_zero(self):
        # the hypersurface ring needs no unit-ideal guard
        ring = _plane_ring(5)
        assert plane_heights(5, [(0, 0)]) == ring.unit
        assert ring.colength(ring.unit) == 0
        for d in (2, 3):
            assert quotient_colength(5, MonomialIdeal.unit(d)) == 0

    def test_package_built_ideals_are_not_checked_again(self, monkeypatch):
        # tuples are checked where they enter; the rees-of-m loop and the alpha
        # table build every ideal from ideals, so no tuple is checked twice
        validated, calls = monomial_algebra._validated, []

        def counting(*args, **kwargs):
            calls.append(args)
            return validated(*args, **kwargs)

        monkeypatch.setattr(monomial_algebra, "_validated", counting)
        monkeypatch.setattr(binomial_groebner, "_validated", counting, raising=False)
        assert rees_colength_dim1(ReesInstanceDim1(5, 2, "rees-of-m"), [4])[4] == 1280
        assert alpha_table(5, 2, 3, [2, 3])[0] == {2: -4, 3: -6}
        assert calls == []

    @pytest.mark.parametrize("a", [3, 5])
    def test_measured_ideals_stay_small(self, a, monkeypatch):
        # every product multiplies at most a staircase corners by the two of
        # m or m^[q]: m^n itself has n + 1 generators, up to 257 at q = 256
        measured = []

        def spy(exponent, pairs):
            measured.append(len(pairs))
            return plane_heights(exponent, pairs)

        monkeypatch.setattr(rees_oracle, "plane_heights", spy)
        rees_colength_dim1(ReesInstanceDim1(a, 2, "rees-of-m"), [8])[8]
        assert len(measured) >= 2 * 256
        assert max(measured) <= 2 * a


class TestGradedLength:
    """The shared graded sum: its tail cap, its stop rule, and a fixed-window reference."""

    # (ring, ideal, {q: first tail index t with I^[q] I^t = I^(q+t)})
    CASES = {
        "monomial": (_polynomial_ring(4), ReesInstanceMonomial((2, 1, 1, 1)).ideal(), {3: 6, 2: 3}),
        "hypersurface": (_plane_ring(7), (1, 0, 0, 0, 0, 0, 0), {8: 5, 4: 3}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_cap_below_truncation_raises(self, case):
        ring, ideal, first = self.CASES[case]
        full = _graded_lengths(ring, ideal, {q: t + 10 for q, t in first.items()})
        for q, t in first.items():
            # a piece past the cap that still differs raises, so cap t - 2 fails and
            # t - 1 holds; the other q of the sweep has room past its own t
            roomy = {other: first[other] + 10 for other in first if other != q}
            with pytest.raises(StabilizationNotReached, match=f"t <= {t - 2} at q={q}$"):
                _graded_lengths(ring, ideal, {q: t - 2, **roomy})
            assert _graded_lengths(ring, ideal, {q: t - 1, **roomy}) == full

    @pytest.mark.parametrize("exps", [(1, 1), (2, 3), (1, 1, 1), (1, 2, 2)])
    def test_monomial_matches_fixed_window(self, exps):
        inst = ReesInstanceMonomial(exps)
        for s in range(1, 5):
            window = (inst.d - 1) * s + 2  # tail pieces t = 0 .. cap + 1
            expected = graded_length_by_window(inst.ideal(), s, MonomialIdeal.colength, window)
            assert rees_colength_monomial(inst, [s])[s] == expected, s

    @pytest.mark.parametrize("a", range(2, 9))
    def test_rees_of_m_matches_fixed_window(self, a):
        # the reference multiplies unreduced powers of m; q <= 128 for p = 2, 3, 5
        for p, e_max in ((2, 7), (3, 4), (5, 3)):
            inst = ReesInstanceDim1(a, p, "rees-of-m")
            for e in range(1, e_max + 1):
                expected = graded_length_by_window(
                    PLANE_MAXIMAL, p**e, lambda ideal: quotient_colength(a, ideal), 2 * a + 2
                )
                assert rees_colength_dim1(inst, [e])[e] == expected, (p, e)


@st.composite
def monomial_sweeps(draw):
    """Exponents 1..3 in d = 2..4 variables and an unsorted, gapped set of s (s <= 3 for d = 4)."""
    d = draw(st.integers(2, 4))
    exponents = draw(st.tuples(*[st.integers(1, 3)] * d))
    ss = draw(st.lists(st.integers(1, 3 if d == 4 else 6), min_size=1, max_size=4, unique=True))
    return exponents, ss


class TestSweep:
    """One call over a sweep of s or e gives what one call per value gives."""

    @settings(max_examples=40)
    @given(monomial_sweeps())
    def test_monomial_sweep_matches_single_values(self, case):
        exponents, ss = case
        inst = ReesInstanceMonomial(exponents)
        sweep = rees_colength_monomial(inst, ss)
        assert list(sweep) == ss
        assert sweep == {s: rees_colength_monomial(inst, [s])[s] for s in ss}

    @settings(max_examples=40)
    @given(
        st.integers(2, 8),
        st.sampled_from([2, 3]).flatmap(
            lambda p: st.tuples(
                st.just(p), st.lists(st.integers(1, {2: 7, 3: 4}[p]), min_size=1, unique=True)
            )
        ),
    )
    def test_rees_of_m_sweep_matches_single_values(self, a, case):
        p, es = case
        inst = ReesInstanceDim1(a, p, "rees-of-m")
        sweep = rees_colength_dim1(inst, es)
        assert list(sweep) == es
        assert sweep == {e: rees_colength_dim1(inst, [e])[e] for e in es}

    def test_rees_of_x_sweep(self):
        inst = ReesInstanceDim1(5, 2, "rees-of-x")
        assert rees_colength_dim1(inst, [6, 2, 4]) == {6: 20224, 2: 64, 4: 1216}

    def test_colength_of_each_power_taken_once(self, monkeypatch):
        # one chain of powers serves every s: colength(I^n) is not recounted per s
        colength, calls = MonomialIdeal.colength, []

        def counting(self, *args, **kwargs):
            calls.append(self)
            return colength(self, *args, **kwargs)

        monkeypatch.setattr(MonomialIdeal, "colength", counting)
        inst = ReesInstanceMonomial((1, 1, 1))
        sweep = rees_colength_monomial(inst, range(1, 10))
        assert sweep == {s: cm_sop_hk(3, 1, s) for s in range(1, 10)}
        assert len(calls) <= 100  # one call per s made 190

    @pytest.mark.parametrize("oracle, inst, name", [
        (rees_colength_monomial, ReesInstanceMonomial((1, 1)), "s"),
        (rees_colength_dim1, ReesInstanceDim1(5, 2, "rees-of-m"), "e"),
        (rees_colength_dim1, ReesInstanceDim1(5, 2, "rees-of-x"), "e"),
    ])
    def test_sweep_checked_at_the_boundary(self, oracle, inst, name):
        with pytest.raises(ValueError, match=f"^the sweep of {name} is empty$"):
            oracle(inst, [])
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            oracle(inst, [3, 0, 2])


class TestAlphaTable:
    def test_known_values(self):
        table = alpha_table(5, 2, 3, range(2, 9))
        assert table[0][2] == -4 and table[0][3] == -6
        assert table[1][3] == -5 and table[1][4] == -3
        assert table[2][2] == -2 and table[2][5] == -3
        assert set(table[3].values()) == {-1}

    def test_period_two_from_e_two(self):
        table = alpha_table(5, 2, 3, range(2, 9))
        for n in range(4):
            for e in range(2, 7):
                assert table[n][e] == table[n][e + 2]

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("a", range(2, 9))
    def test_rows_match_unreduced_powers(self, a, p):
        # every row against m^[q] m^n and m^n built as plain products, q <= 81
        e_range = range(1, {2: 7, 3: 5}[p])
        table = alpha_table(a, p, 2 * a, e_range)
        for n, row in table.items():
            base = quotient_colength(a, power(PLANE_MAXIMAL, n))
            for e in e_range:
                frob = PLANE_MAXIMAL.frobenius(p**e)
                piece = quotient_colength(a, frob.product(power(PLANE_MAXIMAL, n)))
                assert row[e] == piece - base - a * p**e, (n, e)

    @pytest.mark.parametrize("a", [0, 1])
    def test_exponent_below_two_refused(self, a):
        with pytest.raises(ValueError, match="^hypersurface exponent must be at least 2$"):
            alpha_table(a, 2, 1, range(2, 4))

    def test_negative_e_refused_on_the_formula_side(self):
        # both sides of compare dim1 refuse it, not only the oracle
        message = r"^e must be nonnegative, so that q = p\^e is an integer$"
        with pytest.raises(ValueError, match=message):
            alpha_table(5, 2, 0, [-1])
        qp = sop_dim1_hk(5, (-4, -6), 2)
        assert qp.value_at(0) == 1  # 5 q^2 - 4 q at q = 1
        with pytest.raises(ValueError, match=message):
            qp.value_at(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            alpha_table(5, 2, -1, range(2, 4))
        with pytest.raises(ValueError):
            alpha_table(5, 2, 1, [])
        with pytest.raises(ValueError):
            alpha_table(5, 6, 1, range(2, 4))


class TestFitQuasiPolynomial:
    def fermat_x_samples(self, hi):
        inst = ReesInstanceDim1(5, 2, "rees-of-x")
        return {e: rees_colength_dim1(inst, [e])[e] for e in range(2, hi + 1)}

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            fit_quasi_polynomial({1: 10, 2: 10}, p=4, degree=0, period=1)

    def test_keys_out_of_order(self):
        # the fit reads the samples in increasing e, whatever the key order
        values = self.fermat_x_samples(9)
        newest_first = dict(reversed(values.items()))
        qp = fit_quasi_polynomial(newest_first, 2, degree=2, period=2, holdout=1)
        assert qp == fit_quasi_polynomial(values, 2, degree=2, period=2, holdout=1)
        assert qp.polys == (Poly([0, -4, 5]), Poly([0, -6, 5]))
        assert qp.valid_from_e == 2

    def test_recovers_period_two_quadratics(self):
        qp = fit_quasi_polynomial(self.fermat_x_samples(9), 2, degree=2, period=2, holdout=1)
        assert qp.polys[0] == Poly([0, -4, 5])
        assert qp.polys[1] == Poly([0, -6, 5])
        assert qp.valid_from_e == 2

    def test_constant_fit(self):
        qp = fit_quasi_polynomial({e: 7 for e in range(1, 5)}, 3, degree=0, period=1, holdout=1)
        assert qp.polys[0] == Poly([7])

    def test_non_quasi_polynomial_rejected(self):
        with pytest.raises(InconsistentSamples):
            fit_quasi_polynomial({e: e for e in range(1, 7)}, 2, degree=0, period=1, holdout=1)

    def test_corrupted_sample_rejected(self):
        inst = ReesInstanceDim1(5, 2, "rees-of-x")
        values = {e: rees_colength_dim1(inst, [e])[e] for e in range(2, 10)}
        values[9] += 1
        with pytest.raises(InconsistentSamples):
            fit_quasi_polynomial(values, 2, degree=2, period=2, holdout=1)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            fit_quasi_polynomial(self.fermat_x_samples(6), 2, degree=2, period=2, holdout=1)

    def test_threshold_skips_pre_periodic_values(self):
        # doctor the oldest sample; the fit should survive on the rest
        # and report the threshold just past the bad point
        values = {e: 5 * 4**e if e % 2 == 0 else 5 * 4**e - 10 for e in range(1, 10)}
        values[1] -= 3
        qp = fit_quasi_polynomial(values, 2, degree=2, period=2, holdout=1)
        assert qp.valid_from_e == 2

    def test_rejects_negative_e(self):
        # p**e would be a float, and the fit inexact
        with pytest.raises(ValueError, match="nonnegative"):
            fit_quasi_polynomial({-2: 0, -1: 1, 0: 2}, 3, 1, 1, holdout=0)
        with pytest.raises(ValueError, match="nonnegative"):
            fit_quasi_polynomial({-1: 5, 0: 5, 1: 5}, 2, 0, 1, holdout=1)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            fit_quasi_polynomial(self.fermat_x_samples(8), 2, degree=-1, period=2)
        with pytest.raises(ValueError):
            fit_quasi_polynomial(self.fermat_x_samples(8), 2, degree=2, period=0)


@st.composite
def planted_samples(draw):
    """Exact samples of a random quasi-polynomial in q, wrong below a planted e.

    Period 1-3, degree 0-2, integer coefficients with a nonzero leading
    one in every residue class.  Every e below the truncation point t is
    perturbed; from t on, each class has exactly the samples the fit
    and its holdout need, plus up to one more.
    """
    p = draw(st.sampled_from([2, 3, 5]))
    period, degree, holdout = draw(st.integers(1, 3)), draw(st.integers(0, 2)), draw(st.integers(1, 2))
    coeffs = st.integers(-20, 20)
    lead = coeffs.filter(bool)
    polys = tuple(
        Poly([*draw(st.lists(coeffs, min_size=degree, max_size=degree)), draw(lead)])
        for _ in range(period)
    )
    t = draw(st.integers(1, 4))
    last = t - 1 + period * (degree + 1 + holdout) + draw(st.integers(0, period))
    values = {e: int(polys[e % period](p**e)) for e in range(1, last + 1)}
    for e in range(1, t):
        values[e] += draw(lead)
    return values, p, polys, degree, holdout, t


class TestFitRoundTrip:
    """fit_quasi_polynomial recovers random quasi-polynomials and their truncation point."""

    @settings(max_examples=150)
    @given(planted_samples())
    def test_recovers_polynomials_and_threshold(self, case):
        values, p, polys, degree, holdout, t = case
        qp = fit_quasi_polynomial(values, p, degree, len(polys), holdout)
        assert qp.polys == polys
        assert qp.valid_from_e == t

    @settings(max_examples=100)
    @given(planted_samples(), st.data())
    def test_perturbed_holdout_raises(self, case, data):
        values, p, polys, degree, holdout, _ = case
        period = len(polys)
        c = data.draw(st.integers(0, period - 1))
        es = [e for e in sorted(values) if e % period == c]
        # the holdout of class c: the samples just before its newest degree + 1
        e = data.draw(st.sampled_from(es[-(degree + 1 + holdout) : -(degree + 1)]))
        values = dict(values)
        values[e] += data.draw(st.integers(-20, 20).filter(bool))
        with pytest.raises(InconsistentSamples):
            fit_quasi_polynomial(values, p, degree, period, holdout)


class TestEstimateEhk:
    def test_formula_sweep(self):
        from fractions import Fraction

        values = {s: cm_sop_hk(3, 1, s) for s in range(3, 9)}
        assert estimate_ehk(values, 3) == Fraction(13, 8)

    def test_formula_sweep_scaled(self):
        values = {s: cm_sop_hk(2, 3, s) for s in range(2, 8)}
        assert estimate_ehk(values, 2) == 4

    def test_oracle_sweep(self):
        from fractions import Fraction

        inst = ReesInstanceMonomial((1, 1))
        values = {s: rees_colength_monomial(inst, [s])[s] for s in range(2, 8)}
        assert estimate_ehk(values, 2) == Fraction(4, 3)

    def test_ignores_values_below_d(self):
        from fractions import Fraction

        values = {s: cm_sop_hk(3, 1, s) for s in range(1, 9)}
        assert estimate_ehk(values, 3) == Fraction(13, 8)

    def test_insufficient(self):
        values = {s: cm_sop_hk(2, 1, s) for s in range(2, 5)}
        with pytest.raises(InsufficientSamples):
            estimate_ehk(values, 2)

    def test_gap_rejected(self):
        values = {s: cm_sop_hk(2, 1, s) for s in (2, 3, 4, 6, 7, 8)}
        with pytest.raises(InsufficientSamples):
            estimate_ehk(values, 2)

    def test_non_polynomial_rejected(self):
        values = {s: cm_sop_hk(2, 1, s) for s in range(2, 9)}
        values[2] += 1
        with pytest.raises(InconsistentSamples):
            estimate_ehk(values, 2)
