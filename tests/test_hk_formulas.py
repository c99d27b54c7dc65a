"""Closed-form evaluators: worked example, synthetic cases, branch laws."""
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reeshk.hk_formulas import (
    Dim1Input,
    QuasiPolynomialHK,
    cm_sop_hk,
    compare_to_eto_yoshida,
    cordim1_hk,
    dim1_hk,
    ehk_cm_sop,
    sop_dim1_hk,
    stanley_reisner_ehk,
)
from reeshk.polynomials import Poly
from reeshk.rees_oracle import parameter_ideal, rees_colength_monomial

from reference import cm_sop_hk_polynomial, dim1_case_one_constant


def fermat_input(rho=None):
    return Dim1Input(
        e0=5,
        e1=10,
        r=4,
        rho=rho,
        lengths=(0, 1, 3, 6),
        alpha=((-4, -6), (-3, -5), (-2, -3), (-1, -1)),
    )


@st.composite
def case_one_inputs(draw):
    """Valid invariants with rho <= r - 1, rho < r - 1 included."""
    r = draw(st.integers(0, 6))
    steps = draw(st.lists(st.integers(0, 5), min_size=max(r - 1, 0), max_size=max(r - 1, 0)))
    return Dim1Input(
        e0=draw(st.integers(1, 9)),
        e1=draw(st.integers(-9, 9)),
        r=r,
        rho=draw(st.integers(-3, r - 1)),
        lengths=tuple(accumulate([0, *steps])) if r else (),
        alpha=tuple(
            tuple(draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3))) for _ in range(r)
        ),
    )


def direct_proof_sum(inp: Dim1Input, p: int, e: int) -> int:
    """Sum the graded decomposition termwise, before any closed form.

        2 sum_{n<r} (e0 q + alpha_n(e)) + sum_{n=r}^{q-1} H(n+q)
          + sum_{n<r} H(n) - sum_{n=r}^{q+r-1} H(n)

    where H(n) comes from the stored length table for small n and from
    the Hilbert-Samuel polynomial e0 n - e1 past the postulation number.
    """
    q = p**e
    rho = inp.rho if inp.rho is not None else inp.r - 1

    def H(n: int) -> int:
        if n <= 0:
            return 0
        if n <= rho:
            return inp.lengths[n]
        return inp.e0 * n - inp.e1

    total = 2 * sum(inp.e0 * q + seq[e % len(seq)] for seq in inp.alpha)
    total += sum(H(n + q) for n in range(inp.r, q))
    total += sum(H(n) for n in range(inp.r))
    total -= sum(H(n) for n in range(inp.r, q + inp.r))
    return total


class TestDim1:
    def test_fermat_quintic(self):
        qp = dim1_hk(fermat_input(rho=3))
        assert qp.period == 2
        assert qp.polys[0] == Poly([0, 0, 5])  # 5 q^2 for even e
        assert qp.polys[1] == Poly([-10, 0, 5])  # 5 q^2 - 10 for odd e
        assert [qp.poly_for(e)(2**e) for e in range(3, 7)] == [310, 1280, 5110, 20480]

    def test_fermat_constant_assembly(self):
        # the case-one constant is 20 before the periodic corrections:
        # 5 q^2 + 20 + 2 sum alpha_n(e)
        inp = fermat_input(rho=3)
        qp = dim1_hk(inp)
        for residue in (0, 1):
            alpha_sum = sum(seq[residue % len(seq)] for seq in inp.alpha)
            assert qp.polys[residue].coefficient(0) == 20 + 2 * alpha_sum

    def test_r_zero_gives_pure_square(self):
        inp = Dim1Input(e0=7, e1=0, r=0, rho=-1, lengths=(), alpha=())
        qp = dim1_hk(inp)
        assert qp.period == 1
        assert qp.polys[0] == Poly([0, 0, 7])

    def test_case_one_matches_direct_sum(self):
        inp = fermat_input(rho=3)
        qp = dim1_hk(inp)
        for e in range(2, 9):
            assert qp.poly_for(e)(2**e) == direct_proof_sum(inp, 2, e)

    def test_case_two_matches_direct_sum(self):
        # r < rho + 1: synthetic invariants, checked against the
        # termwise sum for several q
        inp = Dim1Input(
            e0=5,
            e1=3,
            r=1,
            rho=2,
            lengths=(0, 1, 4),
            alpha=((0, -2, 1),),
        )
        qp = dim1_hk(inp)
        assert qp.period == 3
        for e in range(1, 10):
            assert qp.poly_for(e)(2**e) == direct_proof_sum(inp, 2, e)

    @given(case_one_inputs())
    @example(fermat_input(rho=1))
    def test_case_one_constant(self, inp):
        # the paper's own case-one display, which dim1_hk does not evaluate
        for residue, poly in enumerate(dim1_hk(inp).polys):
            alpha_sum = sum(seq[residue % len(seq)] for seq in inp.alpha)
            assert poly.coefficient(0) == dim1_case_one_constant(inp) + 2 * alpha_sum

    def test_degree_and_leading_coefficient(self):
        for inp in (fermat_input(rho=3), Dim1Input(2, 1, 1, 0, (0,), ((5,),))):
            qp = dim1_hk(inp)
            for poly in qp.polys:
                assert poly.degree == 2
                assert poly.coefficient(2) == inp.e0

    def test_period_is_lcm(self):
        inp = Dim1Input(
            e0=2,
            e1=0,
            r=2,
            rho=1,
            lengths=(0, 1),
            alpha=((1, 2), (0, 0, 1)),
        )
        assert dim1_hk(inp).period == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            Dim1Input(0, 0, 0, None, (), ())  # e0
        with pytest.raises(ValueError):
            Dim1Input(1, 0, -1, None, (), ())  # r
        with pytest.raises(ValueError):
            Dim1Input(1, 0, 1, None, (), ())  # missing alpha
        with pytest.raises(ValueError):
            Dim1Input(1, 0, 1, None, (), ((0,),))  # missing lengths
        with pytest.raises(ValueError):
            Dim1Input(1, 0, 1, None, (1,), ((0,),))  # lengths[0]
        with pytest.raises(ValueError):
            Dim1Input(1, 0, 3, None, (0, 2, 1), ((0,),) * 3)
        with pytest.raises(ValueError):
            dim1_hk(fermat_input(rho=None))  # rho required here


class TestCorDim1:
    def test_fermat_delegation(self):
        assert cordim1_hk(fermat_input()) == dim1_hk(fermat_input(rho=3))

    def test_r_zero(self):
        inp = Dim1Input(e0=4, e1=0, r=0, rho=None, lengths=(), alpha=())
        assert cordim1_hk(inp).polys[0] == Poly([0, 0, 4])

    def test_r_one_constant_alpha(self):
        inp = Dim1Input(e0=3, e1=2, r=1, rho=None, lengths=(0,), alpha=((6,),))
        # e0 q^2 + e1 + 2a, since C(1, 2) = 0
        assert cordim1_hk(inp).polys[0] == Poly([2 + 12, 0, 3])

    def test_explicit_rho_rejected(self):
        with pytest.raises(ValueError):
            cordim1_hk(fermat_input(rho=3))


class TestSopDim1:
    def test_fermat_parameter_rees(self):
        qp = sop_dim1_hk(5, (-4, -6))
        assert qp.polys[0] == Poly([0, -4, 5])
        assert qp.polys[1] == Poly([0, -6, 5])

    def test_zero_alpha(self):
        qp = sop_dim1_hk(9, (0,))
        assert qp.polys[0] == Poly([0, 0, 9])

    @pytest.mark.parametrize(
        "a, p, alpha",
        [(3, 2, (-2,)), (7, 2, (-6, -10, -12))],
        ids=["a3", "a7"],
    )
    def test_cubic_hypersurface_alpha_from_oracle(self, a, p, alpha):
        # alpha for k[[X,Y]]/(X^a-Y^a), indexed by e mod its period: constantly
        # -2 for a = 3, period 3 for a = 7 (from the plane quotient lengths);
        # the prediction then matches the 3-variable Groebner count
        from reeshk.binomial_groebner import quotient_colength
        from reeshk.monomial_algebra import minimalize
        from reeshk.rees_oracle import alpha_table

        table = alpha_table(a, 0, [p**e for e in range(1, 10)])
        assert table[0] == {p**e: alpha[e % len(alpha)] for e in range(1, 10)}
        qp = sop_dim1_hk(a, alpha)
        for e in range(2, 6):
            q = p**e
            oracle = quotient_colength(a, minimalize([(q, 0, 0), (0, q, 0), (0, 0, q)]))
            assert qp.poly_for(e)(q) == oracle


class TestCmSop:
    def test_worked_values(self):
        assert cm_sop_hk(3, 1, 2) == 23
        assert cm_sop_hk(2, 1, 3) == 35
        assert cm_sop_hk(2, 5, 1) == 5

    def test_d2_closed_form(self):
        for s in range(2, 7):
            assert 3 * cm_sop_hk(2, 1, s) == 4 * s**3 - s

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            cm_sop_hk(1, 1, 2)

    def test_linear_in_e0(self):
        for d in (2, 3, 4, 5):
            for s in range(1, 8):
                unit = cm_sop_hk(d, 1, s)
                for e0 in (2, 3, 7):
                    assert cm_sop_hk(d, e0, s) == e0 * unit

    def test_polynomial_matches_branch(self):
        for d in range(2, 9):
            poly = cm_sop_hk_polynomial(d, 2)
            for s in range(d, 41):
                assert poly(s) == cm_sop_hk(d, 2, s)

    def test_polynomial_d3(self):
        assert cm_sop_hk_polynomial(3, 1) == Poly(
            [0, Fraction(-1, 4), Fraction(-1, 8), Fraction(-1, 4), Fraction(13, 8)]
        )

    def test_polynomial_d2(self):
        assert cm_sop_hk_polynomial(2, 1) == Poly([0, Fraction(-1, 3), 0, Fraction(4, 3)])

    def test_leading_coefficient_is_multiplicity(self):
        for d in range(2, 9):
            for e0 in (1, 4):
                poly = cm_sop_hk_polynomial(d, e0)
                assert poly.coefficient(poly.degree) == ehk_cm_sop(d, e0)

    def test_branch_continuity_against_oracle(self):
        for d in (2, 3):
            ideal = parameter_ideal((1,) * d)
            for s in range(1, 6):
                assert cm_sop_hk(d, 1, s) == rees_colength_monomial(ideal, [s])[s], (d, s)

    def test_deep_quotient_branches_against_oracle(self):
        # exercises k1 >= 2 in both small-s displays
        for d, smax in ((4, 3), (5, 2)):
            ideal = parameter_ideal((1,) * d)
            for s in range(1, smax + 1):
                assert cm_sop_hk(d, 1, s) == rees_colength_monomial(ideal, [s])[s], (d, s)


class TestMultiplicities:
    def test_ehk_cm_sop(self):
        assert ehk_cm_sop(3, 4) == Fraction(13, 2)
        assert ehk_cm_sop(2, 3) == 4
        assert ehk_cm_sop(1, 5) == 5  # c(1) = 1, consistent with the dim-1 predictor

    def test_bound_and_verdicts(self):
        assert compare_to_eto_yoshida(Fraction(4), 2, 3) == "equal"
        assert compare_to_eto_yoshida(Fraction(7, 2), 2, 3) == "below"
        assert compare_to_eto_yoshida(Fraction(9, 2), 2, 3) == "violation"

    def test_stanley_reisner(self):
        assert stanley_reisner_ehk(2, 3) == 4
        assert stanley_reisner_ehk(3, 1) == Fraction(13, 8)
        assert stanley_reisner_ehk(3, 8) == 13

    def test_leading_coefficient_fit_matches_dim1_predictor(self):
        # leading coefficient of the rees-of-x samples equals e0(m) = a
        from reeshk.rees_oracle import fit_quasi_polynomial, rees_colength_dim1

        lengths = rees_colength_dim1(5, "rees-of-x", [2**e for e in range(2, 8)])
        values = {e: lengths[2**e] for e in range(2, 8)}
        qp = fit_quasi_polynomial(values, 2, 2, 2, holdout=0)
        for poly in qp.polys:
            assert poly.coefficient(2) == 5


class TestQuasiPolynomialType:
    def test_mixed_degree_rejected(self):
        with pytest.raises(ValueError):
            QuasiPolynomialHK((Poly([0, 0, 1]), Poly([0, 1])))

    def test_periodic_sequence(self):
        # alpha is one period of values, read at e mod its length; it needs a value
        qp = sop_dim1_hk(1, (4, 7, 9))
        assert qp.period == 3
        assert [qp.poly_for(e).coefficient(1) for e in range(5)] == [4, 7, 9, 4, 7]
        with pytest.raises(ValueError, match="period of at least 1"):
            sop_dim1_hk(1, ())
        with pytest.raises(ValueError, match="period of at least 1"):
            Dim1Input(1, 0, 1, None, (0,), ((),))
        with pytest.raises(ValueError, match="period of at least 1"):
            Dim1Input(2, 0, 2, None, (0, 1), ((1, 2), ()))
