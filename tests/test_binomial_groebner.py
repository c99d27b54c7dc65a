"""Specialized Buchberger completion: worked bases, completeness, confluence."""
import random

import pytest

from reeshk.binomial_groebner import (
    BinomialRelation,
    _reduce,
    buchberger,
    ideals_equal,
    initial_ideal,
    plane_heights,
    quotient_colength,
)
from reeshk.monomial_algebra import MonomialIdeal, minimalize, parse_ideal

from reference import (
    basis_initial_ideal,
    contains_monomial,
    normal_form,
    power,
    spairs_reduce_to_zero,
    staircase_heights,
)


def exps(gb):
    return sorted(gb.monomials)


REL5 = BinomialRelation(3, 5)
REL_PLANE = BinomialRelation(2, 5)


class TestRelation:
    def test_validation(self):
        with pytest.raises(ValueError, match="exponent"):
            BinomialRelation(3, 1)  # exponent too small
        with pytest.raises(ValueError, match="two variables"):
            BinomialRelation(1, 5)  # no second variable for X_1

    def test_lead(self):
        assert REL5.lead_exponents() == (5, 0, 0)


class TestBuchberger:
    def test_q8_chain(self):
        gb = buchberger(REL5, [(8, 0, 0), (0, 8, 0), (0, 0, 8)])
        assert exps(gb) == [(0, 0, 8), (0, 8, 0), (3, 5, 0), (8, 0, 0)]
        assert basis_initial_ideal(gb).gens == (
            (0, 0, 8),
            (0, 8, 0),
            (3, 5, 0),
            (5, 0, 0),
        )

    def test_binomial_lead_already_absorbed(self):
        rel = BinomialRelation(2, 2)
        gb = buchberger(rel, [(2, 0), (0, 2)])
        assert exps(gb) == [(0, 2), (2, 0)]
        assert basis_initial_ideal(gb).gens == ((0, 2), (2, 0))

    def test_small_q_extrapolation(self):
        # q < a is outside the regime of the worked chain; the same
        # completion loop covers it
        gb = buchberger(REL5, [(4, 0, 0), (0, 4, 0), (0, 0, 4)])
        assert exps(gb) == [(0, 0, 4), (0, 4, 0), (4, 0, 0)]
        assert basis_initial_ideal(gb).gens == ((0, 0, 4), (0, 4, 0), (4, 0, 0))

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            buchberger(REL5, [])

    def test_power_generator_chain_shape(self):
        # for gens (X^q, Y^q, Z^q) with q > a = 5 the initial ideal is
        # (X^5, Y^q, Z^q) plus the one chain element X^(q-5i) Y^(5i)
        # with 0 < q-5i < 5
        for q in (8, 16, 32):
            expected = [(5, 0, 0), (0, q, 0), (0, 0, q)]
            expected += [
                (q - 5 * i, 5 * i, 0)
                for i in range(1, q // 5 + 1)
                if 0 < q - 5 * i < 5
            ]
            gb = buchberger(REL5, [(q, 0, 0), (0, q, 0), (0, 0, q)])
            assert basis_initial_ideal(gb) == minimalize(expected)


class TestCompleteness:
    @pytest.mark.parametrize(
        "rel,gens",
        [
            (REL5, [(8, 0, 0), (0, 8, 0), (0, 0, 8)]),
            (REL5, [(4, 0, 0), (0, 4, 0), (0, 0, 4)]),
            (REL5, [(32, 0, 0), (0, 32, 0), (0, 0, 32)]),
            (BinomialRelation(2, 5), [(9, 2), (2, 9), (0, 14), (14, 0)]),
            (BinomialRelation(2, 3), [(7, 0), (0, 7)]),
        ],
    )
    def test_every_spair_reduces_to_zero(self, rel, gens):
        gb = buchberger(rel, gens)
        assert spairs_reduce_to_zero(gb)

    def test_random_generators(self):
        rng = random.Random(7)
        for _ in range(20):
            dim = rng.choice([2, 3])
            a = rng.randint(2, 6)
            rel = BinomialRelation(dim, a)
            gens = [
                tuple(rng.randint(0, 9) for _ in range(dim))
                for _ in range(rng.randint(1, 5))
            ]
            if all(all(e == 0 for e in g) for g in gens):
                continue
            gb = buchberger(rel, gens)
            assert spairs_reduce_to_zero(gb)

    def test_characteristic_independence(self):
        # every reduction step rewrites one monomial into one monomial;
        # no coefficient field enters, so the basis is a function of
        # (a, gens) alone and reruns are bit-identical
        gens = [(16, 0, 0), (0, 16, 0), (0, 0, 16)]
        assert buchberger(REL5, gens) == buchberger(REL5, gens)


class TestNormalForm:
    def test_confluence_both_strategies(self):
        # the package reduces monomial-first, the reference binomial-first
        rng = random.Random(11)
        bases = [
            buchberger(REL5, [(16, 0, 0), (0, 16, 0), (0, 0, 16)]),
            buchberger(BinomialRelation(2, 5), [(9, 2), (2, 9)]),
            buchberger(BinomialRelation(2, 3), [(10, 0), (0, 10)]),
        ]
        for gb in bases:
            dim = gb.relation.ambient_dim
            for _ in range(100):
                mono = tuple(rng.randint(0, 20) for _ in range(dim))
                assert _reduce(mono, gb.relation, gb.monomials) == normal_form(gb, mono)

    def test_membership(self):
        gb = buchberger(REL5, [(8, 0, 0), (0, 8, 0), (0, 0, 8)])
        assert contains_monomial(gb, (3, 5, 0))
        assert contains_monomial(gb, (8, 2, 1))
        assert contains_monomial(gb, (6, 3, 0))  # X^6 Y^3 -> X Y^8 -> 0
        # X^5 is only the lead of the binomial, not a member of the ideal
        assert not contains_monomial(gb, (5, 0, 0))
        assert not contains_monomial(gb, (4, 4, 4))


class TestQuotientColength:
    def test_worked_values(self):
        assert quotient_colength(REL5, minimalize([(8, 0, 0), (0, 8, 0), (0, 0, 8)])) == 272
        assert quotient_colength(REL5, minimalize([(4, 0, 0), (0, 4, 0), (0, 0, 4)])) == 64
        rel = BinomialRelation(2, 2)
        assert quotient_colength(rel, minimalize([(1, 0), (0, 1)])) == 1

    def test_power_series_parity(self):
        # 5q^2 - 4q when q is 1 or 4 mod 5; 5q^2 - 6q when q is 2 or 3
        for q in (4, 8, 16, 32, 64):
            value = quotient_colength(REL5, minimalize([(q, 0, 0), (0, q, 0), (0, 0, q)]))
            if q % 5 in (1, 4):
                assert value == 5 * q * q - 4 * q
            else:
                assert value == 5 * q * q - 6 * q

    def test_infinite_quotient_propagates(self):
        from reeshk.monomial_algebra import InfiniteColength

        with pytest.raises(InfiniteColength):
            quotient_colength(REL5, minimalize([(8, 0, 0), (0, 8, 0)]))  # no pure power of Z


class TestIdealsEqual:
    def test_tail_stabilization_example(self):
        # in k[[X,Y]]/(X^5-Y^5): m^[4] m^3 = m^7 but m^[4] m^2 != m^6
        rel = BinomialRelation(2, 5)
        m = minimalize([(1, 0), (0, 1)])
        mq = m.frobenius(4)
        assert ideals_equal(rel, mq.product(power(m, 3)), power(m, 7))
        assert not ideals_equal(rel, mq.product(power(m, 2)), power(m, 6))

    def test_reflexive(self):
        rel = BinomialRelation(2, 3)
        assert ideals_equal(rel, minimalize([(4, 0), (0, 4)]), minimalize([(4, 0), (0, 4)]))

    def test_binomial_makes_unequal_monomial_ideals_equal(self):
        # modulo X^3 - Y^3, (X^3, Y^5) and (Y^3, Y^5) generate the same ideal
        rel = BinomialRelation(2, 3)
        assert ideals_equal(rel, minimalize([(3, 0), (0, 5)]), minimalize([(0, 3)]))


class TestPlaneHeights:
    @pytest.mark.parametrize(
        "a,pairs,heights",
        [
            # m^[8] modulo X^5 - Y^5: X^8 = X^3 Y^5
            (5, [(8, 0), (0, 8)], (8, 8, 8, 5, 5)),
            # m^4 modulo X^3 - Y^3: X^4 = X Y^3 and X^3 Y = Y^4
            (3, [(4, 0), (3, 1), (2, 2), (1, 3), (0, 4)], (4, 3, 2)),
            # the unit ideal, and a single X power whose wrap is the only Y power
            (4, [(0, 0)], (0, 0, 0, 0)),
            (4, [(7, 0)], (8, 8, 8, 4)),
            # raw pairs: repeated and divisible ones change nothing
            (5, [(8, 0), (9, 1), (0, 8), (8, 0), (0, 9)], (8, 8, 8, 5, 5)),
        ],
    )
    def test_worked_values(self, a, pairs, heights):
        assert plane_heights(a, pairs) == heights
        initial = basis_initial_ideal(buchberger(BinomialRelation(2, a), pairs))
        assert staircase_heights(initial, a) == heights
        assert sum(heights) == quotient_colength(BinomialRelation(2, a), minimalize(pairs))


class TestBoundaryValidation:
    """Exponent tuples are checked once, where they enter the package.

    minimalize, parse_ideal and buchberger take raw tuples and check
    them.  initial_ideal, quotient_colength and ideals_equal take the
    MonomialIdeal those build, so raw tuples reach them only through
    minimalize and a bad tuple is refused there; they check only that
    the ideal has the relation's number of variables.  No entry point
    takes an empty generator set: every ideal is nonzero.
    """

    BAD_GENERATORS = {
        "empty": [],
        "wrong_length": [(8, 0), (0, 8, 0), (0, 0, 8)],
        "all_wrong_length": [(8, 0), (0, 8)],
        "mixed_length": [(8, 0, 0, 0), (0, 8, 0), (0, 0, 8)],
        "negative": [(8, 0, 0), (0, 8, 0), (0, 0, -1)],
        "bool": [(True, 0, 0), (0, 8, 0), (0, 0, 8)],
        "float": [(2.0, 0, 0), (0, 8, 0), (0, 0, 8)],
        "str": [("8", 0, 0), (0, 8, 0), (0, 0, 8)],
        "none": [(None, 0, 0), (0, 8, 0), (0, 0, 8)],
    }
    # the same cases in two variables
    PLANE_BAD_GENERATORS = {
        "empty": [],
        "wrong_length": [(8,), (0, 8)],
        "mixed_length": [(8, 0, 0), (0, 8)],
        "negative": [(8, 0), (0, -1)],
        "bool": [(True, 0), (0, 8)],
        "float": [(2.0, 0), (0, 8)],
        "str": [("8", 0), (0, 8)],
        "none": [(None, 0), (0, 8)],
    }
    GOOD = [(8, 0, 0), (0, 8, 0), (0, 0, 8)]
    # the entry points besides quotient_colength and ideals_equal, which
    # have their own tests below; the Groebner ones hold the relation in
    # 3 variables, while the monomial ideal constructors take the number
    # of variables from the tuples
    ENTRY_POINTS = {
        # repr, so that the string "8" stays a quoted, unparsable exponent
        "parse_ideal": lambda gens: parse_ideal(";".join(",".join(map(repr, g)) for g in gens)),
        "minimalize": minimalize,
        "initial_ideal": lambda gens: initial_ideal(REL5, minimalize(gens)),
        "buchberger": lambda gens: buchberger(REL5, gens),
    }

    @pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_point_validates(self, entry, case):
        call = self.ENTRY_POINTS[entry]
        if case == "all_wrong_length" and entry in {"parse_ideal", "minimalize"}:
            # two exponents each: an ideal in two variables, wrong only for REL5
            assert call(self.BAD_GENERATORS[case]).ambient_dim == 2
            return
        with pytest.raises(ValueError):
            call(self.BAD_GENERATORS[case])

    @pytest.mark.parametrize("gens", [[], [()]], ids=["no_generator", "no_variable"])
    @pytest.mark.parametrize(
        "entry", ["parse_ideal", "minimalize", "MonomialIdeal", "buchberger"]
    )
    def test_every_ideal_has_a_generator_and_a_variable(self, entry, gens):
        call = {**self.ENTRY_POINTS, "MonomialIdeal": lambda g: MonomialIdeal(tuple(g))}[entry]
        with pytest.raises(ValueError):
            call(gens)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_point_accepts_good(self, entry):
        self.ENTRY_POINTS[entry](self.GOOD)

    @pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
    def test_quotient_colength_rejects(self, case):
        with pytest.raises(ValueError):
            quotient_colength(REL5, minimalize(self.BAD_GENERATORS[case]))

    @pytest.mark.parametrize("case", sorted(BAD_GENERATORS))
    def test_ideals_equal_rejects_either_side(self, case):
        good = minimalize(self.GOOD)
        with pytest.raises(ValueError):
            ideals_equal(REL5, minimalize(self.BAD_GENERATORS[case]), good)
        with pytest.raises(ValueError):
            ideals_equal(REL5, good, minimalize(self.BAD_GENERATORS[case]))

    @pytest.mark.parametrize("case", sorted(PLANE_BAD_GENERATORS))
    def test_plane_entry_points_reject(self, case):
        gens = self.PLANE_BAD_GENERATORS[case]
        good = minimalize([(8, 0), (0, 8)])
        for call in (
            lambda: quotient_colength(REL_PLANE, minimalize(gens)),
            lambda: initial_ideal(REL_PLANE, minimalize(gens)),
            lambda: ideals_equal(REL_PLANE, minimalize(gens), good),
            lambda: ideals_equal(REL_PLANE, good, minimalize(gens)),
        ):
            with pytest.raises(ValueError):
                call()

    @pytest.mark.parametrize(
        "case,message",
        [("fewer_variables", "variables"), ("more_variables", "variables")],
    )
    @pytest.mark.parametrize("rel", [REL_PLANE, REL5], ids=["plane", "space"])
    def test_groebner_entry_points_check_the_ideal(self, rel, case, message):
        d = rel.ambient_dim
        bad = {
            "fewer_variables": MonomialIdeal.unit(d - 1),
            "more_variables": MonomialIdeal.unit(d + 1),
        }[case]
        good = MonomialIdeal.unit(d)
        for call in (
            lambda: initial_ideal(rel, bad),
            lambda: quotient_colength(rel, bad),
            lambda: ideals_equal(rel, bad, good),
            lambda: ideals_equal(rel, good, bad),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize(
        "gens,box",
        [
            # X^2 X^3 = X^5 = Y^5, so Y^5 is in the ideal: a box narrower than a
            ([(3, 0), (0, 9)], (3, 5)),
            # no pure X power below X^5: the box is (a, h[0])
            ([(8, 0), (0, 8)], (5, 8)),
        ],
    )
    def test_plane_colength_matches_the_buchberger_box(self, gens, box):
        initial = basis_initial_ideal(buchberger(REL_PLANE, gens))
        assert initial.primary_box() == box
        assert quotient_colength(REL_PLANE, minimalize(gens)) == initial.colength()

    def test_colength_matches_the_buchberger_box(self):
        box = basis_initial_ideal(buchberger(REL5, self.GOOD)).primary_box()
        assert box == (5, 8, 8)
        assert quotient_colength(REL5, minimalize(self.GOOD)) == 272
