"""Property-based differential tests of the fast paths against their references.

The residue-class initial ideal behind quotient_colength and
ideals_equal, and the staircase heights, products, bracket powers and
colengths of the plane hypersurface ring, are compared with the
initial ideal of an independent Buchberger completion;
MonomialIdeal.product and frobenius with minimalize over the summed or
scaled exponent tuples; the bitset and two-column running-minimum
minimalisation with a pairwise scan; the primary box with one built
from each generator's support; the staircase walk with
inclusion-exclusion; the graded-sum monomial oracle with the closed
form cm_sop_hk on all three of its branches, and with itself at unit
exponents scaled by e0; and parse_ideal with format_ideal.
"""
from operator import add
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reeshk import monomial_algebra
from reeshk.binomial_groebner import (
    buchberger,
    ideals_equal,
    initial_ideal,
    plane_heights,
    quotient_colength,
)
from reeshk.hk_formulas import cm_sop_hk
from reeshk.monomial_algebra import (
    InfiniteColength,
    MonomialIdeal,
    _minimal_vectors,
    format_ideal,
    minimalize,
    parse_ideal,
)
from reeshk.rees_oracle import ReesInstanceMonomial, _plane_ring, rees_colength_monomial

from reference import (
    basis_initial_ideal,
    colength_by_inclusion_exclusion,
    contains_monomial,
    minimal_vectors_reference,
    power,
    primary_box_reference,
    staircase_heights,
)


@st.composite
def relations(draw):
    """(d, a): X_0^a - X_1^a in d = 2 to 4 variables, a <= 7 (a <= 9 in two)."""
    d = draw(st.integers(2, 4))
    return d, draw(st.integers(2, 9 if d == 2 else 7))


def generators(d, primary):
    """1 to 5 random monomials; if primary, also a pure power of every variable.

    In two variables 1 to 12 with exponents up to 40, so that the normal
    forms wrap through several residue classes.
    """
    top, size = (40, 12) if d == 2 else (9, 5)
    mono = st.tuples(*[st.integers(0, top)] * d)
    gens = st.lists(mono, min_size=1, max_size=size)
    if not primary:
        return gens
    powers = st.tuples(*[st.integers(1, 9)] * d).map(
        lambda tops: [tuple(t if j == i else 0 for j in range(d)) for i, t in enumerate(tops)]
    )
    return st.tuples(gens, powers).map(lambda pair: pair[0] + pair[1])


@st.composite
def instances(draw):
    """The exponent a of a relation and generators in its variables, primary or not."""
    d, a = draw(relations())
    return a, draw(generators(d, draw(st.booleans())))


PLANE_MAXIMAL = minimalize([(1, 0), (0, 1)])


def plane_power_product(a, q, n):
    """X^a - Y^a with the generators of m^[q] m^n, m = (X, Y): the rees-of-m inputs."""
    m = PLANE_MAXIMAL
    return a, m.frobenius(q).product(power(m, n)).gens


def reference_colength(a, gens):
    """Colength of the Buchberger initial ideal, or the exception it raised."""
    try:
        return basis_initial_ideal(buchberger(a, gens)).colength()
    except InfiniteColength as exc:
        return type(exc)


def residue_colength(a, gens):
    try:
        return quotient_colength(a, minimalize(gens))
    except InfiniteColength as exc:
        return type(exc)


class TestResidueInitialIdeal:
    @settings(max_examples=300)
    @given(instances())
    def test_matches_buchberger(self, instance):
        a, gens = instance
        expected = basis_initial_ideal(buchberger(a, gens))
        assert initial_ideal(a, minimalize(gens)) == expected

    @settings(max_examples=150)
    @given(instances())
    # the rees-of-m inputs m^[q] m^n, and plane inputs whose only pure Y
    # power comes from a wrap
    @example(plane_power_product(5, 8, 3))
    @example(plane_power_product(7, 16, 9))
    @example(plane_power_product(9, 8, 12))
    @example((5, [(7, 3)]))
    @example((9, [(1, 40), (13, 2), (30, 0)]))
    def test_colength_matches_buchberger(self, instance):
        # non-primary inputs must raise InfiniteColength on both sides
        a, gens = instance
        assert residue_colength(a, gens) == reference_colength(a, gens)


def mutually_contained(a, gens_a, gens_b):
    """Equality by membership of each completed basis in the other's ideal."""
    gb_a, gb_b = buchberger(a, gens_a), buchberger(a, gens_b)
    return all(contains_monomial(gb_b, m) for m in gb_a.monomials) and all(
        contains_monomial(gb_a, m) for m in gb_b.monomials
    )


class TestIdealsEqual:
    @settings(max_examples=150)
    @given(st.data())
    def test_matches_mutual_membership(self, data):
        d, a = data.draw(relations())
        gens_a = data.draw(generators(d, data.draw(st.booleans())))
        gens_b = data.draw(generators(d, data.draw(st.booleans())))
        equal = ideals_equal(a, minimalize(gens_a), minimalize(gens_b))
        assert equal == mutually_contained(a, gens_a, gens_b)

    @settings(max_examples=100)
    @given(instances())
    def test_equal_to_its_completed_basis(self, instance):
        # a true case the random pairs above rarely hit
        a, gens = instance
        ideal = minimalize(gens)
        basis = minimalize(buchberger(a, gens).monomials)
        assert ideals_equal(a, ideal, basis)
        assert ideals_equal(a, basis, ideal)

    @pytest.mark.parametrize("a,q", [(5, 8), (7, 8), (3, 16), (9, 4)])
    def test_tail_equalities_match_mutual_membership(self, a, q):
        # m^[q] m^t = m^(q+t) turns true at some t: both answers occur
        m = PLANE_MAXIMAL
        answers = set()
        for t in range(2 * a):
            lhs = m.frobenius(q).product(power(m, t))
            rhs = power(m, q + t)
            answer = ideals_equal(a, lhs, rhs)
            assert answer == mutually_contained(a, lhs.gens, rhs.gens), t
            answers.add(answer)
        assert answers == {False, True}


@st.composite
def plane_pairs(draw):
    """The exponent a <= 9 of X^a - Y^a, and two lists of plane generators, primary or not."""
    a = draw(st.integers(2, 9))
    gens_j = draw(generators(2, draw(st.booleans())))
    return a, gens_j, draw(generators(2, draw(st.booleans())))


class TestPlaneRing:
    """The height ring of k[X, Y]/(X^a - Y^a) against the independent completion."""

    @settings(max_examples=200)
    @given(plane_pairs(), st.integers(1, 9))
    @example((5, [(7, 3)], [(0, 40)]), 8)
    @example((9, [(1, 40), (13, 2), (30, 0)], [(40, 40)]), 1)
    def test_matches_buchberger(self, case, q):
        a, gens_j, gens_k = case
        ring = _plane_ring(a)

        def completed(gens):
            return staircase_heights(basis_initial_ideal(buchberger(a, gens)), a)

        j, k = plane_heights(a, gens_j), plane_heights(a, gens_k)
        assert j == completed(gens_j)
        sums = [tuple(map(add, x, y)) for x in gens_j for y in gens_k]
        assert ring.product(j, k) == completed(sums)
        assert ring.frobenius(j, q) == completed([(q * x, q * y) for x, y in gens_j])
        assert ring.colength(j) == quotient_colength(a, minimalize(gens_j))
        assert ring.colength(j) == reference_colength(a, gens_j)


def monomial_ideals(d):
    mono = st.tuples(*[st.integers(0, 6)] * d)
    return st.lists(mono, min_size=1, max_size=8).map(minimalize)


@st.composite
def ideal_pairs(draw):
    d = draw(st.integers(1, 4))
    return draw(monomial_ideals(d)), draw(monomial_ideals(d))


class TestProduct:
    @settings(max_examples=200)
    @given(ideal_pairs())
    def test_matches_minimalized_monomial_products(self, pair):
        a, b = pair
        sums = [tuple(p + q for p, q in zip(x, y)) for x in a.gens for y in b.gens]
        assert a.product(b) == minimalize(sums)


class TestFrobenius:
    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(monomial_ideals), st.integers(1, 5))
    def test_matches_minimalized_scaled_generators(self, ideal, s):
        # frobenius skips minimalize: scaling keeps the generators minimal and sorted
        scaled = [tuple(s * e for e in g) for g in ideal.gens]
        assert ideal.frobenius(s) == minimalize(scaled)


class TestIdealText:
    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(monomial_ideals))
    @example(MonomialIdeal.unit(1))
    def test_parse_inverts_format(self, ideal):
        assert parse_ideal(format_ideal(ideal)) == ideal


def long_vector_lists(d):
    """65 to 130 tuples on or just above the plane x_1 + ... + x_d = 80.

    No two points of the plane divide one another, so many survive; a
    point above it is divisible by the plane points within its offset.
    """
    top = 80 // (d - 1)
    plane = st.tuples(*[st.integers(0, top)] * (d - 1)).map(lambda t: (*t, 80 - sum(t)))
    above = st.tuples(plane, st.tuples(*[st.integers(0, 3)] * d)).map(
        lambda pair: tuple(map(sum, zip(*pair)))
    )
    return st.lists(st.one_of(plane, above), min_size=65, max_size=130)


class TestMinimalVectors:
    @settings(max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(st.tuples(*[st.integers(0, 4)] * d))))
    @example([])
    @example([(3, 1)])
    @example([(0, 0, 0)])
    @example([(2, 1), (0, 0), (2, 1), (1, 3)])
    @example([(1, 2), (2, 1), (1, 2)])
    def test_matches_reference(self, vectors):
        # a small range makes duplicates, the zero vector and ties common
        assert _minimal_vectors(vectors) == minimal_vectors_reference(vectors)

    @settings(max_examples=15)
    @given(st.integers(2, 4).flatmap(long_vector_lists))
    def test_masks_past_one_machine_word(self, vectors):
        # more than 64 vectors, so each mask spans several words
        assert _minimal_vectors(vectors) == minimal_vectors_reference(vectors)


@st.composite
def primary_generators(draw):
    """A dimension d <= 4 and generators with a pure power of every variable.

    A pure power of exponent 0 makes the unit ideal.  Extra pure powers
    need not be the smallest in their variable, and mixed generators may
    reach past the box the smallest pure powers span.
    """
    d = draw(st.integers(1, 4))
    tops = draw(st.tuples(*[st.integers(0, 6)] * d))
    gens = [tuple(t if j == i else 0 for j in range(d)) for i, t in enumerate(tops)]
    for i, t in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(1, 9)), max_size=2)):
        gens.append(tuple(t if j == i else 0 for j in range(d)))
    gens += draw(st.lists(st.tuples(*[st.integers(0, 9)] * d), max_size=5))
    return d, gens


def walked_colength(ideal):
    """ideal.colength(), checking every recursive call of the staircase walk.

    Each call gets its generators sorted, and the walk stops before a
    slice inside the ideal, so no recursive call sees the zero vector.
    """
    count_standard = monomial_algebra._count_standard

    def checked(gens, box):
        assert list(gens) == sorted(gens)
        if len(box) < ideal.ambient_dim:
            assert all(any(g) for g in gens)
        return count_standard(gens, box)

    with mock.patch.object(monomial_algebra, "_count_standard", checked):
        return ideal.colength()


class TestColength:
    @settings(max_examples=300)
    @given(primary_generators())
    @example((3, [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]))
    @example((1, [(5,), (3,), (7,)]))
    @example((4, [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (1, 1, 0, 0)]))
    @example((2, [(4, 0), (0, 5), (7, 0), (0, 6), (9, 1), (1, 9)]))
    def test_matches_inclusion_exclusion(self, case):
        d, gens = case
        ideal = minimalize(gens)
        expected = colength_by_inclusion_exclusion(ideal)
        assert walked_colength(ideal) == expected
        # the walk's slices hold unminimised tails, so it must not need minimal generators
        raw = MonomialIdeal(tuple(sorted(set(gens))))
        assert walked_colength(raw) == expected


class TestPrimaryBox:
    @settings(max_examples=300)
    @given(st.one_of(primary_generators(), st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=1))
    )))
    @example((3, [(0, 0, 0), (4, 0, 0)]))
    @example((1, [(5,), (3,)]))
    @example((3, [(2, 0, 0), (0, 1, 1), (3, 0, 0), (0, 0, 5)]))
    def test_matches_support_lists(self, case):
        # with and without pure powers of every variable, minimal or not
        d, gens = case
        for ideal in (minimalize(gens), MonomialIdeal(tuple(sorted(set(gens))))):
            assert ideal.primary_box() == primary_box_reference(ideal)


class TestMonomialOracle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("branch", ["s<d", "s=d", "s>d"])
    @settings(max_examples=3)
    @given(data=st.data())
    def test_matches_closed_form(self, d, branch, data):
        # s <= 6 on the branch; d = 4, s = 6 takes about 0.4 s
        s = data.draw({
            "s<d": st.integers(1, d - 1),
            "s=d": st.just(d),
            "s>d": st.integers(d + 1, 6),
        }[branch])
        inst = ReesInstanceMonomial(data.draw(st.tuples(*[st.integers(1, 4)] * d)))
        assert rees_colength_monomial(inst, [s])[s] == cm_sop_hk(d, inst.e0, s)


@st.composite
def monomial_rees_cases(draw):
    """Exponents 1..3 in d = 2..4 variables, and s <= 4 for d = 4, s <= 6 below."""
    d = draw(st.integers(2, 4))
    exponents = draw(st.tuples(*[st.integers(1, 3)] * d))
    return exponents, draw(st.integers(1, 4 if d == 4 else 6))


class TestMonomialOracleRank:
    """A relation with no closed form in it: k[x] is free of rank e0 over k[x^a].

    Substituting x_i^(a_i) for x_i maps the quotient for (x_1, ..., x_d)
    onto the one for (x_1^(a_1), ..., x_d^(a_d)) e0 times over, so the
    length multiplies by e0 = prod(a).  The oracle sums its graded
    pieces without knowing this.
    """

    @settings(max_examples=40)
    @given(monomial_rees_cases())
    @example(((2, 2, 2, 2), 4))
    @example(((3, 1), 6))
    def test_length_scales_by_e0(self, case):
        exponents, s = case
        inst = ReesInstanceMonomial(exponents)
        unit = ReesInstanceMonomial((1,) * inst.d)
        expected = inst.e0 * rees_colength_monomial(unit, [s])[s]
        assert rees_colength_monomial(inst, [s])[s] == expected
