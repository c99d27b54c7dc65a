"""Property-based differential tests of the fast paths against their references.

The residue-class initial ideal behind quotient_colength and
ideals_equal, and the staircase heights, products, bracket powers and
colengths of the plane hypersurface ring, are compared with the
initial ideal of an independent Buchberger completion;
MonomialIdeal.product and frobenius with minimalize over the summed or
scaled exponent tuples; the bitset, two-column running-minimum and
one-degree minimalisation with a pairwise scan; the primary box with
one built from each generator's support; the staircase walk with
inclusion-exclusion; the graded-sum monomial oracle with the closed
form cm_sop_hk on all three of its branches, and with itself at unit
exponents scaled by e0; its base change, each variable's exponent gcd
divided out, with the graded sum on the unreduced ideal; parse_ideal
with format_ideal; and colength(J m) = colength(J) + mu(J), with the
orbit ring's generator count against its expanded orbits, on every
pattern of equal neighbours up to d = 7 too, and the graded sum that
steps it with the one that counts every colength; and
the orbit ring's product by one pure power with the product by all its
permutations and, expanded, with MonomialIdeal.product; and Newton
interpolation with Lagrange's.
"""
import functools
from fractions import Fraction
from itertools import accumulate, permutations, product
from math import prod
from operator import add, eq
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
from reeshk.polynomials import Poly, interpolate
from reeshk.rees_oracle import (
    StabilizationNotReached,
    _graded_lengths,
    _orbit_ring,
    _orbits,
    _plane_ring,
    _polynomial_ring,
    parameter_ideal,
    rees_colength_monomial,
)

from reference import (
    basis_initial_ideal,
    colength_by_inclusion_exclusion,
    contains_monomial,
    lagrange_interpolate,
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


@functools.cache
def compositions(n, d):
    """Every exponent tuple in d variables of total degree n."""
    return [v for v in product(range(n + 1), repeat=d) if sum(v) == n]


def one_degree_vector_lists(d):
    """Lists of tuples in d variables, all of one total degree n <= 6, repeats allowed."""
    return st.integers(0, 6).flatmap(lambda n: st.lists(st.sampled_from(compositions(n, d))))


class TestMinimalVectors:
    @settings(max_examples=300)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(st.tuples(*[st.integers(0, 4)] * d))))
    @example([])
    @example([(3, 1)])
    @example([(0, 0, 0)])
    @example([(2, 1), (0, 0), (2, 1), (1, 3)])
    @example([(1, 2), (2, 1), (1, 2)])
    @example([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)])  # (x^2, y^2, z^2, xyz): two degrees
    @example([(0, 0, 2), (0, 1, 2), (2, 0, 0)])  # the ends share a degree, a multiple between
    @example([(0, 1, 1, 2), (0, 0, 1, 1), (1, 1, 0, 0), (2, 1, 1, 0)])
    def test_matches_reference(self, vectors):
        # a small range makes duplicates, the zero vector and ties common
        assert _minimal_vectors(vectors) == minimal_vectors_reference(vectors)

    @settings(max_examples=15)
    @given(st.integers(2, 4).flatmap(long_vector_lists))
    def test_masks_past_one_machine_word(self, vectors):
        # more than 64 vectors, so each mask spans several words
        assert _minimal_vectors(vectors) == minimal_vectors_reference(vectors)

    @settings(max_examples=200)
    @given(st.integers(2, 5).flatmap(one_degree_vector_lists))
    @example([(0, 0, 2), (0, 1, 1), (1, 1, 0), (0, 1, 1)])
    @example([(1, 1, 1, 1, 1)])
    def test_one_degree_keeps_every_vector(self, vectors):
        # no vector divides another of its degree: the answer is the sorted distinct vectors
        assert _minimal_vectors(vectors) == minimal_vectors_reference(vectors)
        assert _minimal_vectors(vectors) == tuple(sorted(set(vectors)))


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

    def checked(gens):
        assert list(gens) == sorted(gens)
        if len(gens[0]) < ideal.ambient_dim:
            assert all(any(g) for g in gens)
        return count_standard(gens)

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
        exponents = data.draw(st.tuples(*[st.integers(1, 4)] * d))
        value = rees_colength_monomial(parameter_ideal(exponents), [s])[s]
        assert value == cm_sop_hk(d, prod(exponents), s)


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
    length multiplies by e0 = prod(a).  The oracle applies this base
    change itself, so the graded sum on the unreduced ideal, with the
    oracle's tail cap (d - 1) s, is checked against it as well; at d = 4
    this is the only check of the base change.
    """

    @settings(max_examples=40)
    @given(monomial_rees_cases())
    @example(((2, 2, 2, 2), 4))
    @example(((3, 1), 6))
    def test_length_scales_by_e0(self, case):
        exponents, s = case
        d, ideal = len(exponents), parameter_ideal(exponents)
        expected = prod(exponents) * rees_colength_monomial(parameter_ideal((1,) * d), [s])[s]
        unreduced = _graded_lengths(_polynomial_ring(d), ideal, {s: (d - 1) * s})
        assert rees_colength_monomial(ideal, [s])[s] == unreduced[s] == expected


@st.composite
def scaled_monomial_ideals(draw):
    """(generators, top): a small ideal in 2 or 3 variables, column i scaled by c_i in 1..3.

    Before scaling: a pure power of every variable, 2 to 6 in two
    variables and 2 to 3 in three, 1 in 8 times without the first
    variable's (so not m-primary); 3 in 4 times, 1 to 3 mixed monomials
    under those powers, so not a parameter ideal; and, half the time, every
    permutation of the variables applied to them, which makes the ideal
    symmetric.  s runs 1..top, top <= 4 in two variables and 3 in three.
    """
    d = draw(st.integers(2, 3))
    tops = draw(st.tuples(*[st.integers(2, 6 if d == 2 else 3)] * d))
    gens = [tuple(t if j == i else 0 for j in range(d)) for i, t in enumerate(tops)]
    if draw(st.integers(0, 7)) == 0:
        gens = gens[1:]
    if draw(st.integers(0, 3)):
        under = st.tuples(*[st.integers(0, t - 1) for t in tops])
        gens += draw(st.lists(under.filter(lambda g: g.count(0) < d - 1), min_size=1, max_size=3))
    if draw(st.booleans()):
        gens = [(*p,) for g in gens for p in permutations(g)]
    cs = draw(st.tuples(*[st.integers(1, 3)] * d))
    scaled = [tuple(e * c for e, c in zip(g, cs)) for g in gens]
    return scaled, draw(st.integers(1, 4 if d == 2 else 3))


def lengths_or_refusal(run):
    """run(), or the class of the refusal it raised."""
    try:
        return run()
    except (InfiniteColength, StabilizationNotReached) as exc:
        return type(exc)


class TestMonomialBaseChange:
    """The oracle divides each variable's exponent gcd c_i out of I and scales by prod(c).

    The reference is the graded sum on I itself in the polynomial ring,
    with the oracle's tail cap (d - 1) s; values and refusals must agree.
    """

    @settings(max_examples=150)
    @given(scaled_monomial_ideals())
    @example(([(4, 0), (2, 1), (0, 2)], 4))
    @example(([(2, 0, 0), (0, 4, 0), (0, 0, 6), (0, 2, 3)], 3))
    @example(([(0, 2), (2, 2)], 2))
    @example(([(0, 7), (8, 2), (10, 0)], 4))  # both refuse at s = 4, past t = 4
    def test_matches_the_unreduced_sum(self, case):
        gens, top = case
        ideal = minimalize(gens)
        d, ss = ideal.ambient_dim, range(1, top + 1)
        caps = {s: (d - 1) * s for s in ss}
        expected = lengths_or_refusal(lambda: _graded_lengths(_polynomial_ring(d), ideal, caps))
        assert lengths_or_refusal(lambda: rees_colength_monomial(ideal, ss)) == expected

    def test_worked_values(self):
        # (x^4, x^2 y, y^2) is (x^2, xy, y^2) with x -> x^2, over which k[x, y] has rank 2
        ss = range(1, 21)
        scaled = rees_colength_monomial(minimalize([(4, 0), (2, 1), (0, 2)]), ss)
        base = rees_colength_monomial(minimalize([(2, 0), (1, 1), (0, 2)]), ss)
        assert scaled == {s: 2 * length for s, length in base.items()}
        assert (scaled[20], base[20]) == (68920, 34460)


def maximal_ideal(d):
    """m = (x_1, ..., x_d) on the orbit ring: its one representative."""
    return ((0,) * (d - 1) + (1,),)


def walk_with_generators(d):
    """The walk, told that mu(J) is the number of J's minimal generators: it steps when I = m."""
    return _polynomial_ring(d)._replace(generators=lambda j: len(j.gens))


@st.composite
def symmetric_representatives(draw, top_d):
    """(d, reps): an m-primary ideal in d = 1..top_d fixed by every permutation, on orbits.

    Exponents up to 3 repeat often, so orbits of every shape occur.
    """
    d = draw(st.integers(1, top_d))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=5))
    gens.append((0,) * (d - 1) + (draw(st.integers(1, 4)),))
    return d, _minimal_vectors((*sorted(g),) for g in gens)


def pattern_representatives(d):
    """One sorted representative for each of the 2^(d-1) patterns of equal neighbours, d <= 7.

    Every run but the last takes 420 times its index and the last run the
    rest of the degree 42000; 420 is a multiple of every run length up to
    7, and one degree makes the set an antichain, a minimal ideal.
    """
    reps = []
    for flags in product((True, False), repeat=d - 1):
        runs = [*accumulate((not equal for equal in flags), initial=0)]  # run index per exponent
        last = runs.count(runs[-1])
        head = [420 * i for i in runs[:-last]]
        reps.append((*head, *[(42000 - sum(head)) // last] * last))
    return reps


class TestColengthTimesMaximal:
    """colength(J m) = colength(J) + mu(J) (Nakayama), and the graded sum that steps by it.

    When I = m the sum counts only I and each I^[q], and steps every
    other colength from the last product; with no generator count it
    counts each one.  Values and refusals must agree.
    """

    @settings(max_examples=200)
    @given(symmetric_representatives(5))
    @example((5, ((0, 0, 0, 0, 1),)))
    @example((4, ((0, 0, 2, 2), (0, 1, 1, 1), (0, 0, 0, 3))))
    def test_orbit_generators_count_the_expanded_orbits(self, case):
        d, reps = case
        orbits = _orbits(reps)
        assert _orbit_ring(d).generators(reps) == len(orbits)
        assert len(minimalize(orbits).gens) == len(orbits)  # every permuted rep is minimal

    @pytest.mark.parametrize("d", range(1, 8))
    def test_orbit_generators_on_every_pattern_of_equal_neighbours(self, d):
        ring, reps = _orbit_ring(d), pattern_representatives(d)
        assert len({(*map(eq, g, g[1:]),) for g in reps}) == 2 ** (d - 1)
        for g in reps:
            assert ring.generators((g,)) == len(_orbits((g,)))
        mixed = _minimal_vectors(reps)  # every pattern in one ideal
        assert len(mixed) == len(reps)
        assert ring.generators(mixed) == len(_orbits(mixed))

    @settings(max_examples=100)
    @given(symmetric_representatives(4))
    def test_orbit_ring_identity(self, case):
        d, reps = case
        ring = _orbit_ring(d)
        assert ring.colength(ring.product(reps, maximal_ideal(d))) == (
            ring.colength(reps) + ring.generators(reps)
        )

    @settings(max_examples=100)
    @given(primary_generators())
    def test_walk_identity(self, case):
        d, gens = case
        ring, ideal = walk_with_generators(d), minimalize(gens)
        maximal = parameter_ideal((1,) * d) if d >= 2 else minimalize([(1,)])
        assert ring.colength(ring.product(ideal, maximal)) == (
            ring.colength(ideal) + ring.generators(ideal)
        )

    @settings(max_examples=60)
    @given(
        st.sampled_from([(_orbit_ring, d) for d in range(1, 6)]
                        + [(walk_with_generators, d) for d in (2, 3)]),
        st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
        st.integers(0, 3),
    )
    # a shortfall of 5 puts the cap at q = 3 below its stop: both sides raise
    @example((_orbit_ring, 4), [3, 2], 5)
    @example((walk_with_generators, 3), [3, 1], 5)
    def test_stepped_sum_matches_the_counted_sum(self, make, qs, short):
        # each cap is the oracle's (d - 1) q, less `short`; a shortfall past the stop raises
        build, d = make
        ring = build(d)
        ideal = maximal_ideal(d) if build is _orbit_ring else parameter_ideal((1,) * d)
        caps = {q: max((d - 1) * q - short, 0) for q in qs}
        counted = lengths_or_refusal(
            lambda: _graded_lengths(ring._replace(generators=None), ideal, caps)
        )
        assert lengths_or_refusal(lambda: _graded_lengths(ring, ideal, caps)) == counted
        if short == 5:
            assert counted is StabilizationNotReached

    @pytest.mark.parametrize("d, ss, most", [(3, range(1, 10), 10), (2, range(2, 21), 20)])
    def test_stepped_sum_counts_only_i_and_each_bracket_power(self, d, ss, most):
        # counting every product's colength took 98 and 249 counts
        ring, calls = _orbit_ring(d), []
        counting = ring._replace(colength=lambda reps: calls.append(1) or ring.colength(reps))
        caps = {s: (d - 1) * s for s in ss}
        assert _graded_lengths(counting, maximal_ideal(d), caps) == {
            s: cm_sop_hk(d, 1, s) for s in ss
        }
        assert len(calls) <= most


@st.composite
def orbit_ideals(draw):
    """(d, reps): an ideal in d = 1..5 fixed by every permutation, on orbits.

    Exponents up to 3 repeat often, so runs of equal exponents are common.
    """
    d = draw(st.integers(1, 5))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=6))
    return d, _minimal_vectors((*sorted(g),) for g in gens)


class TestPurePowerProduct:
    """The orbit ring's product by one pure power x^c, against every permutation of x^c."""

    @settings(max_examples=300)
    @given(orbit_ideals(), st.integers(0, 4))
    @example((3, ((0, 0, 2),)), 0)  # c = 0: the product is J itself
    @example((4, ((0, 0, 2, 2), (0, 1, 1, 1), (0, 0, 0, 3))), 2)
    @example((5, ((1, 1, 1, 1, 1),)), 3)
    @example((3, ((0, 1, 1), (0, 0, 2))), 1)
    # past the strategy's d <= 5: runs of every length from 1 to 6 at d = 6 and 7
    @example((6, ((0, 0, 1, 1, 1, 2), (0, 1, 1, 1, 1, 1))), 1)
    @example((6, ((0, 0, 1, 1, 1, 2), (0, 1, 1, 1, 1, 1))), 3)
    @example((7, ((0, 0, 0, 2, 2, 2, 2), (1, 1, 1, 1, 1, 1, 2))), 1)
    @example((7, ((0, 0, 0, 2, 2, 2, 2), (1, 1, 1, 1, 1, 1, 2))), 3)
    def test_matches_the_orbit_product_and_the_walk(self, case, c):
        d, reps = case
        power = ((0,) * (d - 1) + (c,),)
        ring = _orbit_ring(d)
        moved = ring.product(reps, power)
        # what the product forms for any other pair: every permutation of x^c
        assert moved == _minimal_vectors(
            [(*sorted(map(add, g, h)),) for h in _orbits(power) for g in reps]
        )
        assert ring.product(power, reps) == moved
        if c == 0:
            assert moved == reps
        expanded = MonomialIdeal(_minimal_vectors(_orbits(reps)))
        walked = expanded.product(MonomialIdeal(_minimal_vectors(_orbits(power))))
        assert tuple(sorted(_orbits(moved))) == walked.gens


scalars = st.integers(-20, 20) | st.fractions(-20, 20, max_denominator=9)


@st.composite
def point_lists(draw):
    """1 to 6 points with distinct int or Fraction abscissae."""
    xs = draw(st.lists(scalars, min_size=1, max_size=6, unique=True))
    return [(x, draw(scalars)) for x in xs]


class TestInterpolate:
    """Newton's divided differences against the Lagrange products of the reference."""

    @given(point_lists())
    @example([(0, 5)])
    @example([(Fraction(1, 2), 3), (3, 0), (Fraction(-2, 3), Fraction(7, 4))])
    @example([(x, x**5) for x in range(-2, 4)])  # degree 5 through 6 points
    def test_matches_lagrange(self, points):
        poly = interpolate(points)
        assert poly == lagrange_interpolate(points)
        assert all(poly(x) == y for x, y in points)
        assert poly.degree <= len(points) - 1

    def test_no_points_is_the_zero_polynomial(self):
        assert interpolate([]) == lagrange_interpolate([]) == Poly()

    @given(point_lists(), st.integers(0, 5))
    def test_repeated_abscissae_raise(self, points, i):
        x, y = points[i % len(points)]
        with pytest.raises(ValueError, match="distinct abscissae"):
            interpolate([*points, (Fraction(x), y + 1)])
