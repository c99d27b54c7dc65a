"""Property-based differential tests of the fast paths against their references.

The residue-class initial ideal behind quotient_colength and
ideals_equal is compared with the initial ideal of an independent
Buchberger completion; MonomialIdeal.product and frobenius with
minimalize over the summed or scaled exponent tuples.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from reeshk.binomial_groebner import (
    BinomialRelation,
    buchberger,
    ideals_equal,
    initial_ideal,
    quotient_colength,
)
from reeshk.monomial_algebra import InfiniteColength, MonomialIdeal, minimalize


@st.composite
def relations(draw):
    """X_u^a - X_v^a in 2 to 4 variables, any u < v, a <= 7."""
    d = draw(st.integers(2, 4))
    u = draw(st.integers(0, d - 2))
    v = draw(st.integers(u + 1, d - 1))
    return BinomialRelation(d, u, v, draw(st.integers(2, 7)))


def generators(d, primary):
    """1 to 5 random monomials; if primary, also a pure power of every variable."""
    mono = st.tuples(*[st.integers(0, 9)] * d)
    gens = st.lists(mono, min_size=1, max_size=5)
    if not primary:
        return gens
    powers = st.tuples(*[st.integers(1, 9)] * d).map(
        lambda tops: [tuple(t if j == i else 0 for j in range(d)) for i, t in enumerate(tops)]
    )
    return st.tuples(gens, powers).map(lambda pair: pair[0] + pair[1])


@st.composite
def instances(draw):
    """A relation and generators, primary or not."""
    rel = draw(relations())
    return rel, draw(generators(rel.ambient_dim, draw(st.booleans())))


def reference_colength(rel, gens):
    """Colength of the Buchberger initial ideal, or the exception it raised."""
    try:
        return buchberger(rel, gens).initial_ideal().colength()
    except InfiniteColength as exc:
        return type(exc)


def residue_colength(rel, gens):
    try:
        return quotient_colength(rel, gens)
    except InfiniteColength as exc:
        return type(exc)


class TestResidueInitialIdeal:
    @settings(max_examples=300)
    @given(instances())
    def test_matches_buchberger(self, instance):
        rel, gens = instance
        assert initial_ideal(rel, gens) == buchberger(rel, gens).initial_ideal()

    @settings(max_examples=150)
    @given(instances())
    def test_colength_matches_buchberger(self, instance):
        # non-primary inputs must raise InfiniteColength on both sides
        rel, gens = instance
        assert residue_colength(rel, gens) == reference_colength(rel, gens)


def mutually_contained(rel, gens_a, gens_b):
    """Equality by membership of each completed basis in the other's ideal."""
    gb_a, gb_b = buchberger(rel, gens_a), buchberger(rel, gens_b)
    return all(gb_b.contains_monomial(m) for m in gb_a.monomials) and all(
        gb_a.contains_monomial(m) for m in gb_b.monomials
    )


class TestIdealsEqual:
    @settings(max_examples=150)
    @given(st.data())
    def test_matches_mutual_membership(self, data):
        rel, gens_a = data.draw(instances())
        gens_b = data.draw(generators(rel.ambient_dim, data.draw(st.booleans())))
        assert ideals_equal(rel, gens_a, gens_b) == mutually_contained(rel, gens_a, gens_b)

    @settings(max_examples=100)
    @given(instances())
    def test_equal_to_its_completed_basis(self, instance):
        # a true case the random pairs above rarely hit
        rel, gens = instance
        basis = buchberger(rel, gens).monomials
        assert ideals_equal(rel, gens, basis)
        assert ideals_equal(rel, basis, gens)


def monomial_ideals(d):
    mono = st.tuples(*[st.integers(0, 6)] * d)
    return st.lists(mono, max_size=8).map(lambda gens: MonomialIdeal.from_exponents(d, gens))


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
        assert a.product(b) == minimalize(sums, ambient_dim=a.ambient_dim)


class TestFrobenius:
    @settings(max_examples=200)
    @given(st.integers(1, 4).flatmap(monomial_ideals), st.integers(1, 5))
    def test_matches_minimalized_scaled_generators(self, ideal, s):
        # frobenius skips minimalize: scaling keeps the generators minimal and sorted
        scaled = [tuple(s * e for e in g) for g in ideal.gens]
        assert ideal.frobenius(s) == minimalize(scaled, ambient_dim=ideal.ambient_dim)
