"""Monomial ideal arithmetic and the two independent colength counts."""
import itertools
import random

import pytest

from reeshk.monomial_algebra import (
    InfiniteColength,
    MonomialIdeal,
    format_ideal,
    minimalize,
    parse_ideal,
)

from reference import colength_by_inclusion_exclusion, contains, power


def ideal(*exps):
    return minimalize(exps)


def param_ideal(exponents):
    """(x1^a1, ..., xd^ad)."""
    d = len(exponents)
    gens = []
    for i, a in enumerate(exponents):
        e = [0] * d
        e[i] = a
        gens.append(tuple(e))
    return ideal(*gens)


class TestMinimalize:
    def test_drops_multiples(self):
        result = ideal((2, 0), (3, 0), (0, 1))
        assert result.gens == ((0, 1), (2, 0))

    def test_antichain_unchanged(self):
        result = ideal((2, 1), (1, 2))
        assert result.gens == ((1, 2), (2, 1))

    def test_empty_is_refused(self):
        # every ideal the oracles measure is nonzero, so an ideal has a generator
        with pytest.raises(ValueError, match="one or more generators"):
            minimalize([])

    def test_idempotent(self):
        once = ideal((2, 0), (3, 0), (1, 1))
        again = minimalize(once.gens)
        assert once == again

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError):
            minimalize([(1, 0), (1, 0, 0)])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            minimalize([(1, -1)])

    def test_bool_exponent_rejected(self):
        with pytest.raises(ValueError):
            minimalize([(True, 2)])


class TestProductPower:
    def test_square_of_maximal(self):
        m = ideal((1, 0), (0, 1))
        assert m.product(m).gens == ((0, 2), (1, 1), (2, 0))

    def test_cube_is_all_degree_three(self):
        m = ideal((1, 0), (0, 1))
        expected = tuple(sorted((i, 3 - i) for i in range(4)))
        assert power(m, 3).gens == expected

    def test_frobenius_times_ideal_is_cube(self):
        m = ideal((1, 0), (0, 1))
        assert m.frobenius(2).product(m) == power(m, 3)

    def test_power_zero_is_unit(self):
        assert power(ideal((1, 1)), 0) == MonomialIdeal.unit(2)


class TestFrobenius:
    def test_scales_generators(self):
        assert ideal((2, 0), (0, 3)).frobenius(2).gens == ((0, 6), (4, 0))
        assert param_ideal((1, 1, 1)).frobenius(3).gens == (
            (0, 0, 3),
            (0, 3, 0),
            (3, 0, 0),
        )

    def test_preserves_minimality_here(self):
        assert ideal((2, 0), (1, 1), (0, 2)).frobenius(2).gens == (
            (0, 4),
            (2, 2),
            (4, 0),
        )

    def test_contained_in_ordinary_power(self):
        for exps in [(1, 1), (2, 1), (2, 3)]:
            m = param_ideal(exps)
            for s in range(1, 5):
                assert contains(power(m, s), m.frobenius(s))

    def test_bad_s_rejected(self):
        with pytest.raises(ValueError):
            ideal((1, 0)).frobenius(0)


class TestPrimaryBox:
    def test_examples(self):
        assert ideal((2, 0), (0, 3)).primary_box() == (2, 3)
        assert ideal((2, 0), (1, 1)).primary_box() is None
        assert ideal(
            (5, 0, 0), (3, 5, 0), (0, 8, 0), (0, 0, 8)
        ).primary_box() == (5, 8, 8)

    def test_unit_ideal(self):
        assert MonomialIdeal.unit(3).primary_box() == (0, 0, 0)


class TestColength:
    def test_examples(self):
        assert ideal((2, 0), (0, 3)).colength() == 6
        m = ideal((1, 0), (0, 1))
        assert power(m, 2).colength() == 3
        assert ideal((2, 0), (1, 3), (0, 4)).colength() == 7

    def test_unit_and_no_pure_power(self):
        assert MonomialIdeal.unit(2).colength() == 0
        with pytest.raises(InfiniteColength):
            ideal((2, 0), (1, 1)).colength()

    def test_large_box(self):
        assert ideal((100, 0), (0, 100)).colength() == 10**4

    def test_maximal_ideal_powers(self):
        # colength of (x1..xd)^n is C(n+d-1, d)
        from reeshk.hk_formulas import binomial

        for d in (2, 3, 4):
            m = param_ideal((1,) * d)
            for n in range(9):
                assert power(m, n).colength() == binomial(n + d - 1, d)

    def test_variable_permutation_invariance(self):
        base = ideal((5, 0, 0), (3, 5, 0), (0, 8, 0), (0, 0, 8), (1, 2, 4))
        reference = base.colength()
        for perm in itertools.permutations(range(3)):
            permuted = minimalize([tuple(g[i] for i in perm) for g in base.gens])
            assert permuted.colength() == reference

    def test_generator_order_invariance(self):
        vectors = [(2, 0), (1, 3), (0, 4)]
        reference = ideal(*vectors).colength()
        rng = random.Random(1)
        for _ in range(5):
            rng.shuffle(vectors)
            assert ideal(*vectors).colength() == reference


def random_primary_ideal(rng, d):
    """Random ideal guaranteed finite colength: pure powers plus extras."""
    gens = []
    for i in range(d):
        e = [0] * d
        e[i] = rng.randint(1, 6)
        gens.append(tuple(e))
    for _ in range(rng.randint(0, 6 - d)):
        gens.append(tuple(rng.randint(0, 6) for _ in range(d)))
    return minimalize(gens)


class TestInclusionExclusionCrossCheck:
    def test_random_ideals(self):
        rng = random.Random(20240817)
        for _ in range(60):
            d = rng.choice([2, 3])
            candidate = random_primary_ideal(rng, d)
            assert candidate.colength() == colength_by_inclusion_exclusion(candidate)

    def test_known_value(self):
        assert colength_by_inclusion_exclusion(ideal((2, 0), (1, 3), (0, 4))) == 7


class TestFrobeniusTailIdentity:
    def test_product_absorbs_late_powers(self):
        # I^[s] I^n = I^(n+s) once n >= d(s-1) - s + 1 for parameter I
        for d in (2, 3):
            for exps in itertools.product((1, 2), repeat=d):
                m = param_ideal(exps)
                for s in range(1, 5):
                    frob = m.frobenius(s)
                    for n in range(max(0, d * (s - 1) - s + 1), d * s + 2):
                        assert frob.product(power(m, n)) == power(m, n + s)


class TestTextForm:
    def test_parse_example(self):
        parsed = parse_ideal("2,0;1,3;0,4")
        assert parsed.gens == ((0, 4), (1, 3), (2, 0))

    def test_round_trip(self):
        parsed = parse_ideal("5,0,0;3,5,0;0,8,0;0,0,8")
        assert parse_ideal(format_ideal(parsed)) == parsed

    def test_empty_is_refused(self):
        with pytest.raises(ValueError, match="bad ideal text ''"):
            parse_ideal("")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_ideal("2,x;0,1")
