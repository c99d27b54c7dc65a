"""Oracles, formula-oracle equivalence, alpha tables and exact fitting."""
import functools
import itertools
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reeshk import binomial_groebner, monomial_algebra, rees_oracle
from reeshk.binomial_groebner import plane_heights, quotient_colength
from reeshk.hk_formulas import cm_sop_hk, compare_to_eto_yoshida, sop_dim1_hk
from reeshk.monomial_algebra import InfiniteColength, MonomialIdeal, minimalize
from reeshk.polynomials import Poly
from reeshk.rees_oracle import (
    InconsistentSamples,
    InsufficientSamples,
    StabilizationNotReached,
    _graded_lengths,
    _orbit_ring,
    _orbits,
    _plane_ring,
    _polynomial_ring,
    _reduction_number,
    alpha_table,
    estimate_ehk,
    fit_quasi_polynomial,
    parameter_ideal,
    rees_colength_dim1,
    rees_colength_monomial,
)

from reference import colength_by_inclusion_exclusion, graded_length_by_window, power

# the maximal ideal (X, Y) of k[X, Y], kept as its generators
PLANE_MAXIMAL = minimalize([(1, 0), (0, 1)])
# (p, the exponents e of q = p^e) that the plane references run, q <= 128
PRIME_POWERS = ((2, range(1, 8)), (3, range(1, 5)), (5, range(1, 4)))


class TestInstances:
    def test_monomial_validation(self):
        # the messages of the parameter ideal's two rules, as the CLI prints them
        with pytest.raises(ValueError, match="^d must be at least 2$"):
            parameter_ideal((1,))
        with pytest.raises(ValueError, match="^exponents must be positive$"):
            parameter_ideal((1, 0))
        assert parameter_ideal((2, 2, 3)).gens == ((0, 0, 3), (0, 2, 0), (2, 0, 0))

    def test_dim1_validation(self):
        # no characteristic: the CLI checks p, and the oracle measures at any q
        with pytest.raises(ValueError, match="^hypersurface exponent must be at least 2$"):
            rees_colength_dim1(1, "rees-of-x", [2])
        for variant in ("rees-of-t", "rees_of_x", "rees_of_m"):  # one spelling per variant
            with pytest.raises(ValueError, match="unknown variant"):
                rees_colength_dim1(5, variant, [2])


class TestMonomialOracle:
    def test_graded_pieces_example(self):
        assert rees_colength_monomial(parameter_ideal((1, 1)), [2])[2] == 10

    def test_three_variables(self):
        assert rees_colength_monomial(parameter_ideal((1, 1, 1)), [2])[2] == 23

    def test_s_one_is_colength_of_ideal(self):
        assert rees_colength_monomial(parameter_ideal((1, 1)), [1])[1] == 1
        assert rees_colength_monomial(parameter_ideal((2, 3)), [1])[1] == 6

    def test_formula_oracle_equivalence(self):
        for d in (2, 3):
            for exps in itertools.product((1, 2, 3), repeat=d):
                ideal = parameter_ideal(exps)
                for s in range(1, 5):
                    assert rees_colength_monomial(ideal, [s])[s] == cm_sop_hk(
                        d, prod(exps), s
                    ), (exps, s)

    # s = 1..d + 1 reaches every branch of cm_sop_hk: k1 >= 2, s dividing d and s > d
    @pytest.mark.parametrize("d, top", [(5, 6), (6, 7)])
    def test_formula_oracle_equivalence_past_four_variables(self, d, top):
        ideal = parameter_ideal((1,) * d)
        assert rees_colength_monomial(ideal, range(1, top + 1)) == {
            s: cm_sop_hk(d, 1, s) for s in range(1, top + 1)
        }

    @staticmethod
    def record_rings(monkeypatch):
        """Record each ring the oracle builds, "orbit" or "walk", and the ideal it sums."""
        built, summed = [], []
        orbit, polynomial = rees_oracle._orbit_ring, rees_oracle._polynomial_ring
        graded = rees_oracle._graded_lengths

        def recorded(ring, ideal, caps):
            summed.append(getattr(ideal, "gens", ideal))
            return graded(ring, ideal, caps)

        for name, wrapper in [
            ("_orbit_ring", lambda d: built.append("orbit") or orbit(d)),
            ("_polynomial_ring", lambda d: built.append("walk") or polynomial(d)),
            ("_graded_lengths", recorded),
        ]:
            monkeypatch.setattr(rees_oracle, name, wrapper)
        return built, summed

    # every parameter ideal runs as the all-ones ideal, symmetric or not: on
    # _orbit_ring(d) with the one representative (0, ..., 0, 1)
    @pytest.mark.parametrize("exps", [
        (1, 1), (1, 1, 1), (3, 3, 3, 3), (2, 1, 1, 1), (1, 2, 3), (2, 2, 3), (1, 2, 1, 1),
    ], ids=[
        "exps0-True", "exps1-True", "exps2-True", "exps3-True", "exps4-False", "exps5-False",
        "exps6-True",
    ])
    def test_ring_follows_the_symmetry_of_the_ideal(self, exps, monkeypatch):
        d = len(exps)
        built, summed = self.record_rings(monkeypatch)
        expected = {s: cm_sop_hk(d, prod(exps), s) for s in (1, 2)}
        assert rees_colength_monomial(parameter_ideal(exps), [1, 2]) == expected
        assert built == ["orbit"]
        assert summed == [((0,) * (d - 1) + (1,),)]

    # ideals that are not parameter ideals: the first two have every gcd 1 and keep
    # their ring; (x^4, x^2 y, y^2) runs as (x^2, xy, y^2), whose x and y swap.  The
    # lengths come from the fixed window, as the walk is the oracle's own path
    @pytest.mark.parametrize("gens, ring, summed", [
        # (x^2, xy, y^2, z): fixed by swapping x and y alone, so on the walk
        ([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)], "walk",
         ((0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0))),
        # (x, y^2, z^2, w^2, yzw): fixed by permuting y, z, w with x apart, so on the walk
        ([(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (0, 1, 1, 1)], "walk",
         ((0, 0, 0, 2), (0, 0, 2, 0), (0, 1, 1, 1), (0, 2, 0, 0), (1, 0, 0, 0))),
        ([(4, 0), (2, 1), (0, 2)], "orbit", ((0, 2), (1, 1))),
    ], ids=["walk", "orbits-one-free", "reduced"])
    def test_ring_follows_the_symmetry_of_the_reduced_ideal(self, gens, ring, summed, monkeypatch):
        ideal = minimalize(gens)
        d = ideal.ambient_dim
        expected = {
            s: graded_length_by_window(ideal, s, MonomialIdeal.colength, (d - 1) * s + 2)
            for s in (1, 2)
        }
        recorded = self.record_rings(monkeypatch)
        assert rees_colength_monomial(ideal, [1, 2]) == expected
        assert recorded == ([ring], [summed])

    def test_tail_vanishes_at_detection_point(self):
        # the truncation point T has a zero summand, and so does T+1
        for exps, s in [((1, 1), 2), ((1, 2), 3), ((1, 1, 1), 2)]:
            ideal = parameter_ideal(exps)
            frob = ideal.frobenius(s)
            T = None
            for n in range(s, len(exps) * s + 1):
                if frob.product(power(ideal, n - s)) == power(ideal, n):
                    T = n
                    break
            assert T is not None
            for n in (T, T + 1):
                piece = frob.product(power(ideal, n - s))
                assert piece.colength() == power(ideal, n).colength()


class TestDim1Oracle:
    def test_rees_of_x_values(self):
        assert rees_colength_dim1(5, "rees-of-x", [8])[8] == 272
        values = [rees_colength_dim1(5, "rees-of-x", [2**e])[2**e] for e in range(2, 7)]
        assert values == [64, 272, 1216, 4928, 20224]

    def test_rees_of_m_values(self):
        assert rees_colength_dim1(5, "rees-of-m", [16])[16] == 1280
        assert rees_colength_dim1(5, "rees-of-m", [8])[8] == 310

    @pytest.mark.parametrize("variant, values", [
        ("rees-of-m", {1: 1, 6: 180, 16: 1280}),
        ("rees-of-x", {1: 1, 6: 156, 16: 1216}),
    ])
    def test_any_q_is_measured(self, variant, values):
        # q = 1 is the ideal itself, of length 1; q = 6 is no prime power
        assert rees_colength_dim1(5, variant, [1, 6, 16]) == values

    @pytest.mark.parametrize("a", range(2, 9))
    def test_rees_of_x_is_q_times_the_plane_length(self, a):
        # the quotient is R/m^[q] (x) k[Z]/(Z^q), so its length is q len(R/m^[q])
        qs = range(1, 5 * a + 1)
        assert rees_colength_dim1(a, "rees-of-x", qs) == {
            q: q * quotient_colength(a, parameter_ideal((q, q))) for q in qs
        }

    def test_rees_of_x_matches_predictor(self):
        qp = sop_dim1_hk(5, (-4, -6))
        for e in range(2, 7):
            assert rees_colength_dim1(5, "rees-of-x", [2**e])[2**e] == qp.poly_for(e)(2**e)

    def test_rees_of_m_matches_quasi_polynomial(self):
        from reeshk.cli import FERMAT5
        from reeshk.hk_formulas import cordim1_hk

        qp = cordim1_hk(FERMAT5)
        lengths = rees_colength_dim1(5, "rees-of-m", [2**e for e in range(3, 11)])
        assert lengths == {2**e: qp.poly_for(e)(2**e) for e in range(3, 11)}

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
        assert rees_colength_dim1(5, "rees-of-m", [16])[16] == 1280
        assert alpha_table(5, 3, [4, 8])[0] == {4: -4, 8: -6}
        assert calls == []

    @pytest.mark.parametrize("a", [3, 5])
    def test_measured_ideals_stay_small(self, a, monkeypatch):
        # every product multiplies at most a staircase corners by the two of
        # m or m^[q]: m^n itself has n + 1 generators, up to 257 at q = 256.
        # The oracle reads q = 256 off its class's closed form; the graded sum still sums it
        measured = []

        def spy(exponent, pairs):
            measured.append(len(pairs))
            return plane_heights(exponent, pairs)

        monkeypatch.setattr(rees_oracle, "plane_heights", spy)
        rees_colength_dim1(a, "rees-of-m", [256])
        assert measured and max(measured) <= 2 * a
        measured.clear()
        _graded_lengths(_plane_ring(a), (1,) + (0,) * (a - 1), {256: 2 * a})
        assert len(measured) >= 2 * 256
        assert max(measured) <= 2 * a

    @pytest.mark.parametrize("a", [2, 5, 13])
    def test_products_do_not_grow_with_q_past_the_window(self, a, monkeypatch):
        # past the window q < r + a = 2a - 1, q, q + 10a and q + 2^60 a share a
        # base and differ only in the closed form of their class, which takes no product
        products = []

        def counting_ring(exponent):
            ring = _plane_ring(exponent)

            def product(h, k):
                products.append(None)
                return ring.product(h, k)

            return ring._replace(product=product)

        monkeypatch.setattr(rees_oracle, "_plane_ring", counting_ring)
        for q in range(2 * a - 1, 3 * a - 1):
            counts = []
            for later in (q, q + 10 * a, q + a * 2**60):
                products.clear()
                rees_colength_dim1(a, "rees-of-m", [later])
                counts.append(len(products))
            assert counts[0] == counts[1] == counts[2], q

    def test_bracket_power_identity_is_tested_on_each_chain(self, monkeypatch):
        # a ring whose m^[q] breaks m^[q] = Y^a m^[q - a] past the window is refused
        def broken_ring(exponent):
            ring = _plane_ring(exponent)

            def frobenius(h, q):
                power = ring.frobenius(h, q)
                return power if q < 2 * exponent - 1 else (*power[:-1], power[-1] + 1)

            return ring._replace(frobenius=frobenius)

        monkeypatch.setattr(rees_oracle, "_plane_ring", broken_ring)
        assert rees_colength_dim1(5, "rees-of-m", [8]) == {8: 310}  # q = 8 < 9 is summed
        with pytest.raises(RuntimeError, match=r"^m\^\[11\] != Y\^5 m\^\[6\] "):
            rees_colength_dim1(5, "rees-of-m", [16])


@st.composite
def plane_ideals(draw):
    """(a, J) for a = 2..12 and a random ideal J of k[X, Y]/(X^a - Y^a), as its heights."""
    a = draw(st.integers(2, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, 3 * a), st.integers(0, 3 * a)), min_size=1,
                          max_size=6))
    return a, plane_heights(a, pairs)


@functools.cache
def plane_graded_lengths(a):
    """{q: the graded sum at q} for q <= 8a, the reference of the rees-of-m oracle."""
    caps = dict.fromkeys(range(1, 8 * a + 1), 2 * a)
    return _graded_lengths(_plane_ring(a), (1,) + (0,) * (a - 1), caps)


class TestPlaneShift:
    """The facts of k[X, Y]/(X^a - Y^a) that let rees-of-m read q off its class mod a."""

    @settings(max_examples=200)
    @given(plane_ideals(), st.integers(0, 5), st.integers(0, 11))
    def test_bracket_power_is_y_to_the_a_times_the_one_below(self, case, k, offset):
        # m^[q] = Y^a m^[q - a] for q >= a, seen through the product with any J
        a, j = case
        q = a + k * a + offset % a
        ring, maximal = _plane_ring(a), (1,) + (0,) * (a - 1)
        below = ring.product(ring.frobenius(maximal, q - a), j)
        assert ring.product(ring.frobenius(maximal, q), j) == tuple(h + a for h in below)

    @settings(max_examples=200)
    @given(plane_ideals())
    def test_y_is_a_non_zero_divisor_of_colength_a(self, case):
        a, j = case
        ring, y = _plane_ring(a), plane_heights(a, [(0, 1)])
        assert ring.product(y, j) == tuple(h + 1 for h in j)
        assert ring.colength(ring.product(y, j)) == ring.colength(j) + a

    @pytest.mark.parametrize("a", range(2, 13))
    def test_reduction_number_of_m_is_a_minus_one(self, a):
        ring, maximal = _plane_ring(a), (1,) + (0,) * (a - 1)
        powers = [ring.unit]
        for _ in range(a):
            powers.append(ring.product(powers[-1], maximal))
        assert _reduction_number(ring, maximal, 2 * a) == (a - 1, powers[a - 1])
        # tested, not assumed: m^(n+1) != Y m^n below a - 1, so a cap there finds none
        assert all(powers[n + 1] != tuple(h + 1 for h in powers[n]) for n in range(a - 1))
        assert _reduction_number(ring, maximal, a - 2) is None

    def test_no_reduction_number_within_the_cap_is_refused(self, monkeypatch):
        # r is sought up to min(max q - a, 2a): a q past the window with none found
        # raises, and a sweep whose every q may lie in the window is summed
        monkeypatch.setattr(rees_oracle, "_reduction_number", lambda ring, ideal, cap: None)
        refusal = r"^m\^\(n\+1\) != Y m\^n for all n <= 10$"
        with pytest.raises(StabilizationNotReached, match=refusal):
            rees_colength_dim1(5, "rees-of-m", [4, 16])
        assert rees_colength_dim1(5, "rees-of-m", [15, 4]) == {
            q: plane_graded_lengths(5)[q] for q in (15, 4)
        }

    def test_reduction_number_is_sought_only_as_far_as_the_sweep_needs(self, monkeypatch):
        # up to max q - a, where no product is taken when every q < a, and at most 2a
        caps = []

        def spy(ring, ideal, cap):
            caps.append(cap)
            return _reduction_number(ring, ideal, cap)

        monkeypatch.setattr(rees_oracle, "_reduction_number", spy)
        assert rees_colength_dim1(4096, "rees-of-m", [1, 2, 4]) == {1: 1, 2: 10, 4: 84}
        assert rees_colength_dim1(13, "rees-of-m", [20]) == {20: plane_graded_lengths(13)[20]}
        rees_colength_dim1(13, "rees-of-m", [1300])
        assert caps == [4 - 4096, 20 - 13, 2 * 13]

    @pytest.mark.parametrize("a", range(2, 13))
    def test_oracle_matches_graded_sum_up_to_8a(self, a):
        qs = range(1, 8 * a + 1)
        assert rees_colength_dim1(a, "rees-of-m", qs) == plane_graded_lengths(a)

    @pytest.mark.parametrize("a", range(2, 21))
    def test_prime_powers_read_the_observed_class_quadratic(self, a):
        # observed, not a result of the paper, so it stays here: once q >= a // 2,
        # L(q) = a q^2 + (a^3 - a)/6 - a rho (a - rho) with rho = q mod a
        qs = {p**e for p in (2, 3, 5, 7) for e in range(65) if p**e >= a // 2}
        assert rees_colength_dim1(a, "rees-of-m", sorted(qs)) == {
            q: a * q * q + (a**3 - a) // 6 - a * (q % a) * (a - q % a) for q in sorted(qs)
        }


class TestGradedLength:
    """The shared graded sum: its tail cap, its stop rule, and a fixed-window reference."""

    # (ring, ideal, {q: first tail index t with I^[q] I^t = I^(q+t)})
    CASES = {
        "monomial": (_polynomial_ring(4), parameter_ideal((2, 1, 1, 1)), {3: 6, 2: 3}),
        # (x_1, ..., x_4) on its one orbit representative: m^[q] m^t = m^(q+t) from t = 3 (q - 1)
        "symmetric": (_orbit_ring(4), ((0, 0, 0, 1),), {3: 6, 2: 3}),
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

    # (ring, ideal, caps, the length at each q, a bound on the products); without the
    # skip the sums took 647, 138 and 2559 products, with it 457, 111 and 2385
    SKIPS = {
        "orbit": (
            _orbit_ring(2), ((0, 1),), {q: q for q in range(2, 21)},
            lambda q: cm_sop_hk(2, 1, q), 460,
        ),
        "walk": (
            _polynomial_ring(3), parameter_ideal((1, 2, 3)), {q: 2 * q for q in range(1, 8)},
            lambda q: cm_sop_hk(3, 6, q), 115,
        ),
        # for q >= 2, L(q) = 5 q^2 + 20 - 5 r (5 - r) with r = q mod 5, as measured
        "plane": (
            _plane_ring(5), (1, 0, 0, 0, 0), dict.fromkeys(range(1, 65), 10),
            lambda q: 1 if q == 1 else 5 * q * q + 20 - 5 * (q % 5) * (5 - q % 5), 2400,
        ),
    }

    @pytest.mark.parametrize("case", sorted(SKIPS))
    def test_unequal_colengths_need_no_product(self, case):
        # below t = q the head's colength decides: I^[q] I^t is formed only on a tie
        ring, ideal, caps, length, bound = self.SKIPS[case]
        calls = []
        counting = ring._replace(product=lambda j, k: calls.append(1) or ring.product(j, k))
        assert _graded_lengths(counting, ideal, caps) == {q: length(q) for q in caps}
        assert len(calls) <= bound

    @pytest.mark.parametrize("ring, ideal, big", [
        (_orbit_ring(2), ((0, 1),), parameter_ideal((1, 1))),  # (x, y) on orbits
        (_polynomial_ring(2), parameter_ideal((2, 3)), parameter_ideal((2, 3))),
    ])
    def test_truncation_below_q_is_found_on_a_tie(self, ring, ideal, big):
        # in two variables I^[q] I^t = I^(q+t) from t = q - 1, where the head's
        # colength ties and the product is taken: cap q - 2 holds, q - 3 raises
        for q in range(2, 7):
            with pytest.raises(StabilizationNotReached):
                _graded_lengths(ring, ideal, {q: q - 3})
            window = graded_length_by_window(big, q, MonomialIdeal.colength, q + 1)
            assert _graded_lengths(ring, ideal, {q: q - 2}) == {q: window}

    def test_plane_truncation_below_q_is_found_on_a_tie(self):
        # m^[q] m^t = m^(q+t) at t = 3 < 4 and t = 5 < 8 for a = 7
        ring, ideal, first = self.CASES["hypersurface"]
        for q, t in first.items():
            assert t < q
            window = graded_length_by_window(
                PLANE_MAXIMAL, q, lambda big: quotient_colength(7, big), t + 1
            )
            assert _graded_lengths(ring, ideal, {q: t - 1}) == {q: window}

    @pytest.mark.parametrize("exps", [(1, 1), (2, 3), (1, 1, 1), (1, 2, 2)])
    def test_monomial_matches_fixed_window(self, exps):
        ideal = parameter_ideal(exps)
        for s in range(1, 5):
            window = (len(exps) - 1) * s + 2  # tail pieces t = 0 .. cap + 1
            expected = graded_length_by_window(ideal, s, MonomialIdeal.colength, window)
            assert rees_colength_monomial(ideal, [s])[s] == expected, s

    @pytest.mark.parametrize("gens", [
        [(1, 0), (0, 1)],  # (x, y)
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],  # (x, y, z)
        [(2, 0), (1, 1), (0, 2)],  # (x^2, xy, y^2), symmetric, on the orbit ring
        [(2, 0), (1, 1), (0, 3)],  # (x^2, xy, y^3), not symmetric, on the walk
        [(2,)],  # (x^2) in one variable: the length is 2 s^2
    ])
    def test_m_primary_ideal_matches_fixed_window(self, gens):
        # the oracle takes any m-primary ideal; the window runs past its tail cap
        ideal = minimalize(gens)
        ss = range(1, 6)
        window = {s: ideal.ambient_dim * s + 2 for s in ss}
        expected = {
            s: graded_length_by_window(ideal, s, MonomialIdeal.colength, window[s]) for s in ss
        }
        assert rees_colength_monomial(ideal, ss) == expected

    @pytest.mark.parametrize("gens", [
        [(1, 1, 1)],  # (xyz), symmetric: the orbit ring has no tail to count
        [(1, 1, 0), (1, 0, 1), (0, 1, 1)],  # (xy, yz, xz), symmetric
        [(2, 0, 0), (0, 2, 0)],  # (x^2, y^2) in three variables, on the walk
    ])
    def test_ideal_that_is_not_m_primary_is_refused(self, gens):
        # both paths refuse it before the sum, with the colength's message
        with pytest.raises(InfiniteColength, match="^no pure power of every variable in "):
            rees_colength_monomial(minimalize(gens), [1, 2])

    @pytest.mark.parametrize("a", range(2, 9))
    def test_rees_of_m_matches_fixed_window(self, a):
        # the reference multiplies unreduced powers of m; every q <= 4 a, and
        # the powers of p = 2, 3, 5 up to 128
        qs = sorted({*range(1, 4 * a + 1), *(p**e for p, top in PRIME_POWERS for e in top)})
        for q in qs:
            expected = graded_length_by_window(
                PLANE_MAXIMAL, q, lambda ideal: quotient_colength(a, ideal), 2 * a + 2
            )
            assert rees_colength_dim1(a, "rees-of-m", [q])[q] == expected, q

    # (ring, ideal, the q of the sweep); (x^2, xy, y^2) and (x^2, y^3, z^2, xyz) are
    # not parameter ideals
    STOPS = {
        "orbit": (_orbit_ring(3), ((0, 0, 1),), range(1, 7)),
        "orbit-non-parameter": (_orbit_ring(2), ((0, 2), (1, 1)), range(1, 7)),
        "walk": (
            _polynomial_ring(3), minimalize([(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)]),
            range(1, 5),
        ),
        "plane": (_plane_ring(5), (1, 0, 0, 0, 0), range(1, 16)),
    }

    @pytest.mark.parametrize("case", sorted(STOPS))
    def test_every_detected_stop_is_the_equality(self, case):
        # the sum stops below t = q on a colength tie, with no product; here the
        # explicit product I^[q] I^t is formed at the first tie and must equal I^(q+t)
        ring, ideal, qs = self.STOPS[case]
        powers = [ring.unit]  # I^n

        def power_of(n):
            while len(powers) <= n:
                powers.append(ring.product(powers[-1], ideal))
            return powers[n]

        for q in qs:
            frob = ring.frobenius(ideal, q)
            length = sum(ring.colength(ring.product(frob, power_of(n)))
                         - ring.colength(power_of(n)) for n in range(q))
            t = 0
            while (ring.colength(piece := ring.product(frob, power_of(t)))
                   != ring.colength(power_of(q + t))):
                length += ring.colength(piece) - ring.colength(power_of(q + t))
                t += 1
            assert piece == power_of(q + t), (q, t)
            # the sum stops at that t: under the cap t - 1 it holds, under t - 2 it raises
            assert _graded_lengths(ring, ideal, {q: max(t - 1, 0)}) == {q: length}
            if t >= 2:
                with pytest.raises(StabilizationNotReached):
                    _graded_lengths(ring, ideal, {q: t - 2})

    # (ring, ideal, caps with gaps in the unsorted order of class bases, the expanded
    # ideal and its colength for the reference).  In the orbit ring at d = 4 the tail
    # stops at t = 3 (q - 1): q = 5 advances at n = 10..16, taking I^(t+1) from q = 4,
    # which itself advances up to n = 12, at n = 10..13 and forming its own once q = 4
    # has closed; q = 7 advances from n = 14 with q = 5, not q = 6, open.  On the walk
    # at (1, 2, 3) q = 4 closes at n = 10, the step where q = 5 first advances, and the
    # plane ring's tails stop by t = q, before any power is handed down
    HANDOFFS = {
        "orbit": (
            _orbit_ring(4), ((0, 0, 0, 1),), {q: 3 * q for q in (7, 2, 4, 5)},
            parameter_ideal((1, 1, 1, 1)), MonomialIdeal.colength,
        ),
        "walk": (
            _polynomial_ring(3), parameter_ideal((1, 2, 3)), {q: 2 * q for q in (7, 2, 4, 5)},
            parameter_ideal((1, 2, 3)), MonomialIdeal.colength,
        ),
        "plane": (
            _plane_ring(7), (1, 0, 0, 0, 0, 0, 0), dict.fromkeys((7, 2, 4, 5), 14),
            PLANE_MAXIMAL, lambda big: quotient_colength(7, big),
        ),
    }

    @pytest.mark.parametrize("case", sorted(HANDOFFS))
    def test_next_tail_power_is_handed_down_from_q_minus_1(self, case):
        # a q whose tail advances takes I^(t+1) from q - 1's state as the step starts
        ring, ideal, caps, big, colength = self.HANDOFFS[case]
        swept = _graded_lengths(ring, ideal, caps)
        assert [*swept] == [*caps]
        for q, cap in caps.items():
            assert swept[q] == _graded_lengths(ring, ideal, {q: cap})[q], q
            assert swept[q] == graded_length_by_window(big, q, colength, cap + 2), q

    # (exponents, the sweep of s, the orbit ring's products); the graded sum formed 179
    # and 457 while it still formed I^[q] I^t on a colength tie below t = q, and 134 at
    # (1, 1, 1) while each q formed its own next tail power
    @pytest.mark.parametrize("exps, ss, products", [
        ((1, 1, 1), range(1, 10), 119),
        ((1, 1), range(2, 21), 248),
    ])
    def test_orbit_products_are_pinned(self, exps, ss, products):
        d = len(exps)
        ring, calls = _orbit_ring(d), []
        counting = ring._replace(product=lambda j, k: calls.append(1) or ring.product(j, k))
        caps = {s: (d - 1) * s for s in ss}
        sweep = _graded_lengths(counting, ((0,) * (d - 1) + (1,),), caps)
        assert sweep == {s: cm_sop_hk(d, 1, s) for s in ss}
        assert len(calls) == products

    @pytest.mark.parametrize("exps, ss, products", [
        ((1, 1, 1), range(1, 10), 119),
        ((1, 1), range(2, 21), 248),
    ])
    def test_orbit_products_multiply_by_a_pure_power(self, exps, ss, products, monkeypatch):
        # with I = m one side of every product is m or m^[q], one pure power: no product
        # expands the other side's orbits, and no minimalising reaches the bitset masks,
        # whose only use of `and_` is their AND
        expanded, masked, orbits, and_ = [], [], rees_oracle._orbits, monomial_algebra.and_
        monkeypatch.setattr(rees_oracle, "_orbits", lambda reps: expanded.append(1) or orbits(reps))
        monkeypatch.setattr(monomial_algebra, "and_", lambda a, b: masked.append(1) or and_(a, b))
        d = len(exps)
        ring, general = _orbit_ring(d), []

        def product(j, k):
            before = len(expanded)
            result = ring.product(j, k)
            general.append(len(expanded) - before)
            return result

        caps = {s: (d - 1) * s for s in ss}
        sweep = _graded_lengths(ring._replace(product=product), ((0,) * (d - 1) + (1,),), caps)
        assert sweep == {s: cm_sop_hk(d, 1, s) for s in ss}
        assert (len(general), sum(general), len(masked)) == (products, 0, 0)

    def test_walk_product_pairs_do_not_rise(self, monkeypatch):
        # generator pairs over every MonomialIdeal product of a sweep on the walk; the
        # sum formed 68108 while it still formed I^[q] I^t on a tie below t = q, and
        # 64808 while each q formed its own next tail power
        product, pairs = MonomialIdeal.product, []

        def counting(self, other):
            pairs.append(len(self.gens) * len(other.gens))
            return product(self, other)

        monkeypatch.setattr(MonomialIdeal, "product", counting)
        ideal = minimalize([(2, 0, 0), (0, 3, 0), (0, 0, 2), (1, 1, 1)])
        assert rees_colength_monomial(ideal, range(1, 10)) == {
            1: 10, 2: 242, 3: 1267, 4: 4069, 5: 9984, 6: 20822, 7: 38616, 8: 66044, 9: 105889,
        }
        assert sum(pairs) <= 55848


def representatives(ideal):
    """The sorted exponents of each generator: the orbit ring's value."""
    return tuple(sorted({(*sorted(g),) for g in ideal.gens}))


def outcome(run):
    """What run() returns, or the type of the oracle refusal it raises."""
    try:
        return run()
    except (InfiniteColength, StabilizationNotReached) as exc:
        return type(exc)


@st.composite
def symmetric_ideals(draw, d):
    """An m-primary ideal invariant under every permutation of its d variables.

    Symmetrised from a few tuples and a pure power of x_1.  Returns its
    orbit ring value and the ideal itself.
    """
    gens = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), max_size=3))
    gens.append((draw(st.integers(1, 4)),) + (0,) * (d - 1))
    ideal = minimalize(_orbits(gens))
    return representatives(ideal), ideal


@st.composite
def symmetric_pairs(draw):
    d = draw(st.integers(2, 5))
    return d, draw(symmetric_ideals(d)), draw(symmetric_ideals(d))


@st.composite
def block_ideals(draw):
    """An ideal in d <= 5 variables invariant under permuting a block of 2..d of them.

    Symmetrised over the block from a few tuples and pure powers, so it
    need not be a parameter ideal; one time in four the pure powers of
    one variable's orbit are left out, so it need not be m-primary.
    Returns d and the ideal.
    """
    d = draw(st.integers(2, 5))
    block = draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=d, unique=True))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d), min_size=1, max_size=3))
    missing = draw(st.integers(0, 4 * d - 1))  # below d: that variable's orbit has no pure power
    lost = block if missing in block else [missing]
    gens += [(0,) * i + (draw(st.integers(1, 3)),) + (0,) * (d - 1 - i)
             for i in range(d) if i not in lost]
    symmetrised = set()
    for g in gens:
        for values in itertools.permutations([g[i] for i in block]):
            v = list(g)
            for i, e in zip(block, values):
                v[i] = e
            symmetrised.add(tuple(v))
    return d, minimalize(symmetrised)


@st.composite
def permuted_ideals(draw):
    """An m-primary ideal in d = 1..5 variables, closed under some drawn permutations.

    They are none, the swap of x_1 and x_2, the cycle of all d variables,
    both, or one other permutation, so the ideal may be fixed by every
    permutation, by the swap or the cycle alone, or by none but the identity.
    """
    d = draw(st.integers(1, 5))
    swap, cycle = (*range(1, -1, -1), *range(2, d))[-d:], (*range(1, d), 0)
    perms = draw(st.sampled_from([(), (swap,), (cycle,), (swap, cycle)])
                 | st.permutations(range(d)).map(lambda p: (tuple(p),)))
    # mixed monomials below every pure power, so that they stay minimal and dividing
    # the exponent gcds out rarely leaves (x_1, ..., x_d)
    mixed = st.tuples(*[st.integers(0, 2)] * d).filter(lambda t: d - t.count(0) >= min(d, 2))
    gens = set(draw(st.lists(mixed, min_size=1, max_size=3)))
    gens |= {(0,) * i + (draw(st.integers(3, 5)),) + (0,) * (d - 1 - i) for i in range(d)}
    while more := {(*(g[i] for i in p),) for g in gens for p in perms} - gens:
        gens |= more
    return minimalize(gens)


class TestSymmetricRing:
    """The orbit-representative ring against the polynomial ring on the expanded ideals."""

    @settings(max_examples=300, deadline=None)
    @given(permuted_ideals())
    # fixed by the cycle of x, y, z alone
    @example(minimalize([(3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 2, 0), (0, 1, 2), (2, 0, 1)]))
    # fixed by swapping x and y alone, once z's exponent gcd 3 is divided out
    @example(minimalize([(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 3)]))
    def test_orbit_ring_exactly_when_every_permutation_fixes_the_reduced_ideal(self, ideal):
        # brute force over every permutation of I', each exponent gcd divided out;
        # the unit ideal's gcds are 0, and it is its own I'
        cs = [gcd(*column) or 1 for column in zip(*ideal.gens)]
        reduced = minimalize([[e // c for e, c in zip(g, cs)] for g in ideal.gens])
        symmetric = minimalize(_orbits(representatives(reduced))) == reduced
        built, summed = [], []

        def graded(ring, ideal, caps):
            summed.append(ideal)
            return dict.fromkeys(caps, 0)

        with mock.patch.object(rees_oracle, "_orbit_ring", lambda d: built.append("orbit")), \
                mock.patch.object(rees_oracle, "_polynomial_ring", lambda d: built.append("walk")), \
                mock.patch.object(rees_oracle, "_graded_lengths", graded):
            rees_colength_monomial(ideal, [1])
        assert built == ["orbit" if symmetric else "walk"]
        assert summed == [representatives(reduced) if symmetric else reduced]

    @settings(max_examples=150, deadline=None)
    @given(symmetric_pairs(), st.integers(1, 40))
    def test_matches_polynomial_ring(self, case, q):
        d, (j, big_j), (k, big_k) = case
        ring, poly = _orbit_ring(d), _polynomial_ring(d)
        assert minimalize(_orbits(j)) == big_j
        product = representatives(poly.product(big_j, big_k))
        assert ring.product(j, k) == ring.product(k, j) == product
        assert ring.frobenius(j, q) == representatives(poly.frobenius(big_j, q))
        assert ring.colength(ring.frobenius(j, q)) == poly.colength(poly.frobenius(big_j, q))
        assert ring.colength(j) == poly.colength(big_j)
        assert ring.colength(ring.product(j, k)) == poly.colength(poly.product(big_j, big_k))
        if len(big_j.gens) <= 12:
            assert ring.colength(j) == colength_by_inclusion_exclusion(big_j)

    @pytest.mark.parametrize("d", range(2, 6))
    def test_unit(self, d):
        ring = _orbit_ring(d)
        maximal = representatives(parameter_ideal((1,) * d))
        assert minimalize(_orbits(ring.unit)) == MonomialIdeal.unit(d)
        assert ring.product(ring.unit, maximal) == ring.product(maximal, ring.unit) == maximal
        assert ring.frobenius(ring.unit, 3) == ring.unit
        assert ring.colength(ring.unit) == 0
        assert ring.colength(maximal) == 1

    @settings(max_examples=60, deadline=None)
    @given(block_ideals())
    # invariant under swapping y and z; its tail at s = 3 runs past t = (d - 1) s
    @example((3, minimalize([(0, 0, 4), (0, 4, 0), (1, 0, 3), (1, 3, 0), (4, 0, 0)])))
    def test_oracle_matches_walk_and_window(self, case):
        # the oracle, on the ring it picks, against the walk and the fixed window;
        # refusals must match too
        d, ideal = case
        ss = range(1, 4 if d <= 3 else 3)
        caps = {s: (d - 1) * s for s in ss}
        walk = outcome(lambda: _graded_lengths(_polynomial_ring(d), ideal, caps))
        assert outcome(lambda: rees_colength_monomial(ideal, ss)) == walk
        if walk not in (InfiniteColength, StabilizationNotReached):
            window = {s: graded_length_by_window(ideal, s, MonomialIdeal.colength, caps[s] + 2)
                      for s in ss}
            assert walk == window


@st.composite
def wide_symmetric_ideals(draw):
    """An m-primary ideal in d = 1..5 variables fixed by every permutation, and its orbit value.

    Its exponents reach 6 (4 for d > 3), so the tails take several cells.
    """
    d = draw(st.integers(1, 5))
    top = 6 if d <= 3 else 4
    gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * d), max_size=4))
    gens.append((draw(st.integers(1, top)),) + (0,) * (d - 1))
    ideal = minimalize(_orbits(gens))
    return d, representatives(ideal), ideal


class TestOrbitColength:
    """The orbit colength against the walk.

    Its one-variable tails keep their least exponent, and its two-variable tails key the
    memo with no minimalising.
    """

    @settings(max_examples=200, deadline=None)
    @given(wide_symmetric_ideals())
    def test_orbit_colength_matches_the_walk(self, case):
        d, reps, ideal = case
        assert _orbit_ring(d).colength(reps) == ideal.colength()


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
        ideal = parameter_ideal(exponents)
        sweep = rees_colength_monomial(ideal, ss)
        assert list(sweep) == ss
        assert sweep == {s: rees_colength_monomial(ideal, [s])[s] for s in ss}

    @settings(max_examples=40)
    @given(st.integers(2, 8), st.lists(st.integers(1, 128), min_size=1, max_size=8, unique=True))
    def test_rees_of_m_sweep_matches_single_values(self, a, qs):
        sweep = rees_colength_dim1(a, "rees-of-m", qs)
        assert list(sweep) == qs
        assert sweep == {q: rees_colength_dim1(a, "rees-of-m", [q])[q] for q in qs}

    # ring, ideal and tail cap per q: the caps that rees_colength_monomial
    # and rees_colength_dim1 give their sweeps
    RINGS = {
        "polynomial": (_polynomial_ring(3), parameter_ideal((1, 2, 3)), lambda q: 2 * q),
        "symmetric": (_orbit_ring(4), ((0, 0, 0, 2),), lambda q: 3 * q),
        "plane": (_plane_ring(5), (1, 0, 0, 0, 0), lambda q: 10),
    }

    @pytest.mark.parametrize("name", sorted(RINGS))
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    def test_ring_sweep_matches_single_values(self, name, qs):
        # each ring straight through _graded_lengths, not through an oracle
        ring, ideal, cap = self.RINGS[name]
        caps = {q: cap(q) for q in qs}
        sweep = _graded_lengths(ring, ideal, caps)
        assert list(sweep) == qs
        assert sweep == {q: _graded_lengths(ring, ideal, {q: caps[q]})[q] for q in qs}

    def test_rees_of_x_sweep(self):
        assert rees_colength_dim1(5, "rees-of-x", [64, 4, 16]) == {64: 20224, 4: 64, 16: 1216}

    def test_colength_of_each_power_taken_once(self, monkeypatch):
        # one chain of powers serves every s: colength(I^n) is not recounted per s;
        # on the walk every colength is a MonomialIdeal's.  Straight through
        # _graded_lengths, as the oracle would divide (1, 1, 2) down to (1, 1, 1)
        colength, calls = MonomialIdeal.colength, []

        def counting(self, *args, **kwargs):
            calls.append(self)
            return colength(self, *args, **kwargs)

        monkeypatch.setattr(MonomialIdeal, "colength", counting)
        caps = {s: 2 * s for s in range(1, 10)}
        sweep = _graded_lengths(_polynomial_ring(3), parameter_ideal((1, 1, 2)), caps)
        assert sweep == {s: cm_sop_hk(3, 2, s) for s in caps}
        assert len(calls) <= 100  # one call per s made 190; the sweep makes 99

    def test_symmetric_colength_of_each_power_taken_once(self, monkeypatch):
        # the same count on the orbit ring, where MonomialIdeal only sees the
        # two-variable tails of the recursion
        make, calls = rees_oracle._orbit_ring, []

        def counting(d):
            ring = make(d)
            return ring._replace(colength=lambda reps: calls.append(reps) or ring.colength(reps))

        monkeypatch.setattr(rees_oracle, "_orbit_ring", counting)
        sweep = rees_colength_monomial(parameter_ideal((1, 1, 1)), range(1, 10))
        assert sweep == {s: cm_sop_hk(3, 1, s) for s in range(1, 10)}
        assert len(calls) <= 100  # one call per s made 190

    def test_symmetric_work_does_not_grow_with_the_exponents(self, monkeypatch):
        # the orbit colength counts by the cells between exponents, not by each
        # value below them, so (300, 300, 300) takes the steps of (2, 2, 2).  Straight
        # through _graded_lengths, as the oracle would divide the exponent out first;
        # (1, 1, 1) is m, whose sum steps its colengths and counts fewer
        minimal_vectors, calls = rees_oracle._minimal_vectors, []

        def counting(vectors):
            calls.append(None)
            return minimal_vectors(vectors)

        monkeypatch.setattr(rees_oracle, "_minimal_vectors", counting)
        steps, caps = {}, {s: 2 * s for s in range(1, 10)}
        for a in (1, 2, 300):
            calls.clear()
            sweep = _graded_lengths(_orbit_ring(3), ((0, 0, a),), caps)
            assert sweep == {s: cm_sop_hk(3, a**3, s) for s in caps}
            steps[a] = len(calls)
        assert steps[300] == steps[2]
        assert steps[1] <= steps[2]

    @pytest.mark.parametrize("oracle, inst, name", [
        (rees_colength_monomial, (parameter_ideal((1, 1)),), "s"),
        (rees_colength_dim1, (5, "rees-of-m"), "q"),
        (rees_colength_dim1, (5, "rees-of-x"), "q"),
        (alpha_table, (5, 1), "q"),
    ])
    def test_sweep_checked_at_the_boundary(self, oracle, inst, name):
        with pytest.raises(ValueError, match=f"^the sweep of {name} is empty$"):
            oracle(*inst, [])
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            oracle(*inst, [3, 0, 2])
        # the check stops at the first bad value, so a long range is not listed
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            oracle(*inst, range(-1, 10**12))


class TestAlphaTable:
    def test_known_values(self):
        table = alpha_table(5, 3, [2**e for e in range(2, 9)])
        assert table[0][4] == -4 and table[0][8] == -6
        assert table[1][8] == -5 and table[1][16] == -3
        assert table[2][4] == -2 and table[2][32] == -3
        assert set(table[3].values()) == {-1}

    def test_period_two_from_e_two(self):
        table = alpha_table(5, 3, [2**e for e in range(2, 9)])
        for n in range(4):
            for e in range(2, 7):
                assert table[n][2**e] == table[n][2 ** (e + 2)]

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("a", range(2, 9))
    def test_rows_match_unreduced_powers(self, a, p):
        # every row against m^[q] m^n and m^n built as plain products: every
        # q <= 4 a, and the powers of p up to 64 or 81
        qs = sorted({*range(1, 4 * a + 1), *(p**e for e in range(1, {2: 7, 3: 5}[p]))})
        table = alpha_table(a, 2 * a, qs)
        for n, row in table.items():
            base = quotient_colength(a, power(PLANE_MAXIMAL, n))
            for q in qs:
                frob = PLANE_MAXIMAL.frobenius(q)
                piece = quotient_colength(a, frob.product(power(PLANE_MAXIMAL, n)))
                assert row[q] == piece - base - a * q, (n, q)

    @pytest.mark.parametrize("a", [0, 1])
    def test_exponent_below_two_refused(self, a):
        with pytest.raises(ValueError, match="^hypersurface exponent must be at least 2$"):
            alpha_table(a, 1, [4, 8])

    def test_negative_e_refused_on_the_formula_side(self):
        # both sides of compare dim1 refuse a q below 1, and the formula an e below 0
        with pytest.raises(ValueError, match="^q must be positive$"):
            alpha_table(5, 0, [0])
        qp = sop_dim1_hk(5, (-4, -6))
        assert qp.poly_for(0)(1) == 1  # 5 q^2 - 4 q at q = 1
        assert alpha_table(5, 0, [1]) == {0: {1: -4}}  # len(R / m^[1]) - 5 = 1 - 5
        message = r"^e must be nonnegative, so that q = p\^e is an integer$"
        with pytest.raises(ValueError, match=message):
            qp.poly_for(-1)

    def test_validation(self):
        with pytest.raises(ValueError, match="^n_max must be nonnegative$"):
            alpha_table(5, -1, [4, 8])
        with pytest.raises(ValueError, match="^the sweep of q is empty$"):
            alpha_table(5, 1, [])


class TestFitQuasiPolynomial:
    def fermat_x_samples(self, hi):
        lengths = rees_colength_dim1(5, "rees-of-x", [2**e for e in range(2, hi + 1)])
        return {e: lengths[2**e] for e in range(2, hi + 1)}

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

    def test_mixed_degree_classes_rejected(self):
        # even e fit 4^e = q^2 and odd e fit 2^e = q: one quasi-polynomial has one degree
        values = {e: 4**e if e % 2 == 0 else 2**e for e in range(6)}
        with pytest.raises(
            InconsistentSamples, match="^residue classes fit polynomials of mixed degree$"
        ):
            fit_quasi_polynomial(values, 2, degree=2, period=2, holdout=0)

    def test_corrupted_sample_rejected(self):
        values = self.fermat_x_samples(9)
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
        samples = self.fermat_x_samples(8)
        with pytest.raises(ValueError, match="^the degree must be nonnegative, got -1$"):
            fit_quasi_polynomial(samples, 2, degree=-1, period=2)
        period = "^a periodic value needs a period of at least 1, got 0$"
        with pytest.raises(ValueError, match=period):
            fit_quasi_polynomial(samples, 2, degree=2, period=0)
        with pytest.raises(ValueError, match="^the holdout must be nonnegative, got -1$"):
            fit_quasi_polynomial(samples, 2, degree=2, period=2, holdout=-1)


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

    def test_formula_sweep_d4(self):
        from fractions import Fraction

        values = {s: cm_sop_hk(4, 1, s) for s in range(4, 12)}
        estimate = estimate_ehk(values, 4)
        assert estimate == Fraction(61, 30)
        assert compare_to_eto_yoshida(estimate, 4, 1) == "equal"

    def test_oracle_sweep(self):
        from fractions import Fraction

        ideal = parameter_ideal((1, 1))
        values = {s: rees_colength_monomial(ideal, [s])[s] for s in range(2, 8)}
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
