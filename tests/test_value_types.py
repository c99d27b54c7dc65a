"""The package's value types: immutable, equal by value, and checked when built.

Each validated type is a NamedTuple of its fields under a subclass whose
`__new__` checks or normalises them, so building one is the only way
in; `_replace` and `_make` would skip that `__new__`, and the package
calls neither.
"""
import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest

from reeshk import cli
from reeshk.binomial_groebner import buchberger
from reeshk.hk_formulas import Dim1Input, QuasiPolynomialHK, cordim1_hk
from reeshk.monomial_algebra import MonomialIdeal
from reeshk.polynomials import Poly

SRC = Path(__file__).resolve().parents[1] / "src" / "reeshk"

FERMAT5 = cli.FERMAT5._asdict()  # a valid input, field by field

# each type: a way to build a value, one of its fields, and a different value
VALUES = {
    "MonomialIdeal": (
        lambda: MonomialIdeal(((0, 2), (1, 0))), "gens", MonomialIdeal(((0, 1), (1, 0)))
    ),
    "Poly": (lambda: Poly([1, 2]), "coeffs", Poly([1, 3])),
    "QuasiPolynomialHK": (
        lambda: QuasiPolynomialHK((Poly([0, 1]), Poly([2, 1]))), "polys",
        QuasiPolynomialHK((Poly([0, 1]), Poly([2, 1])), valid_from_e=1),
    ),
    "Dim1Input": (lambda: Dim1Input(**FERMAT5), "rho", Dim1Input(**{**FERMAT5, "rho": 3})),
    "GroebnerBasisBM": (lambda: buchberger(2, [(1, 1)]), "monomials", buchberger(3, [(1, 1)])),
}


@pytest.mark.parametrize("make, field, other", VALUES.values(), ids=VALUES)
class TestValueSemantics:
    def test_fields_cannot_be_assigned(self, make, field, other):
        value = make()
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_equal_values_compare_and_hash_equal(self, make, field, other):
        value, twin = make(), make()
        assert value is not twin
        assert value == twin and hash(value) == hash(twin)
        assert value != other


def refuses(message, build):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


SHAPE = "need one or more generators, all with the same positive number of exponents"


@pytest.mark.parametrize("gens", [(), ((),), ((1, 0), (0,))], ids=["none", "length-0", "mixed"])
def test_monomial_ideal_refuses_its_shape(gens):
    refuses(SHAPE, lambda: MonomialIdeal(gens))


def test_quasi_polynomial_refusals():
    refuses("a periodic value needs a period of at least 1, got 0", lambda: QuasiPolynomialHK(()))
    refuses(
        "residue-class polynomials have mixed degrees {1, 2}",
        lambda: QuasiPolynomialHK((Poly([0, 0, 1]), Poly([0, 1]))),
    )


@pytest.mark.parametrize("change, message", [
    ({"e0": 0}, "e0 must be positive"),
    ({"r": -1, "alpha": (), "lengths": ()}, "reduction number must be nonnegative"),
    ({"alpha": ((1,),) * 3}, "need exactly r=4 alpha sequences, got 3"),
    ({"alpha": ((1,), (1,), (), (1,))}, "a periodic value needs a period of at least 1, got 0"),
    ({"lengths": (0, 1, 3)}, "need lengths for n = 0..3, got 3"),
    ({"rho": 5, "lengths": (0, 1, 3, 6, 8)}, "need lengths for n = 0..5, got 5"),
    ({"lengths": (1, 1, 3, 6)}, "lengths[0] is the length of R/R and must be 0"),
    ({"lengths": (0, 3, 1, 6)}, "lengths must be nondecreasing"),
], ids=["e0", "r", "alpha-count", "alpha-period", "lengths-r", "lengths-rho", "lengths-0",
        "lengths-order"])
def test_dim1_input_refusals(change, message):
    refuses(message, lambda: Dim1Input(**{**FERMAT5, **change}))
    Dim1Input(**FERMAT5)  # the unchanged input is accepted


def test_poly_drops_trailing_zeros_and_keeps_fractions():
    assert Poly([1, 0, 0]) == Poly([1])
    assert Poly([1, 0, 0]).coeffs == (Fraction(1),)
    assert all(type(c) is Fraction for c in Poly([1, Fraction(1, 2), 3]).coeffs)
    assert Poly([0, 0]) == Poly() and Poly().degree == -1


# a Poly is a tuple, whose + concatenates and * repeats; Poly refuses both
@pytest.mark.parametrize("combine", [
    lambda: Poly([1, 2]) + Poly([3]),
    lambda: Poly([1]) * Poly([1]),
    lambda: Poly([1]) * 2,
    lambda: 2 * Poly([1]),
], ids=["add", "mul", "mul-scalar", "rmul-scalar"])
def test_poly_has_no_arithmetic(combine):
    with pytest.raises(TypeError):
        combine()


def test_zero_poly_formats_as_zero():
    assert Poly().format() == "0"


def test_cordim1_still_refuses_an_explicit_rho():
    refuses(
        "rho must be omitted; it is forced to r - 1 here",
        lambda: cordim1_hk(Dim1Input(**{**FERMAT5, "rho": 3})),
    )


def test_package_neither_replaces_nor_makes():
    called = {
        (path.name, node.lineno)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("_replace", "_make")
    }
    assert called == set()
