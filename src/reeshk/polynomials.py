"""Exact univariate polynomials over the rationals.

Coefficients are ``fractions.Fraction``; there is no floating point
anywhere in this package.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]


# a NamedTuple body may not define __new__, so the subclass below checks the
# fields; its empty __slots__ leaves no __dict__, so no attribute can be set
class _PolyFields(NamedTuple):
    coeffs: tuple[Fraction, ...]


class Poly(_PolyFields):
    """Immutable polynomial, coefficients stored lowest degree first."""

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[Scalar] = ()) -> "Poly":
        # given as any iterable of scalars; kept as Fractions without trailing zeros
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return super().__new__(cls, tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # as a tuple, a Poly would concatenate under + and repeat under *; set to None,
    # each raises TypeError instead, and the package does no polynomial arithmetic
    __add__ = __mul__ = __rmul__ = None

    def format(self) -> str:
        """Human-readable form in q, highest degree first, e.g. '5*q^2 - 10'."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if k == 0:
                body = str(mag)
            else:
                v = "q" if k == 1 else f"q^{k}"
                body = v if mag == 1 else f"{mag}*{v}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def interpolate(points: Sequence[tuple[Scalar, Scalar]]) -> Poly:
    """Newton's divided differences through distinct points, exact arithmetic."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct abscissae")
    cs = [Fraction(y) for _, y in points]
    for k in range(1, len(xs)):  # from the top down, cs[i] becomes f[x_(i-k), ..., x_i]
        for i in range(len(xs) - 1, k - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - k])
    acc: list[Fraction] = []  # Horner on the Newton form, innermost first: acc (q - x_i) + c_i
    for c, x in zip(reversed(cs), reversed(xs)):
        acc = [a - x * b for a, b in zip([c, *acc], [*acc, 0])]
    return Poly(acc)
