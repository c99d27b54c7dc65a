"""Hilbert-Samuel functions of parameter ideals in Cohen-Macaulay rings.

For a parameter ideal I in a d-dimensional CM local ring with
multiplicity e0 = e_0(I):

    H(n)    = e0 * C(n+d-1, d)    = length of R / I^n          (n >= 1)
    F(s, n) = length of I^[s] / I^[s] I^n

F is evaluated through the refined piecewise closed form, whose third
branch starts at n = s(d-1)-d+1.  The original split, the middle-branch
sum on the boundary window, the reduction numbers of powers and the
large-s coefficients cross-check it from `tests/reference.py`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .combinatorics import binomial


@dataclass(frozen=True)
class HilbertContext:
    """Ring dimension d and multiplicity e0 of the parameter ideal."""

    d: int
    e0: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be at least 1")
        if self.e0 < 1:
            raise ValueError("e0 must be positive")


def hilbert_H(ctx: HilbertContext, n: int) -> int:
    """e0 * C(n+d-1, d); zero for n <= 0."""
    if n <= 0:
        return 0
    return ctx.e0 * binomial(n + ctx.d - 1, ctx.d)


def hilbert_F(ctx: HilbertContext, s: int, n: int) -> int:
    """F(s, n) by the refined case split.

        d * H(n)                                     1 <= n <= s
        sum_{i=1}^{d-1} (-1)^(i+1) C(d,i) H(n-(i-1)s)    s+1 <= n <= s(d-1)-d
        H(n+s) - s^d * e0                            n >= s(d-1)-d+1

    Terms H(m) with m <= 0 vanish, which makes the middle sum safe.
    """
    if ctx.d < 2:
        raise ValueError("F(s, n) requires dimension d >= 2")
    if s < 1:
        raise ValueError("s must be positive")
    if n <= 0:
        return 0
    d = ctx.d
    if n <= s:
        return d * hilbert_H(ctx, n)
    if n <= s * (d - 1) - d:
        return sum(
            (-1) ** (i + 1) * binomial(d, i) * hilbert_H(ctx, n - (i - 1) * s)
            for i in range(1, d)
        )
    return hilbert_H(ctx, n + s) - s**d * ctx.e0


def c_of_d(d: int) -> Fraction:
    """The constant c(d) = d/2 + d/(d+1)!."""
    if d < 1:
        raise ValueError("d must be positive")
    return Fraction(d, 2) + Fraction(d, factorial(d + 1))

