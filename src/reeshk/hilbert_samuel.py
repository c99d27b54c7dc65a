"""Hilbert-Samuel functions of parameter ideals in Cohen-Macaulay rings.

For a parameter ideal I in a d-dimensional CM local ring with
multiplicity e0 = e_0(I):

    H(n)    = e0 * C(n+d-1, d)    = length of R / I^n          (n >= 1)
    F(s, n) = length of I^[s] / I^[s] I^n

Both functions take d and e0 as plain integers, as `cm_sop_hk` does,
and check them.  F is evaluated through the refined piecewise closed
form, whose last branch starts at n = s(d-1)-d+1.  The original
split, the middle-branch sum on the boundary window, the reduction
numbers of powers and the large-s coefficients cross-check it from
`tests/reference.py`.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial

from .combinatorics import binomial


def hilbert_H(d: int, e0: int, n: int) -> int:
    """e0 * C(n+d-1, d); zero for n <= 0."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if e0 < 1:
        raise ValueError("e0 must be positive")
    if n <= 0:
        return 0
    return e0 * binomial(n + d - 1, d)


def hilbert_F(d: int, e0: int, s: int, n: int) -> int:
    """F(s, n) by the refined case split.

        sum_{i=1}^{d-1} (-1)^(i+1) C(d,i) H(n-(i-1)s)    1 <= n <= s(d-1)-d
        H(n+s) - s^d * e0                            n >= s(d-1)-d+1

    Terms H(m) with m <= 0 vanish, so for n <= s the sum is d * H(n).
    """
    if d < 2:
        raise ValueError("F(s, n) requires dimension d >= 2")
    if e0 < 1:
        raise ValueError("e0 must be positive")
    if s < 1:
        raise ValueError("s must be positive")
    if n <= 0:
        return 0
    if n <= s * (d - 1) - d:
        return sum(
            (-1) ** (i + 1) * binomial(d, i) * hilbert_H(d, e0, n - (i - 1) * s)
            for i in range(1, d)
        )
    return hilbert_H(d, e0, n + s) - s**d * e0


def c_of_d(d: int) -> Fraction:
    """The constant c(d) = d/2 + d/(d+1)!."""
    if d < 1:
        raise ValueError("d must be positive")
    return Fraction(d, 2) + Fraction(d, factorial(d + 1))

