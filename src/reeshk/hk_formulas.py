"""Closed-form Hilbert-Kunz functions of Rees algebra ideals.

Covers three regimes:

* dimension 1, ideal (I, It): quasi-polynomial in e with leading term
  e0 * q^2, assembled from the ring invariants (e0, e1, r, rho), the
  length table of small powers and the periodic corrections alpha;
* dimension 1, (J, It) with I a parameter ideal: q^2 e0(J) + q alpha_J(e);
* dimension d >= 2, parameter ideal, (I, It): an exact piecewise
  polynomial in s, one alternating-sum display whose terms follow
  the division d = k1 s + k2.

For a parameter ideal with multiplicity e0 in a d-dimensional CM ring,
H(n) = e0 C(n+d-1, d) is the length of R/I^n and F(s, n) that of
I^[s]/I^[s] I^n, by the refined split whose last branch starts at
n = s(d-1)-d+1.  `binomial` vanishes out of range, as these sums need.

A periodic correction alpha is a plain tuple of its values over one
period, read at index e mod its length.  A rule that several inputs
share is raised from one `check_*` function, and every rule that refuses
a value from outside the package raises `InvalidInput`.

All outputs are exact; multiplicities are rationals, lengths integers.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .polynomials import Poly


class InvalidInput(ValueError):
    """A value from outside the package breaks an input rule; `hk` exits 2 on it."""


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def check_prime(p: int) -> None:
    if not _is_prime(p):
        raise InvalidInput(f"p = {p} is not prime")


def check_invariants(d: int, least: int, e0: int = 1, s: int = 1) -> None:
    """Refuse a dimension d below `least`, and a multiplicity e0 or an s below 1."""
    if d < least:
        raise InvalidInput(f"d must be at least {least}")
    check_positive(e0, "e0")
    check_positive(s, "s")


def check_positive(value: int, name: str) -> None:
    if value < 1:
        raise InvalidInput(f"{name} must be positive")


def check_e(e: int) -> None:
    if e < 0:
        raise InvalidInput("e must be nonnegative, so that q = p^e is an integer")


def check_period(period: int) -> None:
    if period < 1:
        raise InvalidInput(f"a periodic value needs a period of at least 1, got {period}")


def binomial(n: int, k: int) -> int:
    """C(n, k) with the vanishing convention C(n, k) = 0 for n < k or n < 0.

    The length formulas downstream rely on out-of-range binomials
    silently vanishing, so the convention is centralized here.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n < 0:
        return 0
    return math.comb(n, k)


def hilbert_H(d: int, e0: int, n: int) -> int:
    """e0 * C(n+d-1, d); zero for n <= 0."""
    check_invariants(d, 1, e0)
    if n <= 0:
        return 0
    return e0 * binomial(n + d - 1, d)


def hilbert_F(d: int, e0: int, s: int, n: int) -> int:
    """F(s, n) by the refined case split.

        sum_{i=1}^{d-1} (-1)^(i+1) C(d,i) H(n-(i-1)s)    1 <= n <= s(d-1)-d
        H(n+s) - s^d * e0                            n >= s(d-1)-d+1

    Terms H(m) with m <= 0 vanish, so for n <= s the sum is d * H(n).
    """
    check_invariants(d, 2, e0, s)
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
    check_invariants(d, 1)
    return Fraction(d, 2) + Fraction(d, math.factorial(d + 1))


# a NamedTuple body may not define __new__, so the subclass below checks the
# fields; its empty __slots__ leaves no __dict__, so no attribute can be set
class _QuasiPolynomialFields(NamedTuple):
    polys: tuple[Poly, ...]
    valid_from_e: Optional[int]


class QuasiPolynomialHK(_QuasiPolynomialFields):
    """One exact polynomial in q per residue class of e modulo the period.

    It knows no characteristic: the caller maps e to q = p^e and evaluates
    ``poly_for(e)`` there.  ``valid_from_e`` is metadata: agreement with
    actual lengths is only asserted for e at or above that threshold (when
    known).
    """

    __slots__ = ()

    def __new__(
        cls, polys: tuple[Poly, ...], valid_from_e: Optional[int] = None
    ) -> "QuasiPolynomialHK":
        check_period(len(polys))
        degrees = {p.degree for p in polys}
        if len(degrees) != 1:
            raise ValueError(f"residue-class polynomials have mixed degrees {degrees}")
        return super().__new__(cls, polys, valid_from_e)

    @property
    def period(self) -> int:
        return len(self.polys)

    def poly_for(self, e: int) -> Poly:
        check_e(e)
        return self.polys[e % self.period]

    def format(self) -> list[str]:
        return [p.format() for p in self.polys]


class _Dim1Fields(NamedTuple):
    e0: int
    e1: int
    r: int
    rho: Optional[int]
    lengths: tuple[int, ...]
    alpha: tuple[tuple[int, ...], ...]


class Dim1Input(_Dim1Fields):
    """Invariants of an m-primary ideal of a 1-dimensional local ring.

    lengths[n] is the length of R/I^n for n = 0 .. max(r-1, rho);
    alpha[n] holds one period of the correction for I^n, n = 0 .. r-1.  rho may
    be omitted (None) when delegating to the Cohen-Macaulay case.
    """

    __slots__ = ()

    def __new__(
        cls, e0: int, e1: int, r: int, rho: Optional[int], lengths: tuple[int, ...],
        alpha: tuple[tuple[int, ...], ...],
    ) -> "Dim1Input":
        check_positive(e0, "e0")
        if r < 0:
            raise InvalidInput("reduction number must be nonnegative")
        if len(alpha) != r:
            raise InvalidInput(f"need exactly r={r} alpha sequences, got {len(alpha)}")
        for seq in alpha:
            check_period(len(seq))
        needed = max(r - 1, rho if rho is not None else -1) + 1
        if len(lengths) < needed:
            raise InvalidInput(f"need lengths for n = 0..{needed - 1}, got {len(lengths)}")
        if lengths:
            if lengths[0] != 0:
                raise InvalidInput("lengths[0] is the length of R/R and must be 0")
            if any(a > b for a, b in zip(lengths, lengths[1:])):
                raise InvalidInput("lengths must be nondecreasing")
        return super().__new__(cls, e0, e1, r, rho, lengths, alpha)


def dim1_hk(inp: Dim1Input) -> QuasiPolynomialHK:
    """Quasi-polynomial for the length of R(I)/(I, It)^[q], large e.

    The constant part, for the reduction number r and the postulation
    number rho, is

        -e0 (r(r-1) - rho(rho+1)/2) + (2r-rho-1) e1 + beta

    with beta = sum_{n<r} len(n) - sum_{n=r}^{rho} len(n); each residue
    class additionally picks up 2 * sum_{n<r} alpha_n(e).
    """
    if inp.rho is None:
        raise InvalidInput("rho is required; use cordim1_hk to default it")
    e0, e1, r = inp.e0, inp.e1, inp.r
    # the paper's case rho + 1 <= r, -e0 C(r,2) + e1 r + sum_{n<r} len(n), is this at rho = r-1
    rho = max(inp.rho, r - 1)
    beta = sum(inp.lengths[:r]) - sum(inp.lengths[r : rho + 1])
    base = -e0 * (r * (r - 1) - rho * (rho + 1) // 2) + (2 * r - rho - 1) * e1 + beta
    polys = []
    for residue in range(math.lcm(*map(len, inp.alpha))):
        const = base + 2 * sum(seq[residue % len(seq)] for seq in inp.alpha)
        polys.append(Poly([const, 0, e0]))
    return QuasiPolynomialHK(tuple(polys))


def cordim1_hk(inp: Dim1Input) -> QuasiPolynomialHK:
    """Cohen-Macaulay ring: the postulation number is r - 1, always case one."""
    if inp.rho is not None:
        raise InvalidInput("rho must be omitted; it is forced to r - 1 here")
    e0, e1, r, _, lengths, alpha = inp
    return dim1_hk(Dim1Input(e0, e1, r, r - 1, lengths, alpha))


def sop_dim1_hk(e0J: int, alphaJ: tuple[int, ...]) -> QuasiPolynomialHK:
    """Length of R(I)/(J, It)^[q] for parameter I: q^2 e0(J) + q alpha_J(e)."""
    check_positive(e0J, "e0")
    check_period(len(alphaJ))
    return QuasiPolynomialHK(tuple(Poly([0, a, e0J]) for a in alphaJ))


def cm_sop_hk(d: int, e0: int, s: int) -> int:
    """Length of R(I)/(I, It)^[s] for a parameter ideal, exact at every s >= 1.

    Write d = k1 s + k2 (0 <= k2 < s) and let off = 1 when k2 = 0, else 0:

        e0 [ (d-k1+off) s^(d+1) + d C(s+d-1, d+1)
             - sum_{i=0}^{d-1} (-1)^i C(d,i) C((d-i-k1+off)s + d-1, d+1) ]

    For s >= d this is the polynomial
    e0 [ d s^(d+1)/2 - s^d (d-2)/2 + d C(s+d-1, d+1) ].
    """
    check_invariants(d, 2, e0, s)
    k1, k2 = divmod(d, s)
    off = 1 if k2 == 0 else 0
    total = (d - k1 + off) * s ** (d + 1) + d * binomial(s + d - 1, d + 1)
    for i in range(d):
        total -= (-1) ** i * binomial(d, i) * binomial((d - i - k1 + off) * s + d - 1, d + 1)
    return e0 * total


def ehk_cm_sop(d: int, e0: int) -> Fraction:
    """Generalized Hilbert-Kunz multiplicity of (I, It)R(I): c(d) e0."""
    check_invariants(d, 1, e0)
    return c_of_d(d) * e0


def compare_to_eto_yoshida(value: Fraction, d: int, e0: int) -> str:
    """Classify a computed multiplicity against the Eto-Yoshida bound c(d) e0.

    Returns 'equal', 'below' or 'violation'.
    """
    bound = ehk_cm_sop(d, e0)
    if value == bound:
        return "equal"
    if value < bound:
        return "below"
    return "violation"


def stanley_reisner_ehk(d: int, facets: int) -> Fraction:
    """Multiplicity of the Rees algebra of the irrelevant maximal ideal: c(d) f_{d-1}."""
    check_invariants(d, 2)
    if facets < 1:
        raise InvalidInput("facet count must be positive")
    return c_of_d(d) * facets
