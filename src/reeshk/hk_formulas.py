"""Closed-form Hilbert-Kunz functions of Rees algebra ideals.

Covers three regimes:

* dimension 1, ideal (I, It): quasi-polynomial in e with leading term
  e0 * q^2, assembled from the ring invariants (e0, e1, r, rho), the
  length table of small powers and the periodic corrections alpha;
* dimension 1, (J, It) with I a parameter ideal: q^2 e0(J) + q alpha_J(e);
* dimension d >= 2, parameter ideal, (I, It): an exact piecewise
  polynomial in s, one alternating-sum display whose terms follow
  the division d = k1 s + k2.

A periodic correction alpha is a plain tuple of its values over one
period, read at index e mod its length.

All outputs are exact; multiplicities are rationals, lengths integers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .combinatorics import _is_prime, binomial
from .hilbert_samuel import c_of_d
from .polynomials import Poly

NEGATIVE_E = "e must be nonnegative, so that q = p^e is an integer"


@dataclass(frozen=True)
class QuasiPolynomialHK:
    """One exact polynomial in q per residue class of e modulo the period.

    ``valid_from_e`` is metadata: agreement with actual lengths is only
    asserted for e at or above that threshold (when known).
    """

    polys: tuple[Poly, ...]
    prime: int
    valid_from_e: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.polys:
            raise ValueError("period must be at least 1")
        degrees = {p.degree for p in self.polys}
        if len(degrees) != 1:
            raise ValueError(f"residue-class polynomials have mixed degrees {degrees}")

    @property
    def period(self) -> int:
        return len(self.polys)

    def poly_for(self, e: int) -> Poly:
        return self.polys[e % self.period]

    def value_at(self, e: int) -> int:
        """Evaluate at q = p^e."""
        if e < 0:
            raise ValueError(NEGATIVE_E)
        value = self.poly_for(e)(self.prime**e)
        if value.denominator != 1:
            raise ArithmeticError(f"non-integral length {value} at e={e}")
        return int(value)

    def format(self) -> list[str]:
        return [p.format() for p in self.polys]


@dataclass(frozen=True)
class Dim1Input:
    """Invariants of an m-primary ideal of a 1-dimensional local ring.

    lengths[n] is the length of R/I^n for n = 0 .. max(r-1, rho);
    alpha[n] holds one period of the correction for I^n, n = 0 .. r-1.  rho may
    be omitted (None) when delegating to the Cohen-Macaulay case.
    """

    e0: int
    e1: int
    r: int
    rho: Optional[int]
    lengths: tuple[int, ...]
    alpha: tuple[tuple[int, ...], ...]
    p: int

    def __post_init__(self) -> None:
        if self.e0 < 1:
            raise ValueError("e0 must be positive")
        if self.r < 0:
            raise ValueError("reduction number must be nonnegative")
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if len(self.alpha) != self.r:
            raise ValueError(f"need exactly r={self.r} alpha sequences, got {len(self.alpha)}")
        if not all(self.alpha):
            raise ValueError("each alpha sequence needs a period of at least 1")
        needed = max(self.r - 1, self.rho if self.rho is not None else -1) + 1
        if len(self.lengths) < needed:
            raise ValueError(f"need lengths for n = 0..{needed - 1}, got {len(self.lengths)}")
        if self.lengths:
            if self.lengths[0] != 0:
                raise ValueError("lengths[0] is the length of R/R and must be 0")
            if any(a > b for a, b in zip(self.lengths, self.lengths[1:])):
                raise ValueError("lengths must be nondecreasing")


def dim1_hk(inp: Dim1Input) -> QuasiPolynomialHK:
    """Quasi-polynomial for the length of R(I)/(I, It)^[q], large e.

    The constant part, for the reduction number r and the postulation
    number rho, is

        -e0 (r(r-1) - rho(rho+1)/2) + (2r-rho-1) e1 + beta

    with beta = sum_{n<r} len(n) - sum_{n=r}^{rho} len(n); each residue
    class additionally picks up 2 * sum_{n<r} alpha_n(e).
    """
    if inp.rho is None:
        raise ValueError("rho is required; use cordim1_hk to default it")
    e0, e1, r = inp.e0, inp.e1, inp.r
    # the paper's case rho + 1 <= r, -e0 C(r,2) + e1 r + sum_{n<r} len(n), is this at rho = r-1
    rho = max(inp.rho, r - 1)
    beta = sum(inp.lengths[:r]) - sum(inp.lengths[r : rho + 1])
    base = -e0 * (r * (r - 1) - rho * (rho + 1) // 2) + (2 * r - rho - 1) * e1 + beta
    polys = []
    for residue in range(math.lcm(*map(len, inp.alpha))):
        const = base + 2 * sum(seq[residue % len(seq)] for seq in inp.alpha)
        polys.append(Poly([const, 0, e0]))
    return QuasiPolynomialHK(tuple(polys), prime=inp.p)


def cordim1_hk(inp: Dim1Input) -> QuasiPolynomialHK:
    """Cohen-Macaulay ring: the postulation number is r - 1, always case one."""
    if inp.rho is not None:
        raise ValueError("rho must be omitted; it is forced to r - 1 here")
    return dim1_hk(replace(inp, rho=inp.r - 1))


def sop_dim1_hk(e0J: int, alphaJ: tuple[int, ...], p: int) -> QuasiPolynomialHK:
    """Length of R(I)/(J, It)^[q] for parameter I: q^2 e0(J) + q alpha_J(e)."""
    if e0J < 1:
        raise ValueError("e0J must be positive")
    if not alphaJ:
        raise ValueError("alpha needs a period of at least 1")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return QuasiPolynomialHK(tuple(Poly([0, a, e0J]) for a in alphaJ), prime=p)


def _validate_cm_args(d: int, e0: int, s: int) -> None:
    if d < 2:
        raise ValueError("d must be at least 2")
    if e0 < 1:
        raise ValueError("e0 must be positive")
    if s < 1:
        raise ValueError("s must be positive")


def cm_sop_hk(d: int, e0: int, s: int) -> int:
    """Length of R(I)/(I, It)^[s] for a parameter ideal, exact at every s >= 1.

    Write d = k1 s + k2 (0 <= k2 < s) and let off = 1 when k2 = 0, else 0:

        e0 [ (d-k1+off) s^(d+1) + d C(s+d-1, d+1)
             - sum_{i=0}^{d-1} (-1)^i C(d,i) C((d-i-k1+off)s + d-1, d+1) ]

    For s >= d this is the polynomial
    e0 [ d s^(d+1)/2 - s^d (d-2)/2 + d C(s+d-1, d+1) ].
    """
    _validate_cm_args(d, e0, s)
    k1, k2 = divmod(d, s)
    off = 1 if k2 == 0 else 0
    total = (d - k1 + off) * s ** (d + 1) + d * binomial(s + d - 1, d + 1)
    for i in range(d):
        total -= (-1) ** i * binomial(d, i) * binomial((d - i - k1 + off) * s + d - 1, d + 1)
    return e0 * total


def ehk_cm_sop(d: int, e0: int) -> Fraction:
    """Generalized Hilbert-Kunz multiplicity of (I, It)R(I): c(d) e0."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if e0 < 1:
        raise ValueError("e0 must be positive")
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
    if d < 2:
        raise ValueError("d must be at least 2")
    if facets < 1:
        raise ValueError("facet count must be positive")
    return c_of_d(d) * facets
