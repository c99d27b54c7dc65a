"""Brute-force length oracles for Rees algebra quotients, plus exact fitting.

The oracles never consult the closed forms they are meant to check.
One routine, `_graded_lengths`, sums lengths over the graded
decomposition of the Rees algebra and detects where the sum stops by
an explicit ideal-equality test rather than taking it from theory.  It
takes a whole sweep of s or e at once: one chain of powers I^n serves
every q of the sweep, so colength(I^n) is taken once per n, not once
per n and q.  It works in a `Ring`, whose ideals are canonical values,
so that `==` is ideal equality.  The polynomial ring keeps a
`MonomialIdeal`, its sorted minimal generators.  The hypersurface ring
k[X, Y]/(X^a - Y^a) keeps the staircase heights of the initial ideal,
a tuple of length a, so a step of the sum costs O(a) and not O(q).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import prod
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

from .binomial_groebner import plane_heights, quotient_colength
from .combinatorics import _is_prime
from .hk_formulas import NEGATIVE_E, QuasiPolynomialHK
from .monomial_algebra import MonomialIdeal, minimalize
from .polynomials import Poly, interpolate

# the Rees quotients of ReesInstanceDim1, spelled as on the command line
VARIANTS = ("rees-of-x", "rees-of-m")


class OracleError(Exception):
    """Base class for oracle failures."""


class InconsistentSamples(OracleError):
    """A sample falls off the fit: a checked sample, or a residue class of another degree."""


class InsufficientSamples(OracleError):
    """Not enough samples per residue class for the requested fit."""


class StabilizationNotReached(OracleError):
    """The graded tail did not stabilize within the probed window."""


@dataclass(frozen=True)
class ReesInstanceMonomial:
    """Parameter ideal (x1^a1, ..., xd^ad) in a polynomial ring of dimension d."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.exponents) < 2:
            raise ValueError("need dimension d >= 2")
        if any(a < 1 for a in self.exponents):
            raise ValueError("exponents must be positive")

    @property
    def d(self) -> int:
        return len(self.exponents)

    @property
    def e0(self) -> int:
        return prod(self.exponents)

    def ideal(self) -> MonomialIdeal:
        d = self.d
        gens = []
        for i, a in enumerate(self.exponents):
            e = [0] * d
            e[i] = a
            gens.append(e)
        return minimalize(gens)


@dataclass(frozen=True)
class ReesInstanceDim1:
    """Hypersurface k[[X, Y]]/(X^a - Y^a) with a choice of Rees quotient.

    variant 'rees-of-x' measures (m, It)^[q] in R(I) for I = (x),
    realized as the 3-variable quotient by (X^a - Y^a, X^q, Y^q, Z^q);
    variant 'rees-of-m' measures (m, mt)^[q] in R(m) via the graded
    decomposition.
    """

    a: int
    p: int
    variant: str

    def __post_init__(self) -> None:
        if self.a < 2:
            raise ValueError("hypersurface exponent must be at least 2")
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


class Ring(NamedTuple):
    """A ring whose ideals are hashable canonical values: equal ideals are equal values."""

    unit: Hashable
    frobenius: Callable[[Hashable, int], Hashable]  # I, q -> I^[q]
    product: Callable[[Hashable, Hashable], Hashable]
    colength: Callable[[Hashable], int]


def _polynomial_ring(d: int) -> Ring:
    """k[x_1, ..., x_d] on `MonomialIdeal` values; each method is looked up when called."""
    return Ring(
        MonomialIdeal.unit(d),
        lambda ideal, q: ideal.frobenius(q),
        lambda i, j: i.product(j),
        lambda ideal: ideal.colength(),
    )


def _plane_ring(a: int) -> Ring:
    """k[X, Y]/(X^a - Y^a) on the staircase heights h[0..a-1] of the initial ideal.

    The corners X^c Y^h[c], for each c with h[c] below its left
    neighbour (h[0] + 1 stands left of h[0]), generate the ideal modulo
    the binomial, so a product is the heights of the pairwise sums of two
    corner lists and a bracket power the heights of the scaled corners.
    The colength is sum(h).
    """

    def corners(h: tuple[int, ...]) -> list[tuple[int, int]]:
        return [(c, y) for c, y, left in zip(range(a), h, (h[0] + 1, *h)) if y < left]

    def product(h: tuple[int, ...], k: tuple[int, ...]) -> tuple[int, ...]:
        right = corners(k)
        return plane_heights(a, [(c + d, y + z) for c, y in corners(h) for d, z in right])

    return Ring(
        (0,) * a,
        lambda h, q: plane_heights(a, [(q * c, q * y) for c, y in corners(h)]),
        product,
        sum,
    )


def _graded_lengths(ring: Ring, ideal: Hashable, caps: Mapping[int, int]) -> dict[int, int]:
    """Length of R(I)/(I, It)^[q] for every q in caps, summed over the graded pieces in a ring R.

    For each q, sums colength(I^[q] I^n) - colength(I^n) for n < q, then
    colength(I^[q] I^t) - colength(I^(q+t)) for t = 0, 1, ... until
    I^[q] I^t == I^(q+t).  The equality is tested, not assumed; a piece
    past t = caps[q] that still differs raises.  One chain of powers
    I^n, advanced by one product per step, serves every q, so
    colength(I^n) is taken at most once per n, and only when some q
    needs it.  Each q keeps its I^[q], the colengths of I^[q] I^n for
    n < q (which its tail reuses for t < q), its own I^t and a running
    total.
    """
    power = ring.unit  # I^n
    # per open q: I^[q], its head, I^t and the total; the head is sized once,
    # since growing it between colength walks fragmented the heap and raised peak RSS
    open_qs = {q: (ring.frobenius(ideal, q), [0] * q, power, 0) for q in caps}
    lengths = dict.fromkeys(caps, 0)  # in the order of caps
    for n in count():
        base = None  # colength(I^n), taken at most once
        for q, (frob, head, shifted, total) in list(open_qs.items()):
            t = n - q
            if t < 0:
                length = head[n] = ring.colength(ring.product(frob, power))
            else:
                piece = ring.product(frob, shifted)
                if piece == power:
                    lengths[q] = total
                    del open_qs[q]
                    continue
                if t > caps[q]:
                    raise StabilizationNotReached(
                        f"I^[q] I^t != I^(q+t) for all t <= {caps[q]} at q={q}"
                    )
                length = head[t] if t < q else ring.colength(piece)
                shifted = ring.product(shifted, ideal)
            if base is None:
                base = ring.colength(power)
            open_qs[q] = (frob, head, shifted, total + length - base)
        if not open_qs:
            return lengths
        power = ring.product(power, ideal)


def _check_sweep(values: Sequence[int], name: str) -> None:
    """Refuse an empty sweep and a value below 1."""
    if not values:
        raise ValueError(f"the sweep of {name} is empty")
    # stops at the first bad value, so an ascending range is not listed
    if any(v < 1 for v in values):
        raise ValueError(f"{name} must be positive")


def rees_colength_monomial(inst: ReesInstanceMonomial, ss: Sequence[int]) -> dict[int, int]:
    """{s: length of R(I)/(I, It)^[s]} by summing graded pieces in the polynomial ring.

    The tail cap is (d-1)*s: I^[s] I^t must equal I^(s+t) by t = (d-1)*s + 1.
    """
    _check_sweep(ss, "s")
    return _graded_lengths(
        _polynomial_ring(inst.d), inst.ideal(), {s: (inst.d - 1) * s for s in ss}
    )


def rees_colength_dim1(inst: ReesInstanceDim1, es: Sequence[int]) -> dict[int, int]:
    """{e: exact length of the chosen Rees quotient at q = p^e}."""
    _check_sweep(es, "e")
    qs = {e: inst.p**e for e in es}
    if inst.variant == "rees-of-x":
        cubes = {e: minimalize([(q, 0, 0), (0, q, 0), (0, 0, q)]) for e, q in qs.items()}
        return {e: quotient_colength(inst.a, cube) for e, cube in cubes.items()}
    maximal = (1,) + (0,) * (inst.a - 1)  # the heights of (X, Y)
    lengths = _graded_lengths(_plane_ring(inst.a), maximal, dict.fromkeys(qs.values(), 2 * inst.a))
    return {e: lengths[q] for e, q in qs.items()}


def alpha_table(a: int, p: int, n_max: int, e_range: Sequence[int]) -> dict[int, dict[int, int]]:
    """Periodic corrections alpha(m^n, e) = len(m^n / m^[q] m^n) - a*q.

    Computed entirely from hypersurface quotient lengths, with m^n and
    m^[q] kept as their staircase heights; the multiplicity of the
    maximal ideal of k[[X, Y]]/(X^a - Y^a) is a.
    """
    if a < 2:
        raise ValueError("hypersurface exponent must be at least 2")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not e_range:
        raise ValueError("e_range must be nonempty")
    if min(e_range) < 0:
        raise ValueError(NEGATIVE_E)
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    ring, maximal = _plane_ring(a), (1,) + (0,) * (a - 1)
    frobs = {e: ring.frobenius(maximal, p**e) for e in e_range}
    table: dict[int, dict[int, int]] = {}
    power = ring.unit  # m^n
    for n in range(n_max + 1):
        base = ring.colength(power)
        table[n] = {
            e: ring.colength(ring.product(f, power)) - base - a * p**e for e, f in frobs.items()
        }
        power = ring.product(power, maximal)
    return table


def _fit(points: Sequence[tuple[int, int]], degree: int, holdout: int, where: str) -> Poly:
    """Interpolate the newest degree + 1 points; the `holdout` points before them must agree.

    The points are (x, y) in increasing x; `where` names x in the error.
    """
    poly = interpolate(points[-(degree + 1) :])
    for x, y in points[-(degree + 1 + holdout) : -(degree + 1)]:
        if poly(x) != y:
            raise InconsistentSamples(f"{where}={x} does not match the fit")
    return poly


def fit_quasi_polynomial(
    values: Mapping[int, int], p: int, degree: int, period: int, holdout: int = 1
) -> QuasiPolynomialHK:
    """Recover a quasi-polynomial in q = p^e from exact samples {e: value}.

    Per residue class of e modulo the period, the newest degree+1
    samples determine the polynomial by exact interpolation; the
    `holdout` samples just before them must validate it.  The returned
    threshold (valid_from_e) is the smallest e from which every sample
    matches; samples older than the threshold are allowed to disagree.
    """
    if degree < 0 or period < 1 or holdout < 0:
        raise ValueError("degree, period and holdout must be sensible")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if min(values, default=0) < 0:
        raise ValueError(NEGATIVE_E)
    es = sorted(values)
    polys: list[Poly] = []
    for c in range(period):
        rows = [e for e in es if e % period == c]
        if len(rows) < degree + 1 + holdout:
            raise InsufficientSamples(
                f"residue class {c}: need {degree + 1 + holdout} samples, have {len(rows)}"
            )
        points = [(p**e, values[e]) for e in rows]
        polys.append(_fit(points, degree, holdout, f"residue class {c}: held-out sample at q"))
    # QuasiPolynomialHK holds one degree across residue classes
    top = max(poly.degree for poly in polys)
    if any(poly.degree != top for poly in polys):
        raise InconsistentSamples("residue classes fit polynomials of mixed degree")
    threshold = es[0]
    for e in reversed(es):
        if polys[e % period](p**e) != values[e]:
            threshold = e + 1
            break
    return QuasiPolynomialHK(tuple(polys), prime=p, valid_from_e=threshold)


def estimate_ehk(values: Mapping[int, int], d: int) -> Fraction:
    """Leading coefficient of the degree-(d+1) polynomial through a sweep.

    Interpolates the last d+2 values exactly and requires the
    polynomial to extend to every earlier value with s >= d; the
    values must cover consecutive s.
    """
    if d < 1:
        raise ValueError("d must be positive")
    points = sorted((s, v) for s, v in values.items() if s >= d)
    if len(points) < d + 3:
        raise InsufficientSamples(f"need at least {d + 3} values with s >= d")
    ss = [s for s, _ in points]
    if ss != list(range(ss[0], ss[0] + len(ss))):
        raise InsufficientSamples("values must cover consecutive s")
    return _fit(points, d + 1, len(points) - (d + 2), "sample at s").coefficient(d + 1)
