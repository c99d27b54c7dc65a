"""Brute-force length oracles for Rees algebra quotients, plus exact fitting.

The oracles never consult the closed forms they are meant to check:
lengths come from staircase counts of monomial ideals, or from Groebner
initial ideals in the binomial-hypersurface case, summed over the
graded decomposition of the Rees algebra.  Truncation points are
detected by explicit ideal-equality tests rather than taken from
theory.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Mapping, Optional, Sequence

from .binomial_groebner import BinomialRelation, ideals_equal, quotient_colength
from .hk_formulas import QuasiPolynomialHK
from .monomial_algebra import MonomialIdeal
from .polynomials import Poly, interpolate


class OracleError(Exception):
    """Base class for oracle failures."""


class InconsistentSamples(OracleError):
    """Held-out or older samples contradict the fitted quasi-polynomial."""


class InsufficientSamples(OracleError):
    """Not enough samples per residue class for the requested fit."""


class NonPolynomialSamples(OracleError):
    """A sweep does not extend to a single polynomial over its full range."""


class StabilizationNotReached(OracleError):
    """The graded tail did not stabilize within the probed window."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


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
        return MonomialIdeal.from_exponents(d, gens)


@dataclass(frozen=True)
class ReesInstanceDim1:
    """Hypersurface k[[X, Y]]/(X^a - Y^a) with a choice of Rees quotient.

    variant 'rees_of_x' measures (m, It)^[q] in R(I) for I = (x),
    realized as the 3-variable quotient by (X^a - Y^a, X^q, Y^q, Z^q);
    variant 'rees_of_m' measures (m, mt)^[q] in R(m) via the graded
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
        if self.variant not in ("rees_of_x", "rees_of_m"):
            raise ValueError(f"unknown variant {self.variant!r}")


def rees_colength_monomial(
    inst: ReesInstanceMonomial, s: int, box_cap: Optional[int] = None
) -> int:
    """Length of R(I)/(I, It)^[s] by summing graded pieces.

    Sums colength(I^[s] I^n) - colength(I^n) for n < s, then
    colength(I^[s] I^(n-s)) - colength(I^n) until the two ideals are
    literally equal; equality is checked, not assumed, and must occur
    by n = d*s.
    """
    if s < 1:
        raise ValueError("s must be positive")
    ideal = inst.ideal()
    frob = ideal.frobenius(s)
    total = 0
    power = MonomialIdeal.unit(inst.d)  # I^0, colength 0
    for n in range(s):
        total += frob.product(power).colength(box_cap=box_cap) - power.colength(
            box_cap=box_cap
        )
        power = power.product(ideal)
    # now power = I^s
    shifted = MonomialIdeal.unit(inst.d)  # I^(n-s)
    n = s
    while True:
        piece = frob.product(shifted)
        if piece == power:
            break
        if n > inst.d * s:
            raise StabilizationNotReached(
                f"I^[s] I^(n-s) != I^n beyond n = d*s for {inst} at s={s}"
            )
        total += piece.colength(box_cap=box_cap) - power.colength(box_cap=box_cap)
        shifted = shifted.product(ideal)
        power = power.product(ideal)
        n += 1
    return total


class _HypersurfaceLengths:
    """Cached quotient lengths in k[X, Y]/(X^a - Y^a) for powers of (x, y)."""

    def __init__(self, a: int, box_cap: Optional[int] = None) -> None:
        self.rel = BinomialRelation(2, 0, 1, a)
        self.box_cap = box_cap
        self.m = MonomialIdeal.from_exponents(2, [(1, 0), (0, 1)])
        self._powers = [MonomialIdeal.unit(2)]
        self._len_power: dict[int, int] = {}
        self._len_frob_power: dict[tuple[int, int], int] = {}

    def power(self, n: int) -> MonomialIdeal:
        while len(self._powers) <= n:
            self._powers.append(self._powers[-1].product(self.m))
        return self._powers[n]

    def _quotient_len(self, ideal: MonomialIdeal) -> int:
        if ideal.is_unit:
            return 0
        return quotient_colength(self.rel, ideal.gens, box_cap=self.box_cap)

    def len_power(self, n: int) -> int:
        """Length of R/m^n."""
        if n not in self._len_power:
            self._len_power[n] = self._quotient_len(self.power(n))
        return self._len_power[n]

    def len_frob_times_power(self, q: int, n: int) -> int:
        """Length of R/(m^[q] m^n)."""
        key = (q, n)
        if key not in self._len_frob_power:
            ideal = self.m.frobenius(q).product(self.power(n))
            self._len_frob_power[key] = self._quotient_len(ideal)
        return self._len_frob_power[key]

    def frob_times_power_equals_power(self, q: int, t: int, n: int) -> bool:
        """Whether m^[q] m^t and m^n agree as ideals of the hypersurface ring."""
        lhs = self.m.frobenius(q).product(self.power(t))
        return ideals_equal(self.rel, lhs.gens, self.power(n).gens)


def rees_colength_dim1(
    inst: ReesInstanceDim1, e: int, box_cap: Optional[int] = None
) -> int:
    """Exact length of the chosen Rees quotient at q = p^e."""
    if e < 1:
        raise ValueError("e must be positive")
    q = inst.p**e
    if inst.variant == "rees_of_x":
        rel = BinomialRelation(3, 0, 1, inst.a)
        gens = [(q, 0, 0), (0, q, 0), (0, 0, q)]
        return quotient_colength(rel, gens, box_cap=box_cap)
    lengths = _HypersurfaceLengths(inst.a, box_cap=box_cap)
    total = 0
    for n in range(q):
        total += lengths.len_frob_times_power(q, n) - lengths.len_power(n)
    t = 0
    while not lengths.frob_times_power_equals_power(q, t, q + t):
        if t > 2 * inst.a:
            raise StabilizationNotReached(
                f"m^[q] m^t != m^(q+t) for all t <= {2 * inst.a} at q={q}"
            )
        total += lengths.len_frob_times_power(q, t) - lengths.len_power(q + t)
        t += 1
    return total


def alpha_table(
    a: int,
    p: int,
    n_max: int,
    e_range: Sequence[int],
    box_cap: Optional[int] = None,
) -> dict[int, dict[int, int]]:
    """Periodic corrections alpha(m^n, e) = len(m^n / m^[q] m^n) - a*q.

    Computed entirely from hypersurface quotient lengths; the
    multiplicity of the maximal ideal of k[[X, Y]]/(X^a - Y^a) is a.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if not e_range:
        raise ValueError("e_range must be nonempty")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    lengths = _HypersurfaceLengths(a, box_cap=box_cap)
    table: dict[int, dict[int, int]] = {n: {} for n in range(n_max + 1)}
    for e in e_range:
        q = p**e
        for n in range(n_max + 1):
            module_len = lengths.len_frob_times_power(q, n) - lengths.len_power(n)
            table[n][e] = module_len - a * q
    return table


@dataclass(frozen=True)
class SampleSet:
    """Values of a length function at q = p^e, with strictly increasing e."""

    prime: int
    entries: tuple[tuple[int, int, int], ...]  # (e, q, value)

    def __post_init__(self) -> None:
        if not _is_prime(self.prime):
            raise ValueError(f"p = {self.prime} is not prime")
        last = None
        for e, q, _ in self.entries:
            if q != self.prime**e:
                raise ValueError(f"q = {q} is not {self.prime}^{e}")
            if last is not None and e <= last:
                raise ValueError("exponents must be strictly increasing")
            last = e

    @classmethod
    def from_values(cls, prime: int, values: Mapping[int, int]) -> "SampleSet":
        entries = tuple((e, prime**e, values[e]) for e in sorted(values))
        return cls(prime, entries)


def fit_quasi_polynomial(
    samples: SampleSet, degree: int, period: int, holdout: int = 1
) -> QuasiPolynomialHK:
    """Recover a quasi-polynomial in q from exact samples.

    Per residue class of e modulo the period, the newest degree+1
    samples determine the polynomial by exact interpolation; the
    `holdout` samples just before them must validate it.  The returned
    threshold (valid_from_e) is the smallest e from which every sample
    matches; samples older than the threshold are allowed to disagree.
    """
    if degree < 0 or period < 1 or holdout < 0:
        raise ValueError("degree, period and holdout must be sensible")
    by_class: dict[int, list[tuple[int, int, int]]] = {c: [] for c in range(period)}
    for entry in samples.entries:
        by_class[entry[0] % period].append(entry)
    polys: list[Poly] = []
    for c in range(period):
        rows = by_class[c]
        if len(rows) < degree + 1 + holdout:
            raise InsufficientSamples(
                f"residue class {c}: need {degree + 1 + holdout} samples, have {len(rows)}"
            )
        window = rows[-(degree + 1) :]
        poly = interpolate([(q, value) for _, q, value in window])
        for e, q, value in rows[-(degree + 1 + holdout) : -(degree + 1)]:
            if poly(q) != value:
                raise InconsistentSamples(
                    f"residue class {c}: held-out sample at e={e} does not match"
                )
        polys.append(poly)
    # QuasiPolynomialHK holds one degree across residue classes
    top = max(p.degree for p in polys)
    if any(p.degree != top for p in polys):
        raise InconsistentSamples("residue classes fit polynomials of mixed degree")
    threshold = min(e for e, _, _ in samples.entries)
    for e, q, value in sorted(samples.entries, reverse=True):
        if polys[e % period](q) != value:
            threshold = e + 1
            break
    return QuasiPolynomialHK(tuple(polys), prime=samples.prime, valid_from_e=threshold)


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
    poly = interpolate(points[-(d + 2) :])
    for s, v in points[: -(d + 2)]:
        if poly(s) != v:
            raise NonPolynomialSamples(f"value at s={s} falls off the fitted polynomial")
    return poly.coefficient(d + 1)
