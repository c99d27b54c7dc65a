"""Brute-force length oracles for Rees algebra quotients, plus exact fitting.

The oracles never consult the closed forms they are meant to check.
The monomial oracle takes the m-primary ideal it measures, such as the
`parameter_ideal` (x_1^a_1, ..., x_d^a_d) of the d >= 2 theorem.
One routine, `_graded_lengths`, sums lengths over the graded
decomposition of the Rees algebra and detects where the sum stops by
an explicit ideal-equality test rather than taking it from theory.  It
takes a whole sweep of s or q at once: one chain of powers I^n serves
every q of the sweep, so colength(I^n) is taken once per n, not once
per n and q.  It works in a `Ring`, whose ideals are canonical values,
so that `==` is ideal equality.  The polynomial ring keeps a
`MonomialIdeal`, its sorted minimal generators.  When I is invariant
under every permutation of the variables, as (x_1^a, ..., x_d^a) is,
so is every ideal of the sum, and the symmetric ring keeps one sorted
generator per orbit, up to d! times fewer, and counts a colength by
the least coordinate of a standard monomial and its multiplicity, not
by a staircase walk.  The hypersurface ring k[X, Y]/(X^a - Y^a) keeps
the staircase heights of the initial ideal, a tuple of length a, so a
step of the sum costs O(a) and not O(q).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import count, permutations
from math import comb
from operator import add
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

from .binomial_groebner import check_exponent, plane_heights, quotient_colength
from .hk_formulas import QuasiPolynomialHK, check_e, check_invariants, check_period
from .hk_formulas import check_positive, check_prime
from .monomial_algebra import InfiniteColength, MonomialIdeal, Vector, _minimal_vectors, minimalize
from .polynomials import Poly, interpolate

# the Rees quotients of rees_colength_dim1, spelled as on the command line
VARIANTS = ("rees-of-x", "rees-of-m")


class OracleError(Exception):
    """Base class for oracle failures."""


class InconsistentSamples(OracleError):
    """A sample falls off the fit: a checked sample, or a residue class of another degree."""


class InsufficientSamples(OracleError):
    """Not enough samples per residue class for the requested fit."""


class StabilizationNotReached(OracleError):
    """The graded tail did not stabilize within the probed window."""


def parameter_ideal(exponents: Sequence[int]) -> MonomialIdeal:
    """The parameter ideal (x_1^a_1, ..., x_d^a_d) of k[x_1, ..., x_d], for d >= 2."""
    d = len(exponents)
    check_invariants(d, 2)
    check_positive(min(exponents), "exponents")
    return minimalize([(0,) * i + (a,) + (0,) * (d - 1 - i) for i, a in enumerate(exponents)])


class Ring(NamedTuple):
    """A ring whose ideals are hashable canonical values: equal ideals are equal values."""

    unit: Hashable
    frobenius: Callable[[Hashable, int], Hashable]  # I, q -> I^[q]
    product: Callable[[Hashable, Hashable], Hashable]
    colength: Callable[[Hashable], int]


def _polynomial_ring(d: int) -> Ring:
    """k[x_1, ..., x_d] on `MonomialIdeal` values, with the class's methods at build time."""
    return Ring(
        MonomialIdeal.unit(d),
        MonomialIdeal.frobenius,
        MonomialIdeal.product,
        MonomialIdeal.colength,
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


def _orbits(reps: tuple[Vector, ...]) -> set[Vector]:
    """Every permutation of every representative: the generators of the S_d-invariant ideal."""
    return {v for g in reps for v in permutations(g)}


def _symmetric_ring(d: int) -> Ring:
    """k[x_1, ..., x_d] on S_d-invariant ideals, kept as one ascending generator per orbit.

    A sorted u lies in the ideal iff some representative is <= u
    componentwise, so the minimal representatives, sorted by
    `_minimal_vectors`, are a canonical value.  A product sorts g + pi(h)
    over the representatives g of one side and every permutation of the
    other side's.  The colength of an m-primary ideal in m variables
    cuts [0, top) at the exponents, where top = min(max g) bounds the
    least coordinate of a standard u and membership changes only at an
    exponent.  It counts the standard u by the cell [lo, hi) of their
    least coordinate and the number k of coordinates in that cell,
    which take C(m, k) (hi - lo)^k values.  For k < m the other
    coordinates, less hi, are a standard point of a tail ideal in m - k
    variables: the tails g[k:] of the g with g[k-1] <= lo, shifted down
    by hi.  So the work follows the generators, not the size of the
    exponents.  Tail colengths are memoised for the life of the ring;
    in one or two variables the orbits are expanded and walked by
    `MonomialIdeal`.
    """
    memo: dict[tuple[Vector, ...], int] = {}

    def product(j: tuple[Vector, ...], k: tuple[Vector, ...]) -> tuple[Vector, ...]:
        if len(j) < len(k):
            j, k = k, j
        return _minimal_vectors((*sorted(map(add, g, h)),) for h in _orbits(k) for g in j)

    def colength(reps: tuple[Vector, ...]) -> int:
        m = len(reps[0])
        if m <= 2:
            return MonomialIdeal(_minimal_vectors(_orbits(reps))).colength()
        top = min(g[-1] for g in reps)
        cuts = sorted({0, top, *(e for g in reps for e in g if e < top)})
        cells = list(zip(cuts, cuts[1:]))
        total = sum((hi - lo) ** m for lo, hi in cells)  # every u_i in one cell
        for k in range(1, m):
            # the tails g[k:] of the g with g[k-1] <= lo join at lo = g[k-1]
            joining: dict[int, list[Vector]] = {}
            for g in reps:
                joining.setdefault(g[k - 1], []).append(g[k:])
            active: tuple[Vector, ...] = ()
            for lo, hi in cells:
                if lo in joining:
                    active = _minimal_vectors((*active, *joining[lo]))
                tail = _minimal_vectors((*(max(e - hi, 0) for e in t),) for t in active)
                if tail not in memo:
                    memo[tail] = colength(tail)
                total += comb(m, k) * (hi - lo) ** k * memo[tail]
        return total

    return Ring(
        ((0,) * d,),
        lambda reps, q: tuple((*(q * e for e in g),) for g in reps),
        product,
        colength,
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
    """Refuse an empty sweep and a value below 1; stops at the first, so a range is not listed."""
    if not values:
        raise ValueError(f"the sweep of {name} is empty")
    check_positive(next((v for v in values if v < 1), 1), name)


def rees_colength_monomial(ideal: MonomialIdeal, ss: Sequence[int]) -> dict[int, int]:
    """{s: length of R(I)/(I, It)^[s]} by summing graded pieces in k[x_1, ..., x_d].

    I is m-primary, else InfiniteColength is raised; d is its number of
    variables.  The tail cap is (d-1)*s: for a parameter ideal I^[s] I^t
    equals I^(s+t) by t = (d-1)*s + 1, and another I whose tail runs
    longer raises.  An I invariant under a transposition and a d-cycle of
    the variables is invariant under every permutation of them, and the
    sum runs in the symmetric ring on its orbit representatives.
    """
    _check_sweep(ss, "s")
    if ideal.primary_box() is None:
        raise InfiniteColength(f"no pure power of every variable in {ideal}")
    d = ideal.ambient_dim
    caps = {s: (d - 1) * s for s in ss}
    gens = set(ideal.gens)
    # g[1::-1] is (g[1], g[0]), or g itself in one variable
    if gens == {(*g[1::-1], *g[2:]) for g in gens} == {(*g[1:], g[0]) for g in gens}:
        reps = _minimal_vectors((*sorted(g),) for g in gens)
        return _graded_lengths(_symmetric_ring(d), reps, caps)
    return _graded_lengths(_polynomial_ring(d), ideal, caps)


def rees_colength_dim1(a: int, variant: str, qs: Sequence[int]) -> dict[int, int]:
    """{q: exact length of a Rees quotient of R = k[[X, Y]]/(X^a - Y^a) at q}.

    Variant 'rees-of-x' measures (m, It)^[q] in R(I) for I = (x),
    realized as the 3-variable quotient by (X^a - Y^a, X^q, Y^q, Z^q).
    That quotient is the tensor product R/m^[q] (x)_k k[Z]/(Z^q), so its
    length is q len(R/m^[q]).  Variant 'rees-of-m' measures (m, mt)^[q]
    in R(m) via the graded decomposition.  No count reads a
    characteristic, so every q >= 1 is measured; q = p^e is the
    caller's choice.
    """
    check_exponent(a)
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    _check_sweep(qs, "q")
    if variant == "rees-of-x":
        return {q: quotient_colength(a, parameter_ideal((q, q, q))) for q in qs}
    maximal = (1,) + (0,) * (a - 1)  # the heights of (X, Y)
    return _graded_lengths(_plane_ring(a), maximal, dict.fromkeys(qs, 2 * a))


def alpha_table(a: int, n_max: int, qs: Sequence[int]) -> dict[int, dict[int, int]]:
    """Periodic corrections {n: {q: alpha(m^n, q)}}, alpha = len(m^n / m^[q] m^n) - a*q.

    Computed entirely from hypersurface quotient lengths, with m^n and
    m^[q] kept as their staircase heights; the multiplicity of the
    maximal ideal of k[[X, Y]]/(X^a - Y^a) is a.
    """
    check_exponent(a)
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    _check_sweep(qs, "q")
    ring, maximal = _plane_ring(a), (1,) + (0,) * (a - 1)
    frobs = {q: ring.frobenius(maximal, q) for q in qs}
    table: dict[int, dict[int, int]] = {}
    power = ring.unit  # m^n
    for n in range(n_max + 1):
        base = ring.colength(power)
        table[n] = {
            q: ring.colength(ring.product(f, power)) - base - a * q for q, f in frobs.items()
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
    if degree < 0:
        raise ValueError(f"the degree must be nonnegative, got {degree}")
    check_period(period)
    if holdout < 0:
        raise ValueError(f"the holdout must be nonnegative, got {holdout}")
    check_prime(p)
    check_e(min(values, default=0))
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
    check_invariants(d, 1)
    points = sorted((s, v) for s, v in values.items() if s >= d)
    if len(points) < d + 3:
        raise InsufficientSamples(f"need at least {d + 3} values with s >= d")
    ss = [s for s, _ in points]
    if ss != list(range(ss[0], ss[0] + len(ss))):
        raise InsufficientSamples("values must cover consecutive s")
    return _fit(points, d + 1, len(points) - (d + 2), "sample at s").coefficient(d + 1)
