"""Brute-force length oracles for Rees algebra quotients, plus exact fitting.

The oracles never consult the closed forms they are meant to check.
The monomial oracle takes the m-primary ideal it measures, such as the
`parameter_ideal` (x_1^a_1, ..., x_d^a_d) of the d >= 2 theorem, and
sums on I', each variable's exponent gcd c_i divided out, times prod(c),
the rank of k[x] over k[x_1^c_1, ..., x_d^c_d].
One routine, `_graded_lengths`, sums lengths over the graded
decomposition of the Rees algebra and detects where the sum stops,
never taking it from theory: from t = q by an explicit ideal-equality
test, below t = q by a colength tie, as I^[q] I^t lies in I^(q+t).  It
takes a whole sweep of s or q at once: one chain of powers I^n serves
every q of the sweep, so colength(I^n) is taken once per n, not once
per n and q.  It works in a `Ring`, whose ideals are canonical values,
so that `==` is ideal equality.  The polynomial ring keeps a
`MonomialIdeal`, its sorted minimal generators.  When I is invariant
under every permutation of the variables, as (x_1, ..., x_d) is, so is
every ideal of the sum: the orbit ring keeps one generator per orbit,
up to d! times fewer, and counts colengths by the least coordinate of
a standard monomial and its multiplicity, not by a staircase walk.
The hypersurface ring k[X, Y]/(X^a - Y^a) keeps the staircase heights
of the initial ideal, a tuple of length a, so a step of the sum costs
O(a) and not O(q).  Three facts of that ring R let the rees-of-m oracle
sum only one window of q and read every later q off one closed form per
class mod a:

- m^[q] = Y^a m^[q-a] for q >= a, since X^q = X^(q-a) Y^a in R;
- m^(n+1) = Y m^n for n >= r, the reduction number, found by a tested
  equality (r = a - 1);
- Y is a non-zero-divisor with len(R/YR) = a, so colength(Y J) =
  colength(J) + a: Y J is J with every height one higher.

A fourth fact holds in every local ring: len(R/mJ) = len(R/J) +
dim_k J/mJ, the colength of J plus its number of minimal generators
(Nakayama).  So when I = m, each product I^n I, I^[q] I^n and I^[q] I^t
of the graded sum steps from the last one, and only I and each I^[q]
are counted.
"""
from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from itertools import chain, compress, count, groupby, permutations, repeat
from math import comb, factorial, gcd, prod
from operator import add, eq, floordiv, ne, sub
from typing import Callable, Hashable, Mapping, NamedTuple, Sequence

from .binomial_groebner import check_exponent, plane_heights, quotient_colength
from .hk_formulas import QuasiPolynomialHK, check_e, check_invariants, check_period
from .hk_formulas import InvalidInput, check_positive, check_prime
from .monomial_algebra import InfiniteColength, MonomialIdeal, Vector
from .monomial_algebra import _minimal_vectors, minimalize
from .polynomials import Poly, interpolate

# the Rees quotients of rees_colength_dim1, spelled as on the command line
VARIANTS = ("rees-of-x", "rees-of-m")


class OracleError(Exception):
    """Base class for oracle failures."""


class InconsistentSamples(OracleError):
    """A sample falls off the fit: a checked sample, or a residue class of another degree."""


class InsufficientSamples(InvalidInput):
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
    generators: Callable[[Hashable], int] | None = None  # mu(J), its minimal generators


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


def _lift(h: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Y^k J of the plane ring, J given by its heights h: every height rises by k."""
    return tuple(y + k for y in h)


def _reduction_number(ring: Ring, ideal: tuple[int, ...], cap: int) -> tuple[int, tuple] | None:
    """(r, I^r) for the least r <= cap with I^(r+1) = Y I^r in the plane ring, else None.

    The equality is tested, not assumed.  From r on I^(n+1) = Y I^n at
    every n: I^(n+2) = I Y I^n = Y I^(n+1).
    """
    power = ring.unit  # I^r
    for r in range(cap + 1):
        later = ring.product(power, ideal)
        if later == _lift(power, 1):
            return r, power
        power = later
    return None


def _orbits(reps: tuple[Vector, ...]) -> set[Vector]:
    """Every permutation of the exponents of every representative."""
    return {p for g in reps for p in permutations(g)}


class _OrbitSizes(dict):
    """Orbit size d!/prod(m_e!) per key of d - 1 flags, which neighbouring exponents are equal.

    A run of k equal neighbours is k + 1 equal exponents.
    """

    def __missing__(self, key: tuple[bool, ...]) -> int:
        runs = (len([*run]) + 1 for equal, run in groupby(key) if equal)
        size = self[key] = factorial(len(key) + 1) // prod(map(factorial, runs))
        return size


def _orbit_ring(d: int) -> Ring:
    """Ideals fixed by every permutation of the d variables, one generator per orbit.

    A representative sorts its exponents.  A u with sorted exponents lies
    in the ideal iff some representative is <= u, so the minimal
    representatives, sorted, are a canonical value.  A product sorts
    g + pi(h) over the representatives g of one side and the permutations
    of the other's.  When the other is one pure power x^c, as m and m^[q]
    are, g + c e_i sorts alike for every i in a run of equal exponents of
    g, so the product adds c at the last index of each run only, one
    column of J at a time: index i < d - 1 ends a run where column i
    differs from column i + 1.  At the last index of g the sum stays
    sorted, at an earlier one if c = 1, and is re-sorted if c > 1.  Past
    the spread of J, max(g[-1] - g[0]), g_i + c exceeds every other
    exponent, so g + c e_i sorts to g less g_i, then g_i + c: the product
    is J's minimal raised rows (g less g_i, g_i) with c added to the last
    column, and its number of generators is the same for every such c,
    as each key ends with unequal neighbours.  The graded sum multiplies
    one power m^n by m^[q] for every q > n, so the ring keeps the rows
    and that number for the last J it raised.
    The colength counts an ideal in m variables by
    cells: [0, top) is cut at the exponents, where top = min(max g)
    bounds the least coordinate of a standard u and membership changes
    only at an exponent.  The standard u are counted by the cell
    [lo, hi) of their least coordinate and the number k of coordinates
    in it, which take C(m, k) (hi - lo)^k values.  For k < m the other
    coordinates, less hi, are a standard point of the tails g[k:] of the
    g with g[k-1] <= lo, shifted down by hi.  So the work follows the
    generators, not the size of the exponents.  A one-variable tail
    counts its least exponent, and a longer one is memoised for the life
    of the ring: a two-variable tail is its sorted minimal pairs from the
    last a <= hi on, shifted, which needs no minimalising, and two
    variables are expanded and walked by `MonomialIdeal`.  No permutation
    of one minimal representative divides a permutation of another, as
    sorting keeps <=, so the ideal's number of minimal generators is the
    sum of its orbit sizes d!/prod(m_e!), m_e the multiplicity of each
    exponent.  Each representative's key, which neighbouring exponents
    are equal, is read off the columns, and a table fills in the size
    of each key the first time it is met.
    """
    memo: dict[tuple[Vector, ...], int] = {}
    sizes = _OrbitSizes()
    # the last J multiplied by an x^c with c > spread(J): J, spread(J), the columns of its
    # minimal raised rows, their mu once counted, and the last product formed from them
    raised: list = [None, 0, (), 0, None]

    def product(j: tuple[Vector, ...], k: tuple[Vector, ...]) -> tuple[Vector, ...]:
        if len(j) < len(k):
            j, k = k, j
        *rest, c = k[0]
        if len(k) > 1 or any(rest):
            return _minimal_vectors([(*sorted(map(add, g, h)),) for h in _orbits(k) for g in j])
        # k is x^c: c at the last index of each run of g, column by column; index i < d - 1
        # ends a run where g[i] != g[i + 1]
        cols = None if j is raised[0] else [*zip(*j)]
        if cols and c > (spread := max(map(sub, cols[-1], cols[0]))):
            # g + c e_i is g less g_i, then g_i + c: minimalise the rows less c once per J
            rows = _minimal_vectors(chain(zip(*cols), *(
                compress(zip(*cols[:i], *cols[i + 1 :], cols[i]), map(ne, cols[i], cols[i + 1]))
                for i in range(d - 1)
            )))
            raised[:4] = j, spread, [*zip(*rows)], 0
        if j is raised[0] and c > raised[1]:
            *kept, last = raised[2]
            raised[4] = tuple(zip(*kept, map(c.__add__, last)))
            return raised[4]
        # at or below the spread the sums at an inner index are sorted if c = 1
        cols = cols or [*zip(*j)]
        inner = chain.from_iterable(
            compress(zip(*cols[:i], map(c.__add__, cols[i]), *cols[i + 1 :]),
                     map(ne, cols[i], cols[i + 1]))
            for i in range(d - 1)
        )
        if c > 1:
            inner = map(tuple, map(sorted, inner))
        return _minimal_vectors(chain(zip(*cols[:-1], map(c.__add__, cols[-1])), inner))

    def generators(reps: tuple[Vector, ...]) -> int:
        if reps is raised[4] and raised[3]:  # every product of the raised rows has their mu
            return raised[3]
        if d == 1:  # no neighbours: every orbit is one monomial
            return len(reps)
        cols = [*zip(*reps)]
        mu = sum(map(sizes.__getitem__, zip(*map(map, repeat(eq), cols, cols[1:]))))
        if reps is raised[4]:
            raised[3] = mu
        return mu

    def count(reps: Sequence[Vector]) -> int:
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
                if lo in joining:  # one variable keeps its least exponent
                    joined = (*active, *joining[lo])
                    active = (min(joined),) if k == m - 1 else _minimal_vectors(joined)
                if k == m - 1:  # one variable: its least exponent less hi
                    size = max(active[0][0] - hi, 0)
                else:
                    if k == m - 2:  # minimal pairs: a rises, b falls; minimal from the last a <= hi
                        rest = active[max(bisect(active, (hi + 1,)) - 1, 0) :]
                        tail = tuple((max(a - hi, 0), max(b - hi, 0)) for a, b in rest)
                    else:
                        tail = _minimal_vectors((*(max(e - hi, 0) for e in t),) for t in active)
                    size = memo[tail] if tail in memo else memo.setdefault(tail, count(tail))
                total += comb(m, k) * (hi - lo) ** k * size
        return total

    return Ring(
        ((0,) * d,),
        lambda reps, q: tuple((*(q * e for e in g),) for g in reps),
        product,
        count,
        generators,
    )


def _graded_lengths(ring: Ring, ideal: Hashable, caps: Mapping[int, int]) -> dict[int, int]:
    """Length of R(I)/(I, It)^[q] for every q in caps, summed over the graded pieces in a ring R.

    For each q, sums colength(I^[q] I^n) - colength(I^n) for n < q, then
    colength(I^[q] I^t) - colength(I^(q+t)) for t = 0, 1, ... until
    I^[q] I^t == I^(q+t), detected, not assumed: from t = q by the product,
    below t = q by a colength tie, as I^[q] I^t lies in I^(q+t).  A piece
    past t = caps[q] that still differs raises.  One chain of powers I^n
    serves every q, taking colength(I^n) once per n.  Each q keeps
    I^[q], the colengths of I^[q] I^n for n < q, which its tail reuses for
    t < q, a total and, from n = q, its I^t: I^q set aside from the chain.
    From t = q its tail advances to I^(t+1), which an open q - 1 already
    holds as the step starts: it advanced at n - 1, to I^((n-1)-(q-1)+1).
    So q takes that, and a step forms one tail power per run of
    consecutive open q, not one per q.
    When the ring counts generators and I is m, the one ideal of colength
    1, colength(J m) = colength(J) + generators(J): the chain steps
    colength(I^n), and each q the colength of its next piece I^[q] I^k, k
    = n in the head and t from t = q, each the last one times m.  Then
    only I and each I^[q] are counted.
    """
    step = ring.generators is not None and ring.colength(ideal) == 1
    power, base = ring.unit, 0  # I^n and, when stepping, colength(I^n)
    # per open q: I^[q], its head, I^t (I^q from n = q), the total and, when stepping, the
    # colength of its next piece; the head is sized once, since growing it between colength
    # walks fragmented the heap and raised peak RSS
    open_qs = {q: (ring.frobenius(ideal, q), [0] * q, None, 0, None) for q in caps}
    lengths = dict.fromkeys(caps, 0)  # in the order of caps
    for n in count():
        if not step:
            base = ring.colength(power)
        before = dict(open_qs)  # each open q as the step starts
        for q, (frob, head, shifted, total, ahead) in before.items():
            t = n - q
            if t < 0:
                piece = ring.product(frob, power)
            else:
                piece = None if t < q else ring.product(frob, shifted)
                if head[t] == base if t < q else piece == power:
                    lengths[q] = total
                    del open_qs[q]
                    continue
                if t > caps[q]:
                    raise StabilizationNotReached(
                        f"I^[q] I^t != I^(q+t) for all t <= {caps[q]} at q={q}"
                    )
                if t >= q:  # I^(t+1): an open q - 1 holds it from its last step
                    shifted = before[q - 1][2] if q - 1 in before else ring.product(shifted, ideal)
            if piece is None:
                length = head[t]
            else:
                length = ring.colength(piece) if ahead is None else ahead
                ahead = length + ring.generators(piece) if step else None
                if t < 0:
                    head[n] = length
            open_qs[q] = (frob, head, power if t == 0 else shifted, total + length - base, ahead)
        del before  # its stale powers go before the chain's next product
        if not open_qs:
            return lengths
        if step:
            base += ring.generators(power)
        power = ring.product(power, ideal)


def _check_sweep(values: Sequence[int], name: str) -> None:
    """Refuse an empty sweep and a value below 1; stops at the first, so a range is not listed."""
    if not values:
        raise InvalidInput(f"the sweep of {name} is empty")
    check_positive(next((v for v in values if v < 1), 1), name)


def rees_colength_monomial(ideal: MonomialIdeal, ss: Sequence[int]) -> dict[int, int]:
    """{s: length of R(I)/(I, It)^[s]} by summing graded pieces in k[x_1, ..., x_d].

    I is m-primary, else InfiniteColength is raised; d is its number of
    variables.  The tail cap is (d-1)*s: for a parameter ideal I^[s] I^t
    equals I^(s+t) by t = (d-1)*s + 1, and another I whose tail runs
    longer raises.  I extends I', each variable's exponent gcd c_i divided
    out, along y_i -> x_i^c_i, over which k[x] is free of rank prod(c);
    products, bracket powers and equality commute with it, so the sum runs
    on I' and each length is prod(c) times that of I': (x_1^a_1, ...,
    x_d^a_d) runs as (x_1, ..., x_d).  When the swap of x_1 and x_2 and
    the cycle x_1 -> x_2 -> ... -> x_d -> x_1 both fix I', every
    permutation of the variables does, since the two generate them all,
    and the sum runs in the orbit ring on its sorted representatives;
    any other I' runs on the walk.
    """
    _check_sweep(ss, "s")
    if ideal.primary_box() is None:
        raise InfiniteColength(f"no pure power of every variable in {ideal}")
    cs = [gcd(*column) for column in zip(*ideal.gens)]
    if prod(cs) > 1:  # dividing a column keeps divisibility and order: I' is minimal, sorted
        reduced = MonomialIdeal(tuple((*map(floordiv, g, cs),) for g in ideal.gens))
        return {s: prod(cs) * v for s, v in rees_colength_monomial(reduced, ss).items()}
    d = ideal.ambient_dim
    caps = {s: (d - 1) * s for s in ss}
    gens = set(ideal.gens)
    # g[1::-1] swaps the first two exponents; in one variable it is g itself
    if {(*g[1::-1], *g[2:]) for g in gens} == gens == {(*g[1:], g[0]) for g in gens}:
        reps = _minimal_vectors((*sorted(g),) for g in gens)
        return _graded_lengths(_orbit_ring(d), reps, caps)
    return _graded_lengths(_polynomial_ring(d), ideal, caps)


def rees_colength_dim1(a: int, variant: str, qs: Sequence[int]) -> dict[int, int]:
    """{q: exact length of a Rees quotient of R = k[[X, Y]]/(X^a - Y^a) at q}.

    Variant 'rees-of-x' measures (m, It)^[q] in R(I) for I = (x),
    realized as the 3-variable quotient by (X^a - Y^a, X^q, Y^q, Z^q).
    That quotient is the tensor product R/m^[q] (x)_k k[Z]/(Z^q), so its
    length is q len(R/m^[q]).  Variant 'rees-of-m' measures (m, mt)^[q]
    in R(m) via the graded decomposition, which `_graded_lengths` sums
    at each q below the window r + a, r the least n with m^(n+1) = Y m^n,
    and at the base p = r + (q - r) mod a of each later q's class.  By
    m^[q] = Y^a m^[q-a] (tested once per class), m^n = Y^(n-r) m^r for
    n >= r and colength(Y J) = colength(J) + a, the head at q is that at
    q - a, each term plus a^2, then a more terms of c(q - a) + a^2, and
    the tail repeats that at q - a, stop index included.  So L(q) =
    L(q - a) + q a^2 + a c(q - a), with c(p) = colength(m^[p] m^r) -
    colength(m^r) and c(p + a) = c(p) + a^2.  Over the k = (q - p)/a
    steps from the base this sums to sum_{i=1..k} ((p + i a) a^2 + a c(p)
    + (i - 1) a^3) = k a (p a + k a^2 + c(p)), that is L(q) = L(p) +
    (q - p)(a q + c(p)), with c(p) taken once per class.  r is sought up
    to max(q) - a; none up to the tail cap 2a raises, and none below it
    puts every q in the window.  No count reads a characteristic, so
    every q >= 1 is measured; a prime power q is the caller's choice.
    """
    check_exponent(a)
    if variant not in VARIANTS:
        raise InvalidInput(f"unknown variant {variant!r}")
    _check_sweep(qs, "q")
    if variant == "rees-of-x":
        return {q: quotient_colength(a, parameter_ideal((q, q, q))) for q in qs}
    ring, maximal = _plane_ring(a), (1,) + (0,) * (a - 1)  # the heights of (X, Y)
    reach = max(qs) - a  # q lies past the window q < r + a iff r <= q - a
    found = _reduction_number(ring, maximal, min(reach, 2 * a))
    if found is None and reach > 2 * a:
        raise StabilizationNotReached(f"m^(n+1) != Y m^n for all n <= {2 * a}")
    r, top = found or (reach + 1, None)  # none found: every q lies in the window
    # a q of the window is summed, a later q read off the base p of its class mod a
    bases = {q: q if q < r + a else r + (q - r) % a for q in qs}
    lengths = _graded_lengths(ring, maximal, dict.fromkeys(bases.values(), 2 * a))
    cs: dict[int, int] = {}  # c(p) per base p of a later q
    for p in {p for q, p in bases.items() if q != p}:
        frob = ring.frobenius(maximal, p)
        if ring.frobenius(maximal, p + a) != _lift(frob, a):
            raise RuntimeError(f"m^[{p + a}] != Y^{a} m^[{p}] modulo X^{a} - Y^{a}")
        cs[p] = ring.colength(ring.product(frob, top)) - ring.colength(top)
    return {q: lengths[p] + (q - p) * (a * q + cs.get(p, 0)) for q, p in bases.items()}


def alpha_table(a: int, n_max: int, qs: Sequence[int]) -> dict[int, dict[int, int]]:
    """Periodic corrections {n: {q: alpha(m^n, q)}}, alpha = len(m^n / m^[q] m^n) - a*q.

    Computed entirely from hypersurface quotient lengths, with m^n and
    m^[q] kept as their staircase heights; the multiplicity of the
    maximal ideal of k[[X, Y]]/(X^a - Y^a) is a.
    """
    check_exponent(a)
    if n_max < 0:
        raise InvalidInput("n_max must be nonnegative")
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
        raise InvalidInput(f"the degree must be nonnegative, got {degree}")
    check_period(period)
    if holdout < 0:
        raise InvalidInput(f"the holdout must be nonnegative, got {holdout}")
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
    return QuasiPolynomialHK(tuple(polys), valid_from_e=threshold)


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
