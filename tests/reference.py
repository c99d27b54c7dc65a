"""Slow, obviously correct references that the tests check the package against.

Nothing here is fast; each function is written to be read, not run at
scale.  Three kinds live here:

* polynomial sums and products, which the package never forms;
* independent versions of package kernels: Lagrange interpolation,
  inclusion-exclusion colength, the primary box from each generator's support, pairwise
  minimalisation, a fixed-window graded sum, the staircase heights
  of a plane initial ideal, and normal forms, membership and the
  S-pair check on a completed Groebner basis, reducing in the
  binomial-first order;
* the paper's side results that no `hk` command needs but the tests
  keep checking: Stirling numbers, the alternating-sum identity, the
  s >= d branch of the parameter-ideal closed form as a polynomial,
  the constant of the dimension-1 case rho + 1 <= r,
  the original case split of F(s, n), the reduction numbers and
  large-s coefficients of powers, and ideal powers and containment.

Only tests call these, so they check no arguments.
"""
from fractions import Fraction
from math import factorial, prod

from reeshk.hk_formulas import binomial, c_of_d, hilbert_H
from reeshk.monomial_algebra import InfiniteColength, MonomialIdeal, minimalize
from reeshk.polynomials import Poly


def stirling_first(n, k):
    """Signed Stirling number of the first kind, s(m, j) = s(m-1, j-1) - (m-1) s(m-1, j)."""
    row = [1]
    for m in range(1, n + 1):
        row = [left - (m - 1) * mid for left, mid in zip([0, *row], [*row, 0])]
    return row[k]


def cycle_count(n, k):
    """Number of permutations of n elements with exactly k cycles."""
    s = stirling_first(n, k)
    return s if (n - k) % 2 == 0 else -s


def stirling_second(n, k):
    """Partitions of an n-set into k blocks, S(m, j) = S(m-1, j-1) + j S(m-1, j); 0 when k > n."""
    row = [1]
    for m in range(1, n + 1):
        row = [left + j * mid for j, (left, mid) in enumerate(zip([0, *row], [*row, 0]))]
    return row[k] if k <= n else 0


def alternating_binomial_sum(d, s):
    """Direct summation of sum_{i=0}^{d} (-1)^(d-i) C(d,i) C(is, d+1)."""
    return sum((-1) ** (d - i) * binomial(d, i) * binomial(i * s, d + 1) for i in range(d + 1))


def alternating_binomial_sum_closed_form(d, s):
    """Closed form d * s^d * (s - 1) / 2 of the same alternating sum."""
    return d * s**d * (s - 1) // 2


def poly_add(p, q):
    """The sum of two polynomials, coefficient by coefficient."""
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly([p.coefficient(k) + q.coefficient(k) for k in range(n)])


def poly_mul(p, q):
    """The product of two polynomials, or p scaled when q is a number."""
    if isinstance(q, (int, Fraction)):
        return Poly([c * q for c in p.coeffs])
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs))
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(out)


def binomial_poly_expand(d):
    """C(s+d-1, d+1) as a polynomial in s: (s-1) s (s+1) ... (s+d-1) / (d+1)!."""
    poly = Poly([1])
    for j in range(-1, d):
        poly = poly_mul(poly, Poly([j, 1]))
    return poly_mul(poly, Fraction(1, factorial(d + 1)))


def cm_sop_hk_polynomial(d, e0):
    """The s >= d branch e0 [d s^(d+1)/2 - s^d (d-2)/2 + d C(s+d-1, d+1)] as a polynomial in s."""
    top = Poly([0] * d + [Fraction(2 - d, 2), Fraction(d, 2)])
    return poly_mul(poly_add(top, poly_mul(binomial_poly_expand(d), d)), e0)


def dim1_case_one_constant(inp):
    """The paper's constant for rho + 1 <= r: -e0 C(r,2) + e1 r + sum_{n<r} len(n)."""
    return -inp.e0 * binomial(inp.r, 2) + inp.e1 * inp.r + sum(inp.lengths[: inp.r])


def middle_branch_sum(d, e0, s, n):
    """sum_{i=1}^{d-1} (-1)^(i+1) C(d,i) H(n-(i-1)s), at any n."""
    return sum(
        (-1) ** (i + 1) * binomial(d, i) * hilbert_H(d, e0, n - (i - 1) * s)
        for i in range(1, d)
    )


def hilbert_F_unrefined(d, e0, s, n):
    """F(s, n) by the original case split, whose third branch starts at n = (d-1)s."""
    if n <= 0:
        return 0
    if n <= s:
        return d * hilbert_H(d, e0, n)
    if n <= (d - 1) * s - 1:
        return middle_branch_sum(d, e0, s, n)
    return hilbert_H(d, e0, n + s) - s**d * e0


def reduction_number_power(d, s):
    """Reduction number of the s-th power of a parameter ideal.

    d-1 once s >= d; below that, with d = k1*s + k2 and 0 <= k2 < s,
    d-k1 when k2 = 0 and d-k1-1 otherwise.
    """
    if s >= d:
        return d - 1
    k1, k2 = divmod(d, s)
    return d - k1 if k2 == 0 else d - k1 - 1


def asymptotic_coefficients(d, e0):
    """Coefficients of s^(d+1), s^d and s^(d-1) in the length of R(I)/(I, It)^[s].

        c(d) e0,  e0 (d-2)/2 (1/(d-1)! - 1),  e0 d(d-1)(3d-10) / (24 (d-1)!)
    """
    return (
        c_of_d(d) * e0,
        e0 * Fraction(d - 2, 2) * (Fraction(1, factorial(d - 1)) - 1),
        e0 * Fraction(d * (d - 1) * (3 * d - 10), 24 * factorial(d - 1)),
    )


def power(ideal, k):
    """I^k as k products, from the unit ideal."""
    result = MonomialIdeal.unit(ideal.ambient_dim)
    for _ in range(k):
        result = result.product(ideal)
    return result


def contains(ideal, other):
    """Whether every generator of other is a multiple of a generator of ideal."""
    return all(
        any(all(a <= b for a, b in zip(g, h)) for g in ideal.gens) for h in other.gens
    )


def lagrange_interpolate(points):
    """The polynomial through distinct points, as a sum of Lagrange basis products."""
    xs = [Fraction(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct abscissae")
    total = Poly()
    for i, (_, y) in enumerate(points):
        basis = Poly([1])
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = poly_mul(basis, Poly([-xj, 1]))
            denom *= xs[i] - xj
        total = poly_add(total, poly_mul(basis, Fraction(y) / denom))
    return total


def minimal_vectors_reference(vectors):
    """Sorted distinct vectors that no other distinct vector divides."""
    vs = set(vectors)
    return tuple(
        sorted(
            v for v in vs
            if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vs)
        )
    )


def primary_box_reference(ideal):
    """Minimal pure-power exponent per variable, from each generator's support; None if missing."""
    box = [None] * ideal.ambient_dim
    for g in ideal.gens:
        support = [i for i, e in enumerate(g) if e > 0]
        if not support:
            return (0,) * ideal.ambient_dim
        if len(support) == 1:
            i = support[0]
            if box[i] is None or g[i] < box[i]:
                box[i] = g[i]
    return None if None in box else tuple(box)


def colength_by_inclusion_exclusion(ideal: MonomialIdeal) -> int:
    """Independent colength via inclusion-exclusion over generator subsets.

    Exponential in the number of generators; a cross-check for the
    staircase walk.
    """
    box = ideal.primary_box()
    if box is None:
        raise InfiniteColength(f"no pure power of every variable in {ideal}")
    gens = ideal.gens
    total = prod(box)
    divisible = 0
    for mask in range(1, 1 << len(gens)):
        lcm = [0] * ideal.ambient_dim
        bits = 0
        for i, g in enumerate(gens):
            if mask >> i & 1:
                bits += 1
                lcm = [max(a, b) for a, b in zip(lcm, g)]
        count = prod(max(0, b - l) for b, l in zip(box, lcm))
        divisible += count if bits % 2 == 1 else -count
    return total - divisible


def graded_length_by_window(ideal: MonomialIdeal, q: int, colength, window: int) -> int:
    """Graded sum for R(I)/(I, It)^[q] over the pieces n < q + window, no equality test.

    Piece n is colength(I^[q] I^n) - colength(I^n) for n < q and
    colength(I^[q] I^(n-q)) - colength(I^n) from n = q on.  Once
    I^[q] I^(n-q) = I^n every later piece is 0, so a window past the
    truncation point gives the whole length.  The powers are plain
    products with every generator kept, never reduced in the ring.
    """
    frob = ideal.frobenius(q)
    powers = [MonomialIdeal.unit(ideal.ambient_dim)]
    for _ in range(q + window - 1):
        powers.append(powers[-1].product(ideal))
    return sum(
        colength(frob.product(powers[n if n < q else n - q])) - colength(powers[n])
        for n in range(q + window)
    )


def normal_form(gb, mon):
    """Normal form of a monomial modulo a completed basis; None when it reduces to zero.

    Binomial steps X_0^a -> X_1^a first, then one test for a monomial
    divisor: the opposite order to the package's reduction, so on a
    complete basis the two agree only because the basis is confluent.
    """
    a = gb.a
    i, j, *rest = mon
    steps = i // a
    nf = (i - a * steps, j + a * steps, *rest)
    if any(all(x <= y for x, y in zip(g, nf)) for g in gb.monomials):
        return None
    return nf


def contains_monomial(gb, mon):
    """Whether the monomial lies in the ideal the basis generates."""
    return normal_form(gb, mon) is None


def spairs_reduce_to_zero(gb):
    """Completeness: the S-pair of the binomial with every basis monomial reduces to zero.

    The S-pair of X_0^a - X_1^a with m is lcm(X_0^a, m) with X_0^a
    swapped for X_1^a; pairs of two monomials subtract to zero outright.
    """
    a = gb.a
    return all(
        contains_monomial(gb, (max(a, m[0]) - a, m[1] + a, *m[2:])) for m in gb.monomials
    )


def staircase_heights(initial, a):
    """h[c] = the smallest Y exponent among the generators with X exponent at most c, c < a."""
    return tuple(min(j for i, j in initial.gens if i <= c) for c in range(a))


def basis_initial_ideal(gb):
    """Ideal of leading terms: X_0^a together with the basis monomials."""
    lead = (gb.a,) + (0,) * (len(gb.monomials[0]) - 1)
    return minimalize([lead, *gb.monomials])
