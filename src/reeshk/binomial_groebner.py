"""Initial ideals of the binomial X_0^a - X_1^a plus monomials.

Under lex order with X_0 greatest, the binomial rewrites X_0^a to
X_1^a, so modulo the binomial every monomial equals, with coefficient
+1, its residue-class normal form

    NF(X_0^i X_1^j rest) = X_0^(i mod a) X_1^(j + a floor(i/a)) rest.

Hence (binomial) + (g_1..g_k) is the binomial plus the span of the
normal forms of all monomial multiples of the g's, and its initial
ideal is generated by X_0^a, every NF(g), and NF(X_0^(a - i mod a) g)
for each g whose X_0 exponent i is not a multiple of a: multiplying g
by X_0^c only cycles i through the residues mod a, raising the X_1
exponent by a at each wrap.  No coefficient field is involved, so the
result is independent of the characteristic.  `initial_ideal` gives
quotient lengths (`quotient_colength`) and decides equality of two
such ideals (`ideals_equal`), since both are fixed by their initial
ideals.  In every dimension the normal forms are minimalised and the
staircase walk counts them.

In two variables, X = X_0 and Y = X_1, the initial ideal is also fixed
by its staircase heights h[0..a-1], where h[c] is the smallest Y
exponent among the normal forms with X exponent at most c.
`plane_heights` reads them off raw (i, j) pairs in one pass, with no
sort; the colength is sum(h).  The dimension-1 oracle keeps every ideal
of k[X, Y]/(X^a - Y^a) as this tuple.

Every entry point takes the exponent a first and reads the number of
variables from the ideal's tuples.  `initial_ideal`, `quotient_colength`
and `ideals_equal` take a `MonomialIdeal`, whose tuples were checked
when `minimalize` or `parse_ideal` built it, and which is nonzero; they
check only that a >= 2 and that the ideal has at least two variables.
`buchberger` takes plain exponent tuples and checks them through
`minimalize` and then the same test.  `plane_heights` takes the
package's own pairs and checks nothing.

`initial_ideal` is the one production path, `hk oracle groebner`
included.  `ideals_equal` is the tests' reference equality.
`buchberger` is an independent S-pair completion of the same
basis, kept as the tests' reference for the normal forms.  Under lex
the S-polynomial of the binomial with a monomial is again a monomial,
and reducing a monomial keeps it a monomial; the reduction looks for a
monomial divisor before each binomial step.  Monomial-monomial S-pairs
vanish identically and are skipped.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .monomial_algebra import (
    MonomialIdeal,
    Vector,
    _divisible,
    _minimal_vectors,
    minimalize,
)


@dataclass(frozen=True)
class GroebnerBasisBM:
    """Completed basis: the binomial X_0^a - X_1^a plus a minimal set of monomials."""

    a: int
    monomials: tuple[Vector, ...]


def _binomial_spair(m: Vector, a: int) -> Vector:
    """S-polynomial of the binomial with a monomial: a single monomial.

    lcm(X_0^a, m) with the X_0^a block swapped for X_1^a; the
    coefficient is -1 and plays no role.
    """
    return (max(a, m[0]) - a, m[1] + a, *m[2:])


def _reduce(t: Vector, a: int, mons: Sequence[Vector]) -> Optional[Vector]:
    """Division algorithm on a monomial; None means it reduced to zero.

    A monomial divisor is looked for before each binomial step, and each
    binomial step drops the X_0 degree by a.
    """
    cur = list(t)
    while not _divisible(cur, mons):
        if cur[0] < a:
            # no binomial step applies anymore, the result is final
            return tuple(cur)
        cur[0] -= a
        cur[1] += a
    return None


def buchberger(a: int, gens: Iterable[Sequence[int]]) -> GroebnerBasisBM:
    """Complete the basis of (X_0^a - X_1^a) + (monomial generators).

    Only S-pairs of the binomial with a monomial are processed; pairs
    whose leading terms are coprime (X_0 absent from the monomial) are
    skipped by the product criterion.  Each surviving normal form is a
    monomial not yet in the span of the current ones, so the ascending
    chain of monomial ideals forces termination.
    """
    basis = list(_gens(a, minimalize(gens)))
    queue = [m for m in basis if m[0] > 0]
    while queue:
        m = queue.pop()
        nf = _reduce(_binomial_spair(m, a), a, basis)
        if nf is not None:
            basis.append(nf)
            if nf[0] > 0:
                queue.append(nf)
    return GroebnerBasisBM(a, _minimal_vectors(basis))


def _gens(a: int, ideal: MonomialIdeal) -> tuple[Vector, ...]:
    """The generators of an ideal that X_0^a - X_1^a can be added to."""
    gens = ideal.gens
    if len(gens[0]) < 2:
        raise ValueError("the relation needs at least two variables")
    if a < 2:
        raise ValueError("hypersurface exponent must be at least 2")
    return gens


def plane_heights(a: int, pairs: Sequence[Vector]) -> tuple[int, ...]:
    """Staircase heights h[0..a-1] of (X^a - Y^a) + (X^i Y^j for each (i, j) in pairs).

    h[c] is the smallest Y exponent among the normal forms with X
    exponent at most c: the lowest per residue class, then a running
    minimum.  Every pair has a normal form with X exponent 0 (its own
    or its wrap), so the first one's wrap bounds h[0] and can stand for
    "none yet" in every class.  pairs must be nonempty.
    """
    i, j = pairs[0]
    lowest = [j + i - i % a + a] * a
    for i, j in pairs:
        r = i % a
        y = j + i - r
        if y < lowest[r]:
            lowest[r] = y
        if r and y + a < lowest[0]:
            lowest[0] = y + a
    return tuple(accumulate(lowest, min))


def initial_ideal(a: int, ideal: MonomialIdeal) -> MonomialIdeal:
    """Initial ideal of (X_0^a - X_1^a) + ideal from residue-class normal forms."""
    gens = _gens(a, ideal)
    vectors = [(a,) + (0,) * (len(gens[0]) - 1)]
    for i, j, *rest in gens:
        r = i % a
        vectors.append((r, j + i - r, *rest))
        if r:
            # X_0^(a - r) g wraps to the next residue class: X_0^0, one more X_1^a
            vectors.append((0, j + i - r + a, *rest))
    return MonomialIdeal(_minimal_vectors(vectors))


def quotient_colength(a: int, ideal: MonomialIdeal) -> int:
    """Length of the quotient by (binomial + monomials): colength of the initial ideal."""
    return initial_ideal(a, ideal).colength()


def ideals_equal(a: int, lhs: MonomialIdeal, rhs: MonomialIdeal) -> bool:
    """Whether (binomial) + lhs and (binomial) + rhs are the same ideal.

    Each ideal is the binomial plus the span of the standard monomials
    in its initial ideal, so equal initial ideals mean equal ideals.
    """
    return initial_ideal(a, lhs) == initial_ideal(a, rhs)
