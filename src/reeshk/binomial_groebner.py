"""Initial ideals of one binomial X_u^a - X_v^a plus monomials.

Under lex order with X_u greatest, the binomial rewrites X_u^a to
X_v^a, so modulo the binomial every monomial equals, with coefficient
+1, its residue-class normal form

    NF(X_u^i X_v^j rest) = X_u^(i mod a) X_v^(j + a floor(i/a)) rest.

Hence (binomial) + (g_1..g_k) is the binomial plus the span of the
normal forms of all monomial multiples of the g's, and its initial
ideal is generated by X_u^a, every NF(g), and NF(X_u^(a - i mod a) g)
for each g whose X_u exponent i is not a multiple of a: multiplying g
by X_u^c only cycles i through the residues mod a, raising the X_v
exponent by a at each wrap.  No coefficient field is involved, so the
result is independent of the characteristic.  `initial_ideal` gives
quotient lengths (`quotient_colength`) and decides equality of two
such ideals (`ideals_equal`), since both are fixed by their initial
ideals.

The dimension selects the path.  In two variables the initial ideal is
fixed by its staircase heights h[0..a-1], where h[c] is the smallest Y
exponent among the normal forms with X exponent at most c; one pass
over the generators gives them, with no tuples and no sort.  The
colength is sum(h) and equality compares heights.  The corners of the
heights, `plane_corners`, generate the same ideal modulo the binomial
with at most a monomials, so a caller that multiplies ideals of
k[X, Y]/(X^a - Y^a) can keep each one at that size.  Otherwise, and for
`initial_ideal` in any dimension, the normal forms are minimalised and
the staircase walk counts them.

`initial_ideal`, `quotient_colength`, `ideals_equal` and
`plane_corners` take a `MonomialIdeal`, whose tuples were checked when
`minimalize` or `parse_ideal` built it; they check only that the ideal
is nonzero and has the relation's ambient dimension.  `buchberger`
takes plain exponent tuples and checks them through `minimalize`.

`initial_ideal` is the one production path, `hk oracle groebner`
included.  `buchberger` is an independent S-pair completion of the same
basis, kept as the tests' reference for the normal forms.  Under lex
the S-polynomial of the binomial with a monomial is again a monomial,
and reducing a monomial keeps it a monomial.  Monomial-monomial S-pairs
vanish identically and are skipped; the completeness check re-verifies
every binomial-monomial pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .monomial_algebra import (
    MonomialIdeal,
    Vector,
    _check_box,
    _divisible,
    _minimal_vectors,
    minimalize,
)


@dataclass(frozen=True)
class BinomialRelation:
    """The relation X_u^a - X_v^a inside a polynomial ring of given dimension.

    index_u < index_v in the fixed variable order, so the leading term
    under lex is always X_u^a.
    """

    ambient_dim: int
    index_u: int
    index_v: int
    exponent: int

    def __post_init__(self) -> None:
        if not 0 <= self.index_u < self.index_v < self.ambient_dim:
            raise ValueError("need 0 <= index_u < index_v < ambient_dim")
        if self.exponent < 2:
            raise ValueError("hypersurface exponent must be at least 2")

    def lead_exponents(self) -> tuple[int, ...]:
        exps = [0] * self.ambient_dim
        exps[self.index_u] = self.exponent
        return tuple(exps)


@dataclass(frozen=True)
class GroebnerBasisBM:
    """Completed basis: the binomial plus a minimal set of monomials."""

    relation: BinomialRelation
    monomials: tuple[Vector, ...]

    def normal_form(
        self, mon: Sequence[int], strategy: str = "monomial-first"
    ) -> Optional[Vector]:
        """Reduce a monomial to its normal form; None means it reduced to zero.

        Both strategies terminate and, on a complete basis, agree:
        'monomial-first' looks for a monomial divisor before applying
        the binomial step, 'binomial-first' the other way round.
        """
        return _reduce(tuple(mon), self.relation, self.monomials, strategy)

    def contains_monomial(self, mon: Sequence[int]) -> bool:
        return self.normal_form(mon) is None

    def spairs_reduce_to_zero(self) -> bool:
        """Re-check completeness: every binomial-monomial S-pair reduces to zero.

        Monomial pairs subtract to the zero polynomial outright, so
        only pairs with the binomial carry content.
        """
        rel = self.relation
        return all(
            _reduce(_binomial_spair(m, rel), rel, self.monomials) is None
            for m in self.monomials
        )

    def initial_ideal(self) -> MonomialIdeal:
        """Ideal of leading terms: X_u^a together with the basis monomials."""
        rel = self.relation
        vectors = _minimal_vectors([rel.lead_exponents(), *self.monomials])
        return MonomialIdeal(rel.ambient_dim, vectors)


def _binomial_spair(m: Vector, rel: BinomialRelation) -> Vector:
    """S-polynomial of the binomial with a monomial: a single monomial.

    lcm(X_u^a, m) with the X_u^a block swapped for X_v^a; the
    coefficient is -1 and plays no role.
    """
    sp = list(m)
    sp[rel.index_u] = max(rel.exponent, m[rel.index_u]) - rel.exponent
    sp[rel.index_v] = m[rel.index_v] + rel.exponent
    return tuple(sp)


def _reduce(
    t: Vector,
    rel: BinomialRelation,
    mons: Sequence[Vector],
    strategy: str = "monomial-first",
) -> Optional[Vector]:
    """Division algorithm on a monomial; each binomial step drops the X_u degree."""
    if strategy not in ("monomial-first", "binomial-first"):
        raise ValueError(f"unknown strategy {strategy!r}")
    u, v, a = rel.index_u, rel.index_v, rel.exponent
    cur = list(t)
    while True:
        if strategy == "monomial-first" and _divisible(cur, mons):
            return None
        if cur[u] >= a:
            cur[u] -= a
            cur[v] += a
            continue
        if strategy == "binomial-first" and _divisible(cur, mons):
            return None
        # no binomial step applies anymore, the result is final
        return tuple(cur)


def buchberger(rel: BinomialRelation, gens: Iterable[Sequence[int]]) -> GroebnerBasisBM:
    """Complete the basis of (X_u^a - X_v^a) + (monomial generators).

    Only S-pairs of the binomial with a monomial are processed; pairs
    whose leading terms are coprime (X_u absent from the monomial) are
    skipped by the product criterion.  Each surviving normal form is a
    monomial not yet in the span of the current ones, so the ascending
    chain of monomial ideals forces termination.
    """
    start = minimalize(gens, ambient_dim=rel.ambient_dim)
    if start.is_zero:
        raise ValueError("generator set must be nonempty")
    basis = list(start.gens)
    queue = [m for m in basis if m[rel.index_u] > 0]
    while queue:
        m = queue.pop()
        nf = _reduce(_binomial_spair(m, rel), rel, basis)
        if nf is not None:
            basis.append(nf)
            if nf[rel.index_u] > 0:
                queue.append(nf)
    return GroebnerBasisBM(rel, _minimal_vectors(basis))


def _gens(rel: BinomialRelation, ideal: MonomialIdeal) -> tuple[Vector, ...]:
    """The generators of a nonzero ideal of the relation's polynomial ring."""
    if ideal.ambient_dim != rel.ambient_dim:
        raise ValueError(
            f"ideal has {ideal.ambient_dim} variables, the relation {rel.ambient_dim}"
        )
    if ideal.is_zero:
        raise ValueError("generator set must be nonempty")
    return ideal.gens


def _plane_heights(rel: BinomialRelation, ideal: MonomialIdeal) -> list[int]:
    """Staircase heights h[0..a-1] of the initial ideal in two variables.

    h[c] is the smallest Y exponent among the normal forms with X
    exponent at most c: the lowest per residue class, then a running
    minimum.  Every generator has a normal form with X exponent 0 (its
    own or its wrap), so the first one's wrap bounds h[0] and can stand
    for "none yet" in every class.
    """
    a = rel.exponent
    gens = _gens(rel, ideal)
    i, j = gens[0]
    lowest = [j + i - i % a + a] * a
    for i, j in gens:
        r = i % a
        y = j + i - r
        if y < lowest[r]:
            lowest[r] = y
        if r and y + a < lowest[0]:
            lowest[0] = y + a
    return list(accumulate(lowest, min))


def plane_corners(rel: BinomialRelation, ideal: MonomialIdeal) -> MonomialIdeal:
    """At most a monomials that generate the same ideal as `ideal` modulo the binomial.

    The corners of the staircase heights: X^c Y^h[c] for c = 0 and for
    each c with h[c] < h[c-1].  Each is the normal form of a multiple of
    a generator, and each generator's normal form is a multiple of one
    of them, so (binomial) + corners = (binomial) + ideal.  The X
    exponents are below a and the Y exponents fall, so the corners are
    minimal and sorted as they come.
    """
    if rel.ambient_dim != 2:
        raise ValueError("staircase corners need a relation in two variables")
    h = _plane_heights(rel, ideal)
    corners = [(0, h[0])]
    for c in range(1, rel.exponent):
        if h[c] < corners[-1][1]:
            corners.append((c, h[c]))
    return MonomialIdeal(2, tuple(corners))


def _initial_vectors(rel: BinomialRelation, ideal: MonomialIdeal) -> tuple[Vector, ...]:
    """Sorted minimal generators of the initial ideal of (binomial) + ideal."""
    u, v, a = rel.index_u, rel.index_v, rel.exponent
    vectors = [rel.lead_exponents()]
    for g in _gens(rel, ideal):
        nf = list(g)
        r = g[u] % a
        nf[u] = r
        nf[v] += g[u] - r
        vectors.append(tuple(nf))
        if r:
            # X_u^(a - r) g wraps to the next residue class: X_u^0, one more X_v^a
            nf[u] = 0
            nf[v] += a
            vectors.append(tuple(nf))
    return _minimal_vectors(vectors)


def initial_ideal(rel: BinomialRelation, ideal: MonomialIdeal) -> MonomialIdeal:
    """Initial ideal of (binomial) + ideal from residue-class normal forms."""
    return MonomialIdeal(rel.ambient_dim, _initial_vectors(rel, ideal))


def quotient_colength(
    rel: BinomialRelation, ideal: MonomialIdeal, box_cap: Optional[int] = None
) -> int:
    """Length of the quotient by (binomial + monomials): colength of the initial ideal.

    In two variables that is the sum of the staircase heights, inside
    the box of X^(first c with h[c] = 0, else a) and Y^h[0].
    """
    if rel.ambient_dim != 2:
        return initial_ideal(rel, ideal).colength(box_cap=box_cap)
    h = _plane_heights(rel, ideal)
    _check_box((h.index(0) if h[-1] == 0 else rel.exponent, h[0]), box_cap)
    return sum(h)


def ideals_equal(rel: BinomialRelation, lhs: MonomialIdeal, rhs: MonomialIdeal) -> bool:
    """Whether (binomial) + lhs and (binomial) + rhs are the same ideal.

    Each ideal is the binomial plus the span of the standard monomials
    in its initial ideal, so equal initial ideals mean equal ideals; in
    two variables the staircase heights fix the initial ideal.
    """
    key = _plane_heights if rel.ambient_dim == 2 else _initial_vectors
    return key(rel, lhs) == key(rel, rhs)
