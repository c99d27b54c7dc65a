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

`buchberger` is an independent S-pair completion of the same basis.
It serves `hk oracle groebner` and the tests' cross-check of the
normal forms.  Under lex the S-polynomial of the binomial with a
monomial is again a monomial, and reducing a monomial keeps it a
monomial.  Monomial-monomial S-pairs vanish identically and are
skipped; the completeness check re-verifies every binomial-monomial
pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .monomial_algebra import Monomial, MonomialIdeal, _minimal_vectors, minimalize

GenLike = Union[Monomial, Sequence[int]]


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


class _DivIndex:
    """Divisibility tests against a growing monomial set.

    Two-variable sets keep, for each exponent of the first variable,
    the least second exponent of any generator at or below it, which
    makes each test O(1); other dimensions fall back to a scan.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.mons: list[tuple[int, ...]] = []
        self._steps: Optional[dict[int, int]] = {} if dim == 2 else None
        self._prefix: Optional[list[int]] = None

    def add(self, m: tuple[int, ...]) -> None:
        self.mons.append(m)
        if self._steps is not None:
            u, v = m
            if v < self._steps.get(u, v + 1):
                self._steps[u] = v
            self._prefix = None

    def divides(self, t: Sequence[int]) -> bool:
        if self._steps is not None:
            if not self._steps:
                return False
            if self._prefix is None:
                top = max(self._steps)
                prefix: list[int] = []
                best = None
                for u in range(top + 1):
                    here = self._steps.get(u)
                    if here is not None and (best is None or here < best):
                        best = here
                    prefix.append(best if best is not None else -1)
                self._prefix = prefix
            u, v = t
            cut = self._prefix[min(u, len(self._prefix) - 1)]
            return cut >= 0 and v >= cut
        return any(all(a <= b for a, b in zip(g, t)) for g in self.mons)


@dataclass(frozen=True)
class GroebnerBasisBM:
    """Completed basis: the binomial plus a minimal set of monomials."""

    relation: BinomialRelation
    monomials: tuple[Monomial, ...]
    complete: bool

    def _index(self) -> _DivIndex:
        index = _DivIndex(self.relation.ambient_dim)
        for m in self.monomials:
            index.add(m.exponents)
        return index

    def normal_form(
        self, mon: GenLike, strategy: str = "monomial-first"
    ) -> Optional[Monomial]:
        """Reduce a monomial to its normal form; None means it reduced to zero.

        Both strategies terminate and, on a complete basis, agree:
        'monomial-first' looks for a monomial divisor before applying
        the binomial step, 'binomial-first' the other way round.
        """
        exps = mon.exponents if isinstance(mon, Monomial) else tuple(mon)
        nf = _reduce(exps, self.relation, self._index(), strategy)
        return None if nf is None else Monomial(nf)

    def contains_monomial(self, mon: GenLike) -> bool:
        return self.normal_form(mon) is None

    def spairs_reduce_to_zero(self) -> bool:
        """Re-check completeness: every binomial-monomial S-pair reduces to zero.

        Monomial pairs subtract to the zero polynomial outright, so
        only pairs with the binomial carry content.
        """
        rel = self.relation
        index = self._index()
        for m in self.monomials:
            sp = _binomial_spair(m.exponents, rel)
            if _reduce(sp, rel, index, "monomial-first") is not None:
                return False
        return True

    def initial_ideal(self) -> MonomialIdeal:
        """Ideal of leading terms: X_u^a together with the basis monomials."""
        if not self.complete:
            raise ValueError("basis is not complete")
        gens = [Monomial(self.relation.lead_exponents()), *self.monomials]
        return minimalize(gens, ambient_dim=self.relation.ambient_dim)


def _binomial_spair(m: tuple[int, ...], rel: BinomialRelation) -> tuple[int, ...]:
    """S-polynomial of the binomial with a monomial: a single monomial.

    lcm(X_u^a, m) with the X_u^a block swapped for X_v^a; the
    coefficient is -1 and plays no role.
    """
    sp = list(m)
    sp[rel.index_u] = max(rel.exponent, m[rel.index_u]) - rel.exponent
    sp[rel.index_v] = m[rel.index_v] + rel.exponent
    return tuple(sp)


def _reduce(
    t: tuple[int, ...],
    rel: BinomialRelation,
    index: _DivIndex,
    strategy: str = "monomial-first",
) -> Optional[tuple[int, ...]]:
    """Division algorithm on a monomial; each binomial step drops the X_u degree."""
    if strategy not in ("monomial-first", "binomial-first"):
        raise ValueError(f"unknown strategy {strategy!r}")
    u, v, a = rel.index_u, rel.index_v, rel.exponent
    cur = list(t)
    while True:
        if strategy == "monomial-first" and index.divides(cur):
            return None
        if cur[u] >= a:
            cur[u] -= a
            cur[v] += a
            continue
        if strategy == "binomial-first" and index.divides(cur):
            return None
        if strategy == "monomial-first":
            return tuple(cur)
        # binomial-first: no binomial step applies anymore, result is final
        return tuple(cur)


def buchberger(rel: BinomialRelation, gens: Iterable[GenLike]) -> GroebnerBasisBM:
    """Complete the basis of (X_u^a - X_v^a) + (monomial generators).

    Only S-pairs of the binomial with a monomial are processed; pairs
    whose leading terms are coprime (X_u absent from the monomial) are
    skipped by the product criterion.  Each surviving normal form is a
    monomial not yet in the span of the current ones, so the ascending
    chain of monomial ideals forces termination.
    """
    start = minimalize(
        [g if isinstance(g, Monomial) else Monomial(tuple(g)) for g in gens],
        ambient_dim=rel.ambient_dim,
    )
    if start.is_zero:
        raise ValueError("generator set must be nonempty")
    index = _DivIndex(rel.ambient_dim)
    basis: list[tuple[int, ...]] = []
    for g in start.gens:
        basis.append(g.exponents)
        index.add(g.exponents)
    queue = [m for m in basis if m[rel.index_u] > 0]
    while queue:
        m = queue.pop()
        nf = _reduce(_binomial_spair(m, rel), rel, index)
        if nf is not None:
            basis.append(nf)
            index.add(nf)
            if nf[rel.index_u] > 0:
                queue.append(nf)
    mons = minimalize([Monomial(b) for b in basis], ambient_dim=rel.ambient_dim)
    return GroebnerBasisBM(rel, mons.gens, complete=True)


def _initial_vectors(
    rel: BinomialRelation, gens: Iterable[GenLike]
) -> list[tuple[int, ...]]:
    """Sorted minimal generators of the initial ideal of (binomial) + (gens).

    The generators are validated here: a nonempty set of nonnegative
    integer exponent tuples of the relation's ambient dimension.
    """
    exponents = [
        g.exponents if isinstance(g, Monomial) else Monomial(tuple(g)).exponents
        for g in gens
    ]
    if not exponents:
        raise ValueError("generator set must be nonempty")
    if any(len(g) != rel.ambient_dim for g in exponents):
        raise ValueError("generators do not match ambient_dim")
    u, v, a = rel.index_u, rel.index_v, rel.exponent
    vectors = [rel.lead_exponents()]
    for g in exponents:
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
    return sorted(_minimal_vectors(vectors))


def initial_ideal(rel: BinomialRelation, gens: Iterable[GenLike]) -> MonomialIdeal:
    """Initial ideal of (binomial) + (gens) from residue-class normal forms."""
    vectors = _initial_vectors(rel, gens)
    return MonomialIdeal(rel.ambient_dim, tuple(Monomial(v) for v in vectors))


def quotient_colength(
    rel: BinomialRelation, gens: Iterable[GenLike], box_cap: Optional[int] = None
) -> int:
    """Length of the quotient by (binomial + monomials): colength of the initial ideal."""
    return initial_ideal(rel, gens).colength(box_cap=box_cap)


def ideals_equal(
    rel: BinomialRelation, gens_a: Iterable[GenLike], gens_b: Iterable[GenLike]
) -> bool:
    """Whether (binomial) + A and (binomial) + B are the same ideal.

    Each ideal is the binomial plus the span of the standard monomials
    in its initial ideal, so equal initial ideals mean equal ideals.
    """
    return _initial_vectors(rel, gens_a) == _initial_vectors(rel, gens_b)
