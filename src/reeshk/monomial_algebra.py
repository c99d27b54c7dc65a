"""Monomial ideals with exact staircase colengths.

A monomial is its exponent tuple, and a nonzero ideal is its minimal
generators: a nonempty, lexicographically sorted tuple of such tuples
of one length, which is the number of variables.  Exponent tuples from
outside the package are checked once, by `_validated`, at the two
public constructors, `minimalize` and `parse_ideal` (which calls it).
A `MonomialIdeal` is therefore trusted: its products and bracket
powers, and the Groebner entry points that take it, read its tuples
without checking them again.
Minimal generators come from bitset divisibility masks, or in two
variables from a running minimum of the second exponent over the
sorted tuples, and need neither when all tuples have one degree;
colength from a staircase walk whose slices see growing prefixes of
the sorted generators and which stops at the pure power of the first
variable.
"""
from __future__ import annotations

from bisect import insort
from itertools import chain
from operator import add, and_
from typing import Iterable, NamedTuple, Optional, Sequence

from .hk_formulas import InvalidInput, check_positive

Vector = tuple[int, ...]


class InfiniteColength(InvalidInput):
    """The quotient is not finite dimensional (no pure power of some variable)."""


_SHAPE = "need one or more generators, all with the same positive number of exponents"


def _validated(gens: Iterable[Sequence[int]]) -> list[Vector]:
    """Exponent tuples from outside, checked: one or more, all nonnegative ints, one length."""
    vectors = list(map(tuple, gens))
    # each check is one pass in C over all tuples or all exponents
    if len(set(map(len, vectors))) != 1 or not vectors[0]:
        raise InvalidInput(_SHAPE)
    flat = list(chain.from_iterable(vectors))
    # the type, not isinstance: bool is an int subclass; min only sees ints
    if not set(map(type, flat)) <= {int} or min(flat) < 0:
        raise InvalidInput("exponents must be nonnegative integers")
    return vectors


def _divisible(t: Sequence[int], gens: Iterable[Vector]) -> bool:
    """Whether some exponent tuple in gens divides t."""
    return any(all(a <= b for a, b in zip(g, t)) for g in gens)


def _minimal_vectors(vectors: Iterable[Vector]) -> tuple[Vector, ...]:
    """Minimal elements of a set of exponent vectors under divisibility, sorted.

    A divisor of a vector precedes it among the distinct sorted vectors,
    which settles the first coordinate.  With two coordinates a vector is
    then minimal iff its second exponent is below the running minimum of
    those before it.  Two distinct vectors of one total degree never
    divide each other, so when every vector has the degree of the first,
    tested first against the last, all are minimal.  Otherwise bit j
    stands for vs[j]; for each later coordinate, below[e] marks the
    vectors with that exponent at most e.  The AND marks the divisors of
    vs[j], itself included, so vs[j] is minimal iff that is its own bit.
    """
    vs = sorted(set(vectors))
    if vs and len(vs[0]) == 2:
        kept, low = [], vs[0][1] + 1
        for v in vs:
            if v[1] < low:
                kept.append(v)
                low = v[1]
        return tuple(kept)
    if vs and sum(vs[0]) == sum(vs[-1]) and len(set(map(sum, vs))) == 1:
        return tuple(vs)
    bits = [1 << j for j in range(len(vs))]
    divisors = [(bit << 1) - 1 for bit in bits]
    for column in list(zip(*vs))[1:]:
        at: dict[int, int] = {}
        for e, bit in zip(column, bits):
            at[e] = at.get(e, 0) | bit
        below, running = {}, 0
        for e in sorted(at):
            running |= at[e]
            below[e] = running
        divisors = list(map(and_, divisors, map(below.__getitem__, column)))
    return tuple(v for v, mask, bit in zip(vs, divisors, bits) if mask == bit)


# a NamedTuple body may not define __new__, so the subclass below checks the
# fields; its empty __slots__ leaves no __dict__, so no attribute can be set
class _MonomialIdealFields(NamedTuple):
    gens: tuple[Vector, ...]


class MonomialIdeal(_MonomialIdealFields):
    """Nonzero monomial ideal, stored as its minimal generators."""

    __slots__ = ()

    def __new__(cls, gens: tuple[Vector, ...]) -> "MonomialIdeal":
        # refuses an empty generator set, mixed lengths and length 0
        if len(set(map(len, gens))) != 1 or not gens[0]:
            raise ValueError(_SHAPE)
        return super().__new__(cls, gens)

    @classmethod
    def unit(cls, ambient_dim: int) -> "MonomialIdeal":
        return cls(((0,) * ambient_dim,))

    @property
    def ambient_dim(self) -> int:
        return len(self.gens[0])

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if len(self.gens[0]) != len(other.gens[0]):
            raise ValueError("mixed ambient dimensions")
        # (*map(...),) sizes each tuple exactly; tuple(map(...)) over-allocates
        # and shrinks, which fragments the heap and raises peak RSS
        raw = [(*map(add, a, b),) for a in self.gens for b in other.gens]
        return MonomialIdeal(_minimal_vectors(raw))

    def frobenius(self, s: int) -> "MonomialIdeal":
        """Bracket power: each stored minimal generator raised to the s-th power.

        Scaling by s >= 1 preserves divisibility and lexicographic order,
        so the scaled generators are again minimal and sorted.
        """
        check_positive(s, "s")
        return MonomialIdeal(tuple((*(s * e for e in g),) for g in self.gens))

    def primary_box(self) -> Optional[Vector]:
        """Minimal pure-power exponent per variable, or None if some variable has none."""
        d = len(self.gens[0])
        box: list[Optional[int]] = [None] * d
        for g in self.gens:
            # one pass in C: a pure power has at most one nonzero exponent
            if g.count(0) >= d - 1:
                e = max(g)
                if not e:
                    # unit monomial is a pure power of every variable
                    return (0,) * d
                i = g.index(e)
                if box[i] is None or e < box[i]:
                    box[i] = e
        return None if None in box else tuple(box)  # type: ignore[arg-type]

    def colength(self) -> int:
        """Number of standard monomials, i.e. lattice points below the staircase."""
        if self.primary_box() is None:
            raise InfiniteColength(f"no pure power of every variable in {self}")
        return _count_standard(self.gens)

    def __str__(self) -> str:
        return format_ideal(self)


def minimalize(gens: Iterable[Sequence[int]]) -> MonomialIdeal:
    """Drop every generator divisible by another; idempotent."""
    return MonomialIdeal(_minimal_vectors(_validated(gens)))


def _count_standard(gens: Sequence[Vector]) -> int:
    """Count the points u >= 0 not componentwise above any of the generators.

    gens must be lexicographically sorted, as MonomialIdeal.gens are, and
    m-primary, minimal or not.  So they open at first exponent 0 and reach
    the pure power of x_1 before any larger first exponent.  The slice at
    u_1 = t is the staircase of the tails of the generators with first
    exponent at most t, a growing prefix of gens; it is counted by a
    recursive call only when the prefix has grown, and the walk stops at
    the first tail that is the zero vector, past which every slice is
    inside the ideal.  In one variable a slice is a point and counts 1.
    In two variables a slice is a column whose height is the running
    minimum of the second exponents.
    """
    if len(gens[0]) == 2:
        lo, height, total = 0, gens[0][1], 0
        for a, b in gens:
            if b <= height:
                total += (a - lo) * height
                lo, height = a, b
                if not b:
                    return total
    active: list[Vector] = []
    lo, count, total = 0, 1, 0
    grown = False
    for g in gens:
        a = g[0]
        if a > lo:
            if grown:
                count, grown = _count_standard(active), False
            total += (a - lo) * count
            lo = a
        tail = g[1:]
        if not any(tail):
            return total
        insort(active, tail)
        grown = True


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the CLI text form '2,0;1,3;0,4' into a monomial ideal."""
    try:
        gens = [tuple(int(part) for part in chunk.split(",")) for chunk in text.split(";")]
    except ValueError as exc:
        raise InvalidInput(
            f"bad ideal text {text!r}: expected exponent tuples such as 2,0;1,3;0,4"
        ) from exc
    return minimalize(gens)


def format_ideal(ideal: MonomialIdeal) -> str:
    """Inverse of parse_ideal."""
    return ";".join(",".join(str(e) for e in g) for g in ideal.gens)
