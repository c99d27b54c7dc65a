"""Monomial ideals with exact staircase colengths.

A monomial is its exponent tuple, and an ideal keeps its minimal
generators as a lexicographically sorted tuple of such tuples.
Exponent tuples from outside the module are checked once, by
`_validated`, at the public constructors (`minimalize`,
`MonomialIdeal.from_exponents`, `parse_ideal`); products, powers and
bracket powers of ideals already built pass their tuples straight on.
Colength is computed by walking the bounding box given by the
pure-power generators, slicing one variable at a time and pruning
slices that are already inside the ideal; an independent
inclusion-exclusion count is provided as a cross-check oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from operator import add
from typing import Iterable, Optional, Sequence

Vector = tuple[int, ...]


class InfiniteColength(Exception):
    """The quotient is not finite dimensional (no pure power of some variable)."""


class ResourceCapExceeded(Exception):
    """A bounding box exceeded the caller-supplied lattice point cap."""


def _validated(
    gens: Iterable[Sequence[int]],
    ambient_dim: Optional[int] = None,
    nonempty: bool = False,
) -> list[Vector]:
    """Exponent tuples from outside, checked: nonnegative ints of one length.

    The length is ambient_dim if given, else that of the first tuple;
    nonempty rejects an empty generator set.
    """
    vectors = [tuple(g) for g in gens]
    if nonempty and not vectors:
        raise ValueError("generator set must be nonempty")
    if ambient_dim is None and vectors:
        ambient_dim = len(vectors[0])
    if any(len(v) != ambient_dim for v in vectors):
        raise ValueError(f"generators must all have {ambient_dim} exponents")
    # type(e) is int, not isinstance: bool is an int subclass
    if any(type(e) is not int or e < 0 for v in vectors for e in v):
        raise ValueError("exponents must be nonnegative integers")
    return vectors


def _divisible(t: Sequence[int], gens: Iterable[Vector]) -> bool:
    """Whether some exponent tuple in gens divides t."""
    return any(all(a <= b for a, b in zip(g, t)) for g in gens)


def _minimal_vectors(vectors: Iterable[Vector]) -> tuple[Vector, ...]:
    """Minimal elements of a set of exponent vectors under divisibility, sorted.

    Vectors of equal degree never divide one another, so divisibility
    is only tested against kept vectors of strictly smaller degree.
    """
    ordered = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept: list[Vector] = []
    kept_degrees: list[int] = []
    for v in ordered:
        deg = sum(v)
        divisible = False
        for k, kdeg in zip(kept, kept_degrees):
            if kdeg >= deg:
                break
            if all(a <= b for a, b in zip(k, v)):
                divisible = True
                break
        if not divisible:
            kept.append(v)
            kept_degrees.append(deg)
    return tuple(sorted(kept))


@dataclass(frozen=True)
class MonomialIdeal:
    """Finitely generated monomial ideal, stored with minimal generators."""

    ambient_dim: int
    gens: tuple[Vector, ...]

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ValueError("ambient_dim must be positive")
        if any(len(g) != self.ambient_dim for g in self.gens):
            raise ValueError("mixed ambient dimensions")

    @classmethod
    def zero(cls, ambient_dim: int) -> "MonomialIdeal":
        return cls(ambient_dim, ())

    @classmethod
    def unit(cls, ambient_dim: int) -> "MonomialIdeal":
        return cls(ambient_dim, ((0,) * ambient_dim,))

    @classmethod
    def from_exponents(
        cls, ambient_dim: int, exponents: Iterable[Sequence[int]]
    ) -> "MonomialIdeal":
        return minimalize(exponents, ambient_dim=ambient_dim)

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return any(not any(g) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        """Ideal containment: every generator of other lies in self."""
        return all(_divisible(h, self.gens) for h in other.gens)

    def product(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("mixed ambient dimensions")
        if self.is_zero or other.is_zero:
            return MonomialIdeal.zero(self.ambient_dim)
        # (*map(...),) sizes each tuple exactly; tuple(map(...)) over-allocates
        # and shrinks, which fragments the heap and raises peak RSS
        raw = [(*map(add, a, b),) for a in self.gens for b in other.gens]
        return MonomialIdeal(self.ambient_dim, _minimal_vectors(raw))

    def power(self, k: int) -> "MonomialIdeal":
        if k < 0:
            raise ValueError("negative power")
        result = MonomialIdeal.unit(self.ambient_dim)
        for _ in range(k):
            result = result.product(self)
        return result

    def frobenius(self, s: int) -> "MonomialIdeal":
        """Bracket power: each stored minimal generator raised to the s-th power.

        Scaling by s >= 1 preserves divisibility and lexicographic order,
        so the scaled generators are again minimal and sorted.
        """
        if s < 1:
            raise ValueError("s must be positive")
        return MonomialIdeal(
            self.ambient_dim, tuple((*(s * e for e in g),) for g in self.gens)
        )

    def primary_box(self) -> Optional[Vector]:
        """Minimal pure-power exponent per variable, or None if some variable has none."""
        box: list[Optional[int]] = [None] * self.ambient_dim
        for g in self.gens:
            support = [i for i, e in enumerate(g) if e > 0]
            if len(support) == 0:
                # unit monomial is a pure power of every variable
                return (0,) * self.ambient_dim
            if len(support) == 1:
                i = support[0]
                e = g[i]
                if box[i] is None or e < box[i]:
                    box[i] = e
        if any(b is None for b in box):
            return None
        return tuple(box)  # type: ignore[arg-type]

    def colength(self, box_cap: Optional[int] = None) -> int:
        """Number of standard monomials, i.e. lattice points below the staircase."""
        box = self.primary_box()
        if box is None:
            raise InfiniteColength(f"no pure power of every variable in {self}")
        if box_cap is not None and prod(box) > box_cap:
            raise ResourceCapExceeded(
                f"bounding box {box} has {prod(box)} points, cap is {box_cap}"
            )
        return _count_standard(self.gens, box)

    def __str__(self) -> str:
        return format_ideal(self)


def minimalize(
    gens: Iterable[Sequence[int]], ambient_dim: Optional[int] = None
) -> MonomialIdeal:
    """Drop every generator divisible by another; idempotent."""
    vectors = _validated(gens, ambient_dim)
    if ambient_dim is None:
        if not vectors:
            raise ValueError("ambient_dim required for an empty generator set")
        ambient_dim = len(vectors[0])
    return MonomialIdeal(ambient_dim, _minimal_vectors(vectors))


def _count_standard(gens: Sequence[Vector], box: Vector) -> int:
    """Count points u with 0 <= u_i < box_i not componentwise above any generator.

    Walks the first coordinate in runs between consecutive generator
    exponents (the active generator set is constant on each run) and
    recurses on the projection; the last coordinate is counted in one
    step as the smallest active exponent.
    """
    if not gens:
        raise InfiniteColength("no generators")
    n = len(box)
    if n == 1:
        # every point below the smallest active pure power survives
        return min(g[0] for g in gens)
    thresholds = sorted({g[0] for g in gens if g[0] < box[0]} | {0, box[0]})
    total = 0
    for lo, hi in zip(thresholds, thresholds[1:]):
        active = [g[1:] for g in gens if g[0] <= lo]
        if any(all(e == 0 for e in g) for g in active):
            continue  # slice fully inside the ideal
        if active:
            slice_count = _count_standard(active, box[1:])
        else:
            slice_count = prod(box[1:])
        total += (hi - lo) * slice_count
    return total


def colength_by_inclusion_exclusion(ideal: MonomialIdeal) -> int:
    """Independent colength via inclusion-exclusion over generator subsets.

    Exponential in the number of generators; retained as a cross-check
    oracle for the staircase walk.
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


def parse_ideal(text: str, ambient_dim: Optional[int] = None) -> MonomialIdeal:
    """Parse the CLI text form '2,0;1,3;0,4' into a monomial ideal."""
    text = text.strip()
    if not text:
        if ambient_dim is None:
            raise ValueError("ambient_dim required for an empty ideal")
        return MonomialIdeal.zero(ambient_dim)
    gens = []
    for chunk in text.split(";"):
        try:
            gens.append(tuple(int(part) for part in chunk.split(",")))
        except ValueError as exc:
            raise ValueError(f"bad exponent tuple {chunk!r}") from exc
    return minimalize(gens, ambient_dim=ambient_dim)


def format_ideal(ideal: MonomialIdeal) -> str:
    """Inverse of parse_ideal; the zero ideal formats as ''."""
    return ";".join(",".join(str(e) for e in g) for g in ideal.gens)
