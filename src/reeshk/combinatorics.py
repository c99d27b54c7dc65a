"""Exact binomial coefficients, Stirling numbers and related identities.

All values are arbitrary-precision Python integers; polynomial
expansions use exact rational coefficients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Poly


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def binomial(n: int, k: int) -> int:
    """C(n, k) with the vanishing convention C(n, k) = 0 for n < k or n < 0.

    The length formulas downstream rely on out-of-range binomials
    silently vanishing, so the convention is centralized here.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if n < 0:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class StirlingTable:
    """Triangular table of Stirling numbers, built once by recurrence."""

    kind: str  # "first" (signed) or "second"
    max_n: int
    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def build(cls, kind: str, max_n: int) -> "StirlingTable":
        if kind not in ("first", "second"):
            raise ValueError(f"unknown kind {kind!r}")
        if max_n < 0:
            raise ValueError("max_n must be nonnegative")
        rows: list[tuple[int, ...]] = [(1,)]
        for n in range(1, max_n + 1):
            prev = rows[-1]
            row = []
            for k in range(n + 1):
                left = prev[k - 1] if 1 <= k <= n else 0
                mid = prev[k] if k < n else 0
                if kind == "first":
                    # s(n, k) = s(n-1, k-1) - (n-1) * s(n-1, k)
                    row.append(left - (n - 1) * mid)
                else:
                    # S(n, k) = S(n-1, k-1) + k * S(n-1, k)
                    row.append(left + k * mid)
            rows.append(tuple(row))
        return cls(kind, max_n, tuple(rows))

    def value(self, n: int, k: int) -> int:
        if n < 0 or n > self.max_n:
            raise ValueError(f"n={n} outside table range")
        if k < 0 or k > n:
            raise ValueError(f"index (n={n}, k={k}) out of range")
        return self.rows[n][k]


_tables: dict[str, StirlingTable] = {}


def _table(kind: str, n: int) -> StirlingTable:
    tab = _tables.get(kind)
    if tab is None or tab.max_n < n:
        tab = StirlingTable.build(kind, max(n, 32))
        _tables[kind] = tab
    return tab


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k), 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"stirling_first requires 0 <= k <= n, got ({n}, {k})")
    return _table("first", n).value(n, k)


def cycle_count(n: int, k: int) -> int:
    """Number of permutations of n elements with exactly k cycles."""
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"cycle_count requires 0 <= k <= n, got ({n}, {k})")
    s = stirling_first(n, k)
    return s if (n - k) % 2 == 0 else -s


def stirling_second(n: int, k: int) -> int:
    """Number of partitions of an n-set into k blocks; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("stirling_second requires nonnegative arguments")
    if k > n:
        return 0
    return _table("second", n).value(n, k)


def alternating_binomial_sum(d: int, s: int) -> int:
    """Direct summation of sum_{i=0}^{d} (-1)^(d-i) C(d,i) C(is, d+1)."""
    if d < 1 or s < 1:
        raise ValueError("d and s must be positive")
    total = 0
    for i in range(d + 1):
        sign = 1 if (d - i) % 2 == 0 else -1
        total += sign * binomial(d, i) * binomial(i * s, d + 1)
    return total


def alternating_binomial_sum_closed_form(d: int, s: int) -> int:
    """Closed form d * s^d * (s - 1) / 2 of the same alternating sum."""
    if d < 1 or s < 1:
        raise ValueError("d and s must be positive")
    num = d * s**d * (s - 1)
    assert num % 2 == 0
    return num // 2


def binomial_poly_expand(d: int) -> Poly:
    """C(s+d-1, d+1) expanded exactly as a degree-(d+1) polynomial in s.

    Computed from the falling product (s-1) s (s+1) ... (s+d-1) / (d+1)!.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    poly = Poly([1])
    for j in range(-1, d):
        poly = poly * Poly([j, 1])
    return poly * Fraction(1, math.factorial(d + 1))
