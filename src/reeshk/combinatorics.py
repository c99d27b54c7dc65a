"""Exact binomial coefficients and the primality test for the characteristic.

`binomial` fixes the vanishing convention the length formulas rely on.
Stirling numbers, the alternating-sum identity and the expanded
binomial polynomial only cross-check the formulas, so they live in
`tests/reference.py`.
"""
from __future__ import annotations

import math


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
