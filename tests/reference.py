"""Slow, obviously correct references that the tests check the package against.

Nothing here is fast; each function is written to be read, not run at
scale.
"""
from math import prod

from reeshk.monomial_algebra import InfiniteColength, MonomialIdeal


def minimal_vectors_reference(vectors):
    """Sorted distinct vectors that no other distinct vector divides."""
    vs = set(vectors)
    return tuple(
        sorted(
            v for v in vs
            if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vs)
        )
    )


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
