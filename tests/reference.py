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


def graded_length_by_window(ideal: MonomialIdeal, q: int, colength, window: int) -> int:
    """Graded sum for R(I)/(I, It)^[q] over the pieces n < q + window, no equality test.

    Piece n is colength(I^[q] I^n) - colength(I^n) for n < q and
    colength(I^[q] I^(n-q)) - colength(I^n) from n = q on.  Once
    I^[q] I^(n-q) = I^n every later piece is 0, so a window past the
    truncation point gives the whole length.
    """
    frob = ideal.frobenius(q)
    return sum(
        colength(frob.product(ideal.power(n if n < q else n - q))) - colength(ideal.power(n))
        for n in range(q + window)
    )
