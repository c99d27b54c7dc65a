"""Exact Hilbert-Kunz functions of Rees algebra ideals.

Closed forms for the lengths of R(I)/(I, It)^[s] (and relatives) with
brute-force staircase and Groebner oracles to verify them, all in
exact integer and rational arithmetic.
"""

__version__ = "0.1.0"
