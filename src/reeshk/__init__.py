"""Exact Hilbert-Kunz functions of Rees algebra ideals.

Closed forms for the lengths of R(I)/(I, It)^[s] (and relatives) with
brute-force staircase and Groebner oracles to verify them, all in
exact integer and rational arithmetic.
"""

from .hk_formulas import (
    Dim1Input,
    InvalidInput,
    QuasiPolynomialHK,
    binomial,
    c_of_d,
    cm_sop_hk,
    compare_to_eto_yoshida,
    cordim1_hk,
    dim1_hk,
    ehk_cm_sop,
    hilbert_F,
    hilbert_H,
    sop_dim1_hk,
    stanley_reisner_ehk,
)
from .monomial_algebra import (
    InfiniteColength,
    MonomialIdeal,
    minimalize,
    parse_ideal,
)
from .binomial_groebner import (
    ideals_equal,
    quotient_colength,
)
from .polynomials import Poly, interpolate
from .rees_oracle import (
    InconsistentSamples,
    InsufficientSamples,
    OracleError,
    StabilizationNotReached,
    alpha_table,
    estimate_ehk,
    fit_quasi_polynomial,
    parameter_ideal,
    rees_colength_dim1,
    rees_colength_monomial,
)

__version__ = "0.1.0"
