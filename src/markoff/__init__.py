"""Exact arithmetic for the Markoff surface x^2 + y^2 + z^2 = A*x*y*z over
F_p[t]: construction, classification, descent, tree enumeration, and
counting of non-constant polynomial solutions, with brute-force oracles for
every closed-form count."""

from .counting import (
    CountReport,
    CountTerm,
    count_C0,
    count_C_A,
    count_C_beta,
    count_E,
    count_finite_field,
    cumulative_signatures,
    divisors,
    signature_count,
)
from .errors import MarkoffError
from .euclid import (
    EuclidTriple,
    TreeId,
    euclid_branch,
    gamma_reduce,
    layer,
    layers,
    map_unit,
    membership,
)
from .field import PrimeModulus, sqrt_minus_one
from .oracle import (
    CensusReport,
    census,
    enumerate_solutions,
    oracle_C_beta,
    oracle_E,
    write_solutions_jsonl,
)
from .poly import NEG_INF, Polynomial, parse_poly, poly_sqrt, render_poly
from .triples import (
    ConstantForm,
    DoubleNeg,
    MarkoffContext,
    MarkoffTriple,
    Rho,
    RHO,
    Swap,
    TreeNode,
    ZeroForm,
    is_fundamental,
    sort_triple,
)

__all__ = [
    "CensusReport",
    "ConstantForm",
    "CountReport",
    "CountTerm",
    "DoubleNeg",
    "EuclidTriple",
    "MarkoffContext",
    "MarkoffError",
    "MarkoffTriple",
    "NEG_INF",
    "Polynomial",
    "PrimeModulus",
    "RHO",
    "Rho",
    "Swap",
    "TreeId",
    "TreeNode",
    "ZeroForm",
    "census",
    "count_C0",
    "count_C_A",
    "count_C_beta",
    "count_E",
    "count_finite_field",
    "cumulative_signatures",
    "divisors",
    "enumerate_solutions",
    "euclid_branch",
    "gamma_reduce",
    "is_fundamental",
    "layer",
    "layers",
    "map_unit",
    "membership",
    "oracle_C_beta",
    "oracle_E",
    "parse_poly",
    "poly_sqrt",
    "render_poly",
    "signature_count",
    "sort_triple",
    "sqrt_minus_one",
    "write_solutions_jsonl",
]
