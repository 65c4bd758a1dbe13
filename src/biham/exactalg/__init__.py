"""Exact arithmetic foundation: rationals, matrices, polynomials (truncated
series are polynomials with an order the caller holds), and exact values at
a rational point on integers (``PointEvaluator.row`` of ``RowForm``s).
``Record`` is the JSON writer every result record derives from, and
``dump_json`` writes JSON text, as ``load_json`` reads it."""

from .evaluate import PointEvaluator, RowForm
from .kernels import BACKEND
from .matrix import Matrix, block_diag, clear_denominators
from .parser import Record, dump_json, is_json_int, load_json, parse_poly, parse_rational
from .poly import Poly, RationalFunction, compose, exact_div, poly_gcd, truncate
from .rational import Rational, parse_int, rat, rat_str
from .smith import smith_invariant_factors
from .upoly import factor_monic, primitive_gcd, squarefree_decomposition

__all__ = [
    "BACKEND", "Matrix", "Poly", "PointEvaluator", "Rational", "RationalFunction", "Record",
    "RowForm", "block_diag", "clear_denominators", "compose", "dump_json", "exact_div",
    "factor_monic", "is_json_int", "load_json", "parse_int", "parse_poly", "parse_rational",
    "poly_gcd", "primitive_gcd", "rat", "rat_str", "smith_invariant_factors",
    "squarefree_decomposition", "truncate",
]
