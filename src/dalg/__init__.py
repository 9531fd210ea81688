"""dalg: differential equations for operations on D-algebraic functions.

Compute polynomial differential equations satisfied by rational
expressions, compositions, derivatives, and functional inverses of
functions that themselves satisfy such equations, and convert linear
equations with non-constant solution coefficients into polynomial ones.
Everything runs in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .ansatz import ansatz_search, derivative_closure
from .closure import (ClosureResult, TriangularSystem, arithmetic_dalg,
                      build_system, compose_dalg, ddfinite_to_dalg, diff_dalg,
                      inv_dalg, select_output, unary_dalg)
from .context import Context, Var
from .diffpoly import (ADE, RatFunc, implicit_higher_derivative,
                       normalize_ade, rational_substitute, total_derivative)
from .errors import (AnsatzNotFoundError, ArgumentError, ContextError,
                     DalgError, DivisionByZeroError, EliminationFailedError,
                     ParseError, ResourceCapError)
from .groebner import (GBConfig, IdealBasis, buchberger, eliminate, reduce)
from .orders import Block, GrevLex, Lex, MonomialOrder, default_order
from .parser import (equation_to_ade, parse_equation, parse_rational_spec,
                     spec_to_ratfunc)
from .poly import Poly, content_primitive, pseudo_divide, try_exact_divide
from .render import poly_to_text, render
from .series import SeriesWitness, TruncSeries, verify_series

__all__ = [
    "ADE", "AnsatzNotFoundError", "ArgumentError", "Block",
    "ClosureResult", "Context", "ContextError", "DalgError",
    "DivisionByZeroError", "EliminationFailedError",
    "GBConfig", "GrevLex", "IdealBasis", "Lex", "MonomialOrder",
    "ParseError", "Poly", "RatFunc", "ResourceCapError", "SeriesWitness",
    "TriangularSystem", "TruncSeries", "Var", "ansatz_search",
    "arithmetic_dalg", "buchberger", "build_system", "compose_dalg",
    "content_primitive", "ddfinite_to_dalg", "default_order",
    "derivative_closure", "diff_dalg", "eliminate", "equation_to_ade",
    "implicit_higher_derivative", "inv_dalg", "normalize_ade",
    "parse_equation", "parse_rational_spec", "poly_to_text",
    "pseudo_divide", "rational_substitute", "reduce", "render",
    "select_output", "spec_to_ratfunc", "total_derivative",
    "try_exact_divide", "unary_dalg", "verify_series",
]
