"""dalg: differential equations for operations on D-algebraic functions.

Compute polynomial differential equations satisfied by rational
expressions, compositions, derivatives, and functional inverses of
functions that themselves satisfy such equations, and convert linear
equations with non-constant solution coefficients into polynomial ones.
Everything runs in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .ansatz import ansatz_search, derivative_closure
from .closure import (ClosureResult, arithmetic_dalg, compose_dalg,
                      ddfinite_to_dalg, diff_dalg, inv_dalg, unary_dalg)
from .context import Context
from .diffpoly import ADE, RatFunc, implicit_higher_derivative, normalize_ade
from .errors import (AnsatzNotFoundError, ArgumentError, ContextError,
                     DalgError, DivisionByZeroError, EliminationFailedError,
                     ParseError, ResourceCapError)
from .groebner import GBConfig
from .parser import equation_to_ade, spec_to_ratfunc
from .poly import Poly, pseudo_divide
from .render import render
from .series import SeriesWitness, TruncSeries, verify_series

__all__ = [
    "ADE", "AnsatzNotFoundError", "ArgumentError", "ClosureResult", "Context",
    "ContextError", "DalgError", "DivisionByZeroError",
    "EliminationFailedError", "GBConfig", "ParseError", "Poly", "RatFunc",
    "ResourceCapError", "SeriesWitness", "TruncSeries", "ansatz_search",
    "arithmetic_dalg", "compose_dalg", "ddfinite_to_dalg", "derivative_closure",
    "diff_dalg", "equation_to_ade", "implicit_higher_derivative", "inv_dalg",
    "normalize_ade", "pseudo_divide", "render", "spec_to_ratfunc", "unary_dalg",
    "verify_series",
]
