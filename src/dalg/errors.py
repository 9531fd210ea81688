"""Exception hierarchy for the dalg package."""


class DalgError(Exception):
    """Base class for all dalg errors."""


class ContextError(DalgError):
    """Two values from different computation contexts were combined."""


class ArgumentError(DalgError, ValueError):
    """An operation received a value outside its domain."""


class ParseError(DalgError):
    """Syntax error in equation or spec text, or an input the command line
    cannot take.  ``line`` and ``column`` (from 1) locate a syntax error
    in its text; an error with no source position leaves them None."""

    def __init__(self, message, line=None, column=None):
        where = f" (line {line}, column {column})" if line is not None else ""
        super().__init__(message + where)
        self.line = line
        self.column = column


class DivisionByZeroError(DalgError, ZeroDivisionError):
    """A substitution produced an identically zero denominator."""


class EliminationFailedError(DalgError):
    """No keep-only generator involves the output."""


class ResourceCapError(DalgError):
    """A Groebner computation exceeded the configured degree or size caps."""


class AnsatzNotFoundError(DalgError):
    """The degree-bounded search exhausted all candidates."""

    def __init__(self, degree, max_order):
        super().__init__(
            f"no equation found up to degree {degree} and derivative order {max_order}"
        )
        self.degree = degree
        self.max_order = max_order
