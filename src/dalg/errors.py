"""Exception hierarchy for the dalg package."""


class DalgError(Exception):
    """Base class for all dalg errors."""


class ContextError(DalgError):
    """Two values from different computation contexts were combined."""


class ArgumentError(DalgError, ValueError):
    """An operation received a value outside its domain."""


class ParseError(DalgError):
    """Syntax error in equation or spec text."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
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
