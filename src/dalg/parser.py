"""Recursive-descent parser for equations and rational map specs.

Grammar::

    equation := expr ('=' expr)?          (missing right side means "= 0")
    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-'* atom ('^' uint)?
    atom     := number | name primes | name '(' name ')' primes
              | 'diff(' name '(' name ')' (',' name)+ ')'
              | '(' expr ')'

``diff(y(x),x,x)`` takes one comma-separated x per derivative order; prime
notation (``y''``) is accepted as sugar.  Any name that is not the
independent variable and is never applied as ``name(x)`` becomes a
parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diffpoly import RatFunc, normalize_ade
from .errors import ArgumentError, DivisionByZeroError, ParseError
from .poly import Poly, exact_div

# -- AST ---------------------------------------------------------------------


@dataclass
class Node:
    pos: int = 0


@dataclass
class Num(Node):
    value: int = 0


@dataclass
class Name(Node):
    name: str = ""


@dataclass
class Applied(Node):
    """name(x) or a derivative diff(name(x),x,...): order 0 means plain."""

    name: str = ""
    arg: str = ""
    order: int = 0


@dataclass
class Neg(Node):
    operand: Node = None


@dataclass
class Bin(Node):
    op: str = ""
    left: Node = None
    right: Node = None


@dataclass
class Equation(Node):
    lhs: Node = None
    rhs: Node = None  # None means 0


# -- tokenizer ---------------------------------------------------------------

_OPS = set("+-*/^(),='")
_DIGITS = set("0123456789")  # str.isdigit also takes digits int() rejects


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
        else:
            raise _err(text, i, f"unexpected character {ch!r}")
    tokens.append(("end", "", n))
    return tokens


def _err(text: str, pos: int, message: str) -> ParseError:
    line = text.count("\n", 0, pos) + 1
    column = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return ParseError(message, line, column)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise _err(self.text, tok[2], f"expected {want!r}, found {tok[1] or 'end of input'!r}")
        return tok

    def at_op(self, *ops):
        tok = self.peek()
        return tok[0] == "op" and tok[1] in ops

    # -- grammar -------------------------------------------------------------

    def equation(self) -> Equation:
        lhs = self.expr()
        rhs = None
        if self.at_op("="):
            self.next()
            rhs = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise _err(self.text, tok[2], f"unexpected trailing input {tok[1]!r}")
        return Equation(lhs.pos, lhs, rhs)

    def expr(self) -> Node:
        node = self.term()
        while self.at_op("+", "-"):
            _, op, pos = self.next()
            node = Bin(pos, op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.at_op("*", "/"):
            _, op, pos = self.next()
            node = Bin(pos, op, node, self.factor())
        return node

    def factor(self) -> Node:
        if self.at_op("-"):
            _, _, pos = self.next()
            return Neg(pos, self.factor())
        node = self.atom()
        if self.at_op("^"):
            self.next()
            tok = self.expect("num")
            node = Bin(tok[2], "^", node, Num(tok[2], int(tok[1])))
        return node

    def atom(self) -> Node:
        tok = self.next()
        if tok[0] == "num":
            return Num(tok[2], int(tok[1]))
        if tok[0] == "op" and tok[1] == "(":
            node = self.expr()
            self.expect("op", ")")
            return node
        if tok[0] != "name":
            raise _err(self.text, tok[2], f"unexpected {tok[1] or 'end of input'!r}")
        if tok[1] == "diff":
            return self.diff_call(tok[2])
        return self.applied_or_name(tok)

    def applied_or_name(self, tok) -> Node:
        name, pos = tok[1], tok[2]
        primes = 0
        while self.at_op("'"):
            self.next()
            primes += 1
        if self.at_op("("):
            self.next()
            arg = self.expect("name")
            self.expect("op", ")")
            while self.at_op("'"):
                self.next()
                primes += 1
            return Applied(pos, name, arg[1], primes)
        if primes:
            return Applied(pos, name, "", primes)
        return Name(pos, name)

    def diff_call(self, pos) -> Applied:
        self.expect("op", "(")
        fname = self.expect("name")
        self.expect("op", "(")
        arg = self.expect("name")
        self.expect("op", ")")
        order = 0
        while self.at_op(","):
            self.next()
            var = self.expect("name")
            if var[1] != arg[1]:
                raise _err(self.text, var[2],
                           f"derivative variable {var[1]!r} does not match {arg[1]!r}")
            order += 1
        self.expect("op", ")")
        if order == 0:
            raise _err(self.text, pos, "diff(...) needs at least one derivative variable")
        return Applied(pos, fname[1], arg[1], order)


def parse_equation(text: str) -> Equation:
    """Parse one equation (or bare expression, read as '= 0')."""
    return _Parser(text).equation()


def parse_rational_spec(text: str):
    """Parse 'z = rational expression'; returns (output name, expression AST).

    Derivatives inside the spec are rejected; apply the derivative operation
    first instead.
    """
    eq = _Parser(text).equation()
    if eq.rhs is None or not isinstance(eq.lhs, Name):
        raise ParseError("spec must have the form name = expression")
    for node in _walk(eq.rhs):
        if type(node) is Applied and node.order > 0:
            raise _err(text, node.pos, "derivatives are not allowed in a rational spec")
    return eq.lhs.name, eq.rhs


def _walk(node) -> list:
    """The nodes under ``node``, itself included, in pre-order: each node
    before its children, left child before right."""
    out, stack = [], [node]
    while stack:
        n = stack.pop()
        out.append(n)
        kind = type(n)
        if kind is Bin:
            stack.append(n.right)
            stack.append(n.left)
        elif kind is Neg:
            stack.append(n.operand)
        elif kind is Equation:
            if n.rhs is not None:
                stack.append(n.rhs)
            stack.append(n.lhs)
    return out


def applied_names(node) -> list:
    """Names applied as name(x) or differentiated, in order of appearance."""
    return list(dict.fromkeys(n.name for n in _walk(node) if type(n) is Applied))


def lower(node, ctx, deps=()):
    """Convert an expression AST to an exact polynomial, or to a rational
    function where it divides by a non-constant.

    Every node lowers to a :class:`Poly` until a ``/`` meets a divisor
    that is not constant; that quotient, and every node above it, is a
    :class:`RatFunc`.  A constant divisor scales, so its coefficients may
    become Fractions.  The result is term for term the numerator and
    denominator that lowering every node to a ``RatFunc`` gives, and the
    leaves register their variables in the same order, left to right.
    ``deps`` lists names to treat as dependents even when they appear
    unapplied (used for coefficient functions of linear equations).
    """
    deps = set(deps)
    indep = ctx.indep

    def rec(n):
        kind = type(n)
        if kind is Num:
            return Poly.const(ctx, n.value)
        if kind is Name:
            if n.name == indep.name:
                return Poly.var(ctx, indep)
            if n.name in deps:
                return Poly.var(ctx, ctx.diff_var(ctx.indeterminate(n.name), 0))
            return Poly.var(ctx, ctx.param(n.name))
        if kind is Applied:
            if n.arg and n.arg != indep.name:
                raise ParseError(f"independent variable {n.arg!r} does not match "
                                 f"{indep.name!r}")
            try:
                dep = ctx.indeterminate(n.name)
            except ArgumentError as exc:
                raise ParseError(str(exc)) from exc
            return Poly.var(ctx, ctx.diff_var(dep, n.order))
        if kind is Neg:
            return -rec(n.operand)
        if kind is Bin:
            if n.op == "^":
                return rec(n.left) ** n.right.value
            left, right = rec(n.left), rec(n.right)
            if n.op == "/" and type(left) is Poly and type(right) is Poly \
                    and right.is_constant():
                if right.is_zero():
                    raise DivisionByZeroError("division by zero rational function")
                return left.scale(exact_div(1, right.constant_value()))
            if n.op == "/" or type(left) is not type(right):
                left = RatFunc.of(left)
            if n.op == "+":
                return left + right
            if n.op == "-":
                return left - right
            if n.op == "*":
                return left * right
            return left / right
        raise ParseError(f"cannot lower node {n!r}")

    return rec(node)


def equation_to_ade(text_or_node, ctx, dep=None, extra_deps=()):
    """Parse (if needed) and normalize an equation into an ADE.

    The dependent defaults to the unique differentiated name.  The
    equation's polynomial is lhs - rhs, or the numerator of that
    difference when either side lowers to a :class:`RatFunc`.
    """
    node = parse_equation(text_or_node) if isinstance(text_or_node, str) else text_or_node
    applied = [n for n in _walk(node) if type(n) is Applied]
    deps = {n.name for n in applied} | set(extra_deps)
    if dep is None:
        differentiated = sorted({n.name for n in applied if n.order > 0})
        if len(differentiated) != 1:
            raise ParseError("cannot infer the dependent variable; "
                             f"differentiated names: {differentiated}")
        dep = differentiated[0]
    lhs = lower(node.lhs, ctx, deps)
    rhs = lower(node.rhs, ctx, deps) if node.rhs is not None else Poly(ctx)
    if type(lhs) is Poly and type(rhs) is Poly:
        poly = lhs - rhs
    else:
        poly = (RatFunc.of(lhs) - RatFunc.of(rhs)).num
    return normalize_ade(poly, dep=ctx.indeterminate(dep))


def spec_to_ratfunc(text: str, ctx, deps=()):
    """Parse a rational map spec against known dependent names."""
    z_name, node = parse_rational_spec(text)
    return z_name, RatFunc.of(lower(node, ctx, deps))
