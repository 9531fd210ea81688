"""Differential polynomial structure on top of the plain polynomial ring.

Provides the total derivation d/dx (x -> 1, parameters -> 0,
y_j^(k) -> y_j^(k+1), extended by linearity and Leibniz), rational
functions as quotients of polynomials, normalized algebraic differential
equations with leader/initial/separant data, and the implicit rewriting of
higher derivatives of a dependent variable as rational functions of its
first n derivatives.  That rewriting is one step of
:meth:`RatFunc.derivative`: the prolongation D(P) = S*y^(n+1) + rest is
linear in y^(n+1) with the separant S as its coefficient, so the new
leader is replaced by -rest/S inside the unreduced quotient rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .context import DIFF, INDEP, Var, same_context
from .errors import ArgumentError, DivisionByZeroError
from .poly import (Poly, content_primitive, exact_div, mono_from_var, mono_mul,
                   poly_gcd, substitute_fractions, try_exact_divide)


def total_derivative(f: Poly) -> Poly:
    """Total derivation: D(x)=1, D(param)=0, D(y_j^(k)) = y_j^(k+1)."""
    ctx = f.ctx
    out: dict = {}
    for mono, c in f.terms.items():
        for i, (idx, e) in enumerate(mono):
            var = ctx.var_by_index(idx)
            if var.kind not in (INDEP, DIFF):
                continue
            if e > 1:
                rest = mono[:i] + ((idx, e - 1),) + mono[i + 1:]
            else:
                rest = mono[:i] + mono[i + 1:]
            if var.kind == DIFF:
                rest = mono_mul(rest, mono_from_var(ctx.diff_var(var.indet, var.order + 1)))
            out[rest] = out.get(rest, 0) + c * e
    return Poly(ctx, out)


class RatFunc:
    """Reduced quotient of two polynomials; the denominator is primitive
    with positive leading coefficient and coprime to the numerator.
    Equality with a RatFunc, Poly or rational number is tested by
    cross-multiplication; anything else compares unequal.  A RatFunc is
    unhashable."""

    __slots__ = ("num", "den", "ctx")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = den if den is not None else Poly.const(num.ctx, 1)
        same_context(num, den)
        if den.is_zero():
            raise DivisionByZeroError("zero denominator")
        if num.is_zero():
            den = Poly.const(num.ctx, 1)
        elif den.is_constant():
            c_den = den.constant_value()
            if c_den != 1:
                num, den = num.scale(exact_div(1, c_den)), Poly.const(num.ctx, 1)
        else:
            quo = try_exact_divide(num, den)
            if quo is not None:
                num, den = quo, Poly.const(num.ctx, 1)
            else:
                g = poly_gcd(num, den)
                if not g.is_constant():
                    num = try_exact_divide(num, g)
                    den = try_exact_divide(den, g)
                c_den, den = content_primitive(den)
                num = num.scale(exact_div(1, c_den))
        self.num = num
        self.den = den
        self.ctx = num.ctx

    @classmethod
    def of(cls, value, ctx=None) -> "RatFunc":
        if isinstance(value, RatFunc):
            return value
        if isinstance(value, Poly):
            return cls(value)
        return cls(Poly.const(ctx, value))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    def __add__(self, other):
        other = RatFunc.of(other, self.ctx)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    def __sub__(self, other):
        return self + (-RatFunc.of(other, self.ctx))

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFunc(self.num.scale(other), self.den)
        other = RatFunc.of(other, self.ctx)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFunc.of(other, self.ctx)
        if other.is_zero():
            raise DivisionByZeroError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, exp: int):
        if exp < 0:
            return RatFunc(self.den ** (-exp), self.num ** (-exp))
        return RatFunc(self.num ** exp, self.den ** exp)

    def __eq__(self, other):
        if not isinstance(other, (RatFunc, Poly, int, Fraction)):
            return NotImplemented
        other = RatFunc.of(other, self.ctx)
        return self.num * other.den == other.num * self.den

    def __repr__(self):
        if self.is_polynomial():
            c = self.den.constant_value()
            return repr(self.num.scale(exact_div(1, c))) if c != 1 else repr(self.num)
        return f"({self.num!r})/({self.den!r})"

    def derivative(self, ades=()) -> "RatFunc":
        """Total derivative by the quotient rule, reduced once.  Where the
        numerator holds y^(n+1) of an input P = 0 of order n, the linear
        D(P) = S*y^(n+1) + rest replaces it by -rest/S, input by input in
        one pass.  That leaves no y_j^(n_j+1) when no input's rest names
        the y_k^(n_k+1) of an input before it: for the inputs that
        ``derivative_closure`` accepts, whose rests name no y_k^(n_k+1)
        at all, and for the coupled system of a composition."""
        if self.den.terms == {(): 1}:   # the quotient rule's terms with D = 1
            num, den = total_derivative(self.num), self.den
        else:
            num = total_derivative(self.num) * self.den - self.num * total_derivative(self.den)
            den = self.den * self.den
        for ade in ades:
            top = self.ctx.diff_var(ade.dep, ade.order + 1)
            if num.has_var(top):
                rest = total_derivative(ade.poly) - ade.separant * Poly.var(self.ctx, top)
                parts = num.as_univariate(top)
                zero = Poly(self.ctx)
                num = parts.get(0, zero) * ade.separant - parts.get(1, zero) * rest
                den = den * ade.separant
        return RatFunc(num, den)


def rational_substitute(f: RatFunc, bindings: dict) -> RatFunc:
    """Simultaneous substitution Var -> RatFunc; unbound variables pass
    through.  Numerator and denominator each go over their own common
    denominator (:func:`~dalg.poly.substitute_fractions`), and the quotient
    is reduced once."""
    bindings = {v: RatFunc.of(r, f.ctx) for v, r in bindings.items()}
    fractions = {v.index: (r.num, r.den) for v, r in bindings.items()}
    num, num_den = substitute_fractions(f.num, fractions)
    den, den_den = substitute_fractions(f.den, fractions)
    if den.is_zero():
        raise DivisionByZeroError("substitution produced a zero denominator")
    return RatFunc(num * den_den, den * num_den)


@dataclass
class ADE:
    """A normalized algebraic differential equation P = 0 in one dependent
    variable, with cached leader, initial, and separant."""

    ctx: object
    poly: Poly
    dep: int                     # indeterminate id of the dependent variable
    order: int
    leader: Var
    leader_degree: int
    initial: Poly
    separant: Poly

    @property
    def dep_name(self) -> str:
        return self.ctx.indet_name(self.dep)

    @property
    def degree(self) -> int:
        return self.poly.total_degree()

    def __repr__(self):
        from .render import render

        return render(self, "text")


def normalize_ade(poly: Poly, dep: int) -> ADE:
    """Normalize the equation poly = 0 in the dependent ``dep`` (an
    indeterminate id) to a primitive polynomial, and compute order, leader,
    leader degree, initial, and separant."""
    if poly.is_zero():
        raise ArgumentError("equation is identically zero")
    orders = [v.order for v in poly.variables() if v.kind == DIFF and v.indet == dep]
    if not orders:
        raise ArgumentError("equation does not involve the dependent variable")
    n = max(orders)
    leader = poly.ctx.diff_var(dep, n)
    poly = content_primitive(poly)[1]
    m = poly.degree(leader)
    initial = poly.coeff_in(leader, m)
    separant = poly.partial_derivative(leader)
    return ADE(poly.ctx, poly, dep, n, leader, m, initial, separant)


def implicit_higher_derivative(ade: ADE, t: int) -> RatFunc:
    """Express y^(n+t) as a rational function of x, parameters, and
    y, ..., y^(n): the leader differentiated t times, each step rewriting
    y^(n+1) by the linear prolongation; the denominator is a power of the
    separant."""
    if t < 1:
        raise ArgumentError("t must be positive")
    val = RatFunc(Poly.var(ade.ctx, ade.leader))
    for _ in range(t):
        val = val.derivative([ade])
    return val
