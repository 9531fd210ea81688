"""Exact sparse multivariate polynomials over the rationals.

A monomial is a tuple of (variable index, positive exponent) pairs sorted by
variable index; the empty tuple is 1.  A :class:`Poly` maps monomials to
nonzero ``Fraction`` coefficients and carries a reference to the shared
:class:`~dalg.context.Context`.  All values are immutable after construction
and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .context import Var, same_context
from .errors import ArgumentError
from .orders import default_order

Mono = tuple  # tuple[tuple[int, int], ...]
ONE: Mono = ()


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for idx, e in b:
        exps[idx] = exps.get(idx, 0) + e
    return tuple(sorted(exps.items()))


def mono_div(a: Mono, b: Mono):
    """a / b, or None when b does not divide a."""
    exps = dict(a)
    for idx, e in b:
        have = exps.get(idx, 0) - e
        if have < 0:
            return None
        if have == 0:
            del exps[idx]
        else:
            exps[idx] = have
    return tuple(sorted(exps.items()))


def mono_divides(b: Mono, a: Mono) -> bool:
    exps = dict(a)
    return all(exps.get(idx, 0) >= e for idx, e in b)


def mono_lcm(a: Mono, b: Mono) -> Mono:
    exps = dict(a)
    for idx, e in b:
        exps[idx] = max(exps.get(idx, 0), e)
    return tuple(sorted(exps.items()))


def mono_degree(a: Mono) -> int:
    return sum(e for _, e in a)


def mono_from_var(var: Var, exp: int = 1) -> Mono:
    return ((var.index, exp),) if exp else ONE


class Poly:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, ctx) -> "Poly":
        return cls(ctx)

    @classmethod
    def const(cls, ctx, value) -> "Poly":
        value = Fraction(value)
        return cls(ctx, {ONE: value} if value else {})

    @classmethod
    def var(cls, ctx, var: Var, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ArgumentError("negative exponent")
        return cls(ctx, {mono_from_var(var, exp): Fraction(1)})

    # -- predicates and views -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {ONE}

    def constant_value(self) -> Fraction:
        return self.terms.get(ONE, Fraction(0))

    def variables(self) -> set:
        """Set of Vars actually appearing."""
        seen = {idx for mono in self.terms for idx, _ in mono}
        return {self.ctx.var_by_index(i) for i in seen}

    def has_var(self, var: Var) -> bool:
        return any(idx == var.index for mono in self.terms for idx, _ in mono)

    def degree(self, var: Var) -> int:
        """Degree in one variable (0 for the zero polynomial)."""
        d = 0
        for mono in self.terms:
            for idx, e in mono:
                if idx == var.index and e > d:
                    d = e
        return d

    def total_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def num_terms(self) -> int:
        return len(self.terms)

    def leading(self, order=None):
        """(monomial, coefficient) of the leading term under the order."""
        if not self.terms:
            raise ArgumentError("zero polynomial has no leading term")
        order = order or default_order(self.ctx)
        mono = max(self.terms, key=order.key)
        return mono, self.terms[mono]

    def sorted_terms(self, order=None, reverse=True):
        order = order or default_order(self.ctx)
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=reverse)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        same_context(self, other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, Fraction(0)) + c
        return Poly(self.ctx, out)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        same_context(self, other)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = mono_mul(ma, mb)
                out[mono] = out.get(mono, Fraction(0)) + ca * cb
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(self.ctx)
        return Poly(self.ctx, {m: co * c for m, co in self.terms.items()})

    def __pow__(self, exp: int) -> "Poly":
        if exp < 0:
            raise ArgumentError("exponent must be non-negative")
        result = Poly.const(self.ctx, 1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base if exp > 1 else base
            exp >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.ctx), frozenset(self.terms.items())))

    def __repr__(self):
        from .render import poly_to_text

        return poly_to_text(self) if self.terms else "0"

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(self.ctx, other)

    # -- structure in one variable ------------------------------------------

    def as_univariate(self, var: Var) -> dict:
        """Map exponent of var -> coefficient Poly free of var."""
        out: dict = {}
        for mono, c in self.terms.items():
            k = 0
            rest = []
            for idx, e in mono:
                if idx == var.index:
                    k = e
                else:
                    rest.append((idx, e))
            bucket = out.setdefault(k, {})
            rest = tuple(rest)
            bucket[rest] = bucket.get(rest, Fraction(0)) + c
        return {k: Poly(self.ctx, terms) for k, terms in out.items()}

    def coeff_in(self, var: Var, k: int) -> "Poly":
        """Coefficient of var**k as a polynomial free of var."""
        return self.as_univariate(var).get(k, Poly(self.ctx))

    def partial_derivative(self, var: Var) -> "Poly":
        out: dict = {}
        for mono, c in self.terms.items():
            for i, (idx, e) in enumerate(mono):
                if idx == var.index:
                    if e > 1:
                        rest = mono[:i] + ((idx, e - 1),) + mono[i + 1:]
                    else:
                        rest = mono[:i] + mono[i + 1:]
                    out[rest] = out.get(rest, Fraction(0)) + c * e
                    break
        return Poly(self.ctx, out)

    # -- substitution -------------------------------------------------------

    def substitute(self, bindings: dict) -> "Poly":
        """Simultaneously replace variables by polynomials."""
        if not bindings:
            return self
        by_index = {v.index: p for v, p in bindings.items()}
        powers: dict = {}

        def power(idx, e):
            cached = powers.get((idx, e))
            if cached is None:
                cached = powers[(idx, e)] = by_index[idx] ** e
            return cached

        result = Poly(self.ctx)
        for mono, c in self.terms.items():
            factor = Poly.const(self.ctx, c)
            for idx, e in mono:
                if idx in by_index:
                    factor = factor * power(idx, e)
                else:
                    factor = factor * Poly(self.ctx, {((idx, e),): Fraction(1)})
            result = result + factor
        return result


def pseudo_divide(f: Poly, g: Poly, leader: Var):
    """Pseudo-division of f by g viewed as univariate in the leader.

    Returns (quotient, remainder, power) with
    ``lc**power * f == quotient * g + remainder`` and the remainder of
    leader-degree below g's, where lc is g's leading coefficient in the
    leader.
    """
    same_context(f, g)
    d = g.degree(leader)
    if d == 0:
        raise ArgumentError("divisor must have positive degree in the leader")
    lc = g.coeff_in(leader, d)
    q = Poly(f.ctx)
    r = f
    power = 0
    while not r.is_zero():
        df = r.degree(leader)
        if df < d:
            break
        t = r.coeff_in(leader, df) * Poly.var(f.ctx, leader, df - d)
        r = lc * r - t * g
        q = lc * q + t
        power += 1
    return q, r, power


def content_primitive(f: Poly, order=None):
    """Split f into (rational content, primitive part).

    The primitive part has coprime integer coefficients and a positive
    leading coefficient under the given (or default) order.
    """
    if f.is_zero():
        raise ArgumentError("zero polynomial has no content decomposition")
    den_lcm = 1
    for c in f.terms.values():
        den_lcm = lcm(den_lcm, c.denominator)
    num_gcd = 0
    for c in f.terms.values():
        num_gcd = gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    content = Fraction(num_gcd, den_lcm)
    _, lead = f.leading(order)
    if lead < 0:
        content = -content
    return content, f.scale(1 / content)


def primitive_part(f: Poly, order=None) -> Poly:
    return content_primitive(f, order)[1]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Greatest common divisor, primitive with positive leading coefficient.

    Primitive pseudo-remainder sequences, recursing one variable at a time;
    the gcd of two zero polynomials is zero and the gcd with a nonzero
    constant is one.
    """
    same_context(f, g)
    if f.is_zero():
        return f if g.is_zero() else primitive_part(g)
    if g.is_zero():
        return primitive_part(f)
    f, g = primitive_part(f), primitive_part(g)
    if f.is_constant() or g.is_constant():
        return Poly.const(f.ctx, 1)
    # a divisor only involves variables of its multiple
    shared = f.variables() & g.variables()
    if not shared:
        return Poly.const(f.ctx, 1)
    v = min(shared, key=lambda w: (min(f.degree(w), g.degree(w)), w.index))

    def cont_pp(p):
        """(content, primitive part) of p viewed as univariate in v."""
        coeffs = list(p.as_univariate(v).values())
        c = coeffs[0]
        for q in coeffs[1:]:
            if c.is_constant():
                break
            c = poly_gcd(c, q)
        if c.is_constant():
            return Poly.const(p.ctx, 1), primitive_part(p)
        return c, try_exact_divide(primitive_part(p), c)

    cf, pf = cont_pp(f)
    cg, pg = cont_pp(g)
    c = poly_gcd(cf, cg)
    a, b = (pf, pg) if pf.degree(v) >= pg.degree(v) else (pg, pf)
    while not b.is_zero():
        if b.degree(v) == 0:
            # v-primitive inputs share no v-free factor beyond their contents
            return primitive_part(c)
        _, r, _ = pseudo_divide(a, b, v)
        if not r.is_zero():
            r = cont_pp(primitive_part(r))[1]
        a, b = b, r
    return primitive_part(c * a)


def try_exact_divide(f: Poly, g: Poly):
    """f / g when the division is exact, else None."""
    same_context(f, g)
    if g.is_zero():
        raise ArgumentError("division by zero polynomial")
    if f.is_zero():
        return f
    order = default_order(f.ctx)
    gm, gc = g.leading(order)
    q = Poly(f.ctx)
    r = f
    while not r.is_zero():
        rm, rc = r.leading(order)
        m = mono_div(rm, gm)
        if m is None:
            return None
        t = Poly(f.ctx, {m: rc / gc})
        q = q + t
        r = r - t * g
    return q
