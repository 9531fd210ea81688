"""Exact sparse multivariate polynomials over the rationals.

A monomial is a tuple of (variable index, positive exponent) pairs sorted by
variable index; the empty tuple is 1.  A :class:`Poly` maps monomials to
nonzero exact rational coefficients and carries a reference to the shared
:class:`~dalg.context.Context`.  A coefficient is an ``int`` whenever it is
integral and a ``Fraction`` only when it is not, so integer-dominated work
runs on plain ``int`` arithmetic; :func:`exact_div` is the one coefficient
quotient.  All values are immutable after construction and all operations
are pure.

:func:`poly_gcd` is the heuristic gcd GCDHEU, which maps the gcd to one
integer gcd through evaluation at large integers and certifies its answer
by exact division, with primitive pseudo-remainder sequences as the
fallback when six evaluation points fail.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .context import Var, same_context
from .errors import ArgumentError
from .orders import default_order

Mono = tuple  # tuple[tuple[int, int], ...]
ONE: Mono = ()


def exact_coeff(c):
    """c as a coefficient: an int when integral, else a Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise ArgumentError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")


def exact_div(a, b):
    """a / b for exact rationals: an int when the quotient is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact_coeff(Fraction(a) / b)


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


def mono_degree(a: Mono) -> int:
    return sum(e for _, e in a)


def mono_from_var(var: Var, exp: int = 1) -> Mono:
    return ((var.index, exp),) if exp else ONE


class Poly:
    """Immutable sparse polynomial with exact rational coefficients, each an
    ``int`` when integral and a ``Fraction`` otherwise."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {m: c for m, v in (terms or {}).items()
                      if (c := v if type(v) is int else exact_coeff(v))}

    # -- constructors -------------------------------------------------------

    @classmethod
    def const(cls, ctx, value) -> "Poly":
        return cls(ctx, {ONE: value})

    @classmethod
    def var(cls, ctx, var: Var, exp: int = 1) -> "Poly":
        if exp < 0:
            raise ArgumentError("negative exponent")
        return cls(ctx, {mono_from_var(var, exp): 1})

    # -- predicates and views -----------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {ONE}

    def constant_value(self):
        return self.terms.get(ONE, 0)

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

    def sorted_terms(self, order=None):
        """(monomial, coefficient) pairs, leading term first."""
        order = order or default_order(self.ctx)
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        same_context(self, other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            out[mono] = out.get(mono, 0) + c
        return Poly(self.ctx, out)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        same_context(self, other)
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = mono_mul(ma, mb)
                out[mono] = out.get(mono, 0) + ca * cb
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        c = exact_coeff(c)
        if not c:
            return Poly(self.ctx)
        return Poly(self.ctx, {m: co * c for m, co in self.terms.items()})

    def __pow__(self, exp: int) -> "Poly":
        if exp < 0:
            raise ArgumentError("exponent must be non-negative")
        result, base = None, self
        while exp:
            if exp & 1:
                result = base if result is None else result * base
            exp >>= 1
            if exp:
                base = base * base
        return Poly.const(self.ctx, 1) if result is None else result

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
            bucket[rest] = bucket.get(rest, 0) + c
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
                    out[rest] = out.get(rest, 0) + c * e
                    break
        return Poly(self.ctx, out)

    # -- substitution -------------------------------------------------------

    def substitute(self, bindings: dict) -> "Poly":
        """Simultaneously replace variables by polynomials: the one
        substitution loop, :func:`substitute_fractions`, with every
        denominator 1, so the common denominator is 1."""
        one = Poly.const(self.ctx, 1)
        return substitute_fractions(self, {v.index: (p, one) for v, p in bindings.items()})[0]


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


def content_primitive(f: Poly):
    """Split f into (rational content, primitive part).

    The primitive part has coprime integer coefficients and a positive
    leading coefficient under the default order.
    """
    if f.is_zero():
        raise ArgumentError("zero polynomial has no content decomposition")
    den = lcm(*(c.denominator for c in f.terms.values()))
    cleared = {m: c.numerator * (den // c.denominator) for m, c in f.terms.items()}
    g = gcd(*cleared.values())
    # the leading coefficient's sign, found without the order when all
    # coefficients share it
    low, high = min(cleared.values()), max(cleared.values())
    if high < 0 or (low < 0 and f.leading()[1] < 0):
        g = -g
    return exact_div(g, den), Poly(f.ctx, {m: c // g for m, c in cleared.items()})


def primitive_part(f: Poly) -> Poly:
    return content_primitive(f)[1]


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Greatest common divisor, primitive with positive leading coefficient.

    The gcd of two zero polynomials is zero, and the gcd with a nonzero
    constant or with a polynomial sharing no variable is one.  Otherwise
    the heuristic gcd GCDHEU (Char, Geddes & Gonnet 1989) runs on the
    primitive parts f and g:

    * a variable v they share goes to an integer xi >= 2*min(|f|, |g|) + 2,
      |.| the largest absolute coefficient;
    * the gcd gamma of the two images, a polynomial in one variable fewer,
      comes from the same step, down to an integer gcd.  It is the whole
      gcd of the images, integer content included, since that content
      carries the factors in the variables already evaluated;
    * the symmetric xi-adic expansion of gamma, its digits in
      (-xi/2, xi/2] taken as the coefficients of the powers of v, has a
      primitive part h.  If h divides f and g exactly, h is their gcd
      (Geddes, Czapor & Labahn, Algorithms for Computer Algebra, Thm 7.7);
      otherwise xi grows to xi*73794*xi^(1/4)/27011 and the step repeats.

    After six failed points at one level the heuristic gives up, and
    primitive pseudo-remainder sequences (PRS), recursing one variable at a
    time, compute the gcd instead.  Both give the gcd itself, so the result
    does not depend on which ran.
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
    h = _heuristic_gcd(f, g)
    if h is not None:
        return h
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


def _heuristic_gcd(f: Poly, g: Poly):
    """gcd(f, g) over the integers, integer content included, for nonzero
    f and g with integer coefficients, by the GCDHEU step described in
    :func:`poly_gcd`; None when six evaluation points fail at some level."""
    ctx = f.ctx
    cf, cg = gcd(*f.terms.values()), gcd(*g.terms.values())
    content = gcd(cf, cg)
    shared = {i for m in f.terms for i, _ in m} & {i for m in g.terms for i, _ in m}
    if not shared:
        # primitive parts with no common variable are coprime
        return Poly.const(ctx, content)
    f = Poly(ctx, {m: c // cf for m, c in f.terms.items()})
    g = Poly(ctx, {m: c // cg for m, c in g.terms.items()})
    v = ctx.var_by_index(min(shared))
    xi = 2 * min(max(map(abs, f.terms.values())), max(map(abs, g.terms.values()))) + 2
    for _ in range(6):
        fv, gv = _evaluate(f, v, xi), _evaluate(g, v, xi)
        # a zero image (xi a root of a coefficient too large for the
        # bound) would make gamma the other image, which the theorem
        # does not cover
        if not (fv.is_zero() or gv.is_zero()):
            gamma = _heuristic_gcd(fv, gv)
            if gamma is None:
                return None
            h = primitive_part(_interpolate(gamma, v, xi))
            if try_exact_divide(f, h) is not None and try_exact_divide(g, h) is not None:
                return h.scale(content)
        xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def _evaluate(p: Poly, v: Var, xi: int) -> Poly:
    """p with v replaced by the integer xi."""
    out: dict = {}
    powers = {0: 1}
    for mono, c in p.terms.items():
        e = 0
        for i, (idx, k) in enumerate(mono):
            if idx == v.index:
                e, mono = k, mono[:i] + mono[i + 1:]
                break
        if e not in powers:
            powers[e] = xi ** e
        out[mono] = out.get(mono, 0) + c * powers[e]
    return Poly(p.ctx, out)


def _interpolate(gamma: Poly, v: Var, xi: int) -> Poly:
    """The polynomial in v whose coefficients are the symmetric xi-adic
    digits of gamma's: the inverse of :func:`_evaluate` on polynomials
    whose coefficients lie in (-xi/2, xi/2]."""
    out: dict = {}
    half = xi // 2
    for mono, c in gamma.terms.items():
        e = 0
        while c:
            c, digit = divmod(c, xi)
            if digit > half:
                digit -= xi
                c += 1
            if digit:
                out[mono_mul(mono, mono_from_var(v, e))] = digit
            e += 1
    return Poly(gamma.ctx, out)


def try_exact_divide(f: Poly, g: Poly):
    """f / g when the division is exact, else None."""
    same_context(f, g)
    if g.is_zero():
        raise ArgumentError("division by zero polynomial")
    if f.is_zero():
        return f
    if g.is_constant():
        k = g.constant_value()
        return Poly(f.ctx, {m: exact_div(c, k) for m, c in f.terms.items()})
    order = default_order(f.ctx)
    gm, gc = g.leading(order)
    q = Poly(f.ctx)
    r = f
    while not r.is_zero():
        rm, rc = r.leading(order)
        m = mono_div(rm, gm)
        if m is None:
            return None
        t = Poly(f.ctx, {m: exact_div(rc, gc)})
        q = q + t
        r = r - t * g
    return q


def over_lcm(pairs, one, ring=None, nums=()):
    """Bring (numerator, denominator) pairs over the lcm of the denominators;
    returns the rescaled numerators and the lcm, which starts at ``one``.
    The lcm grows by trial division, and by a gcd only when neither of two
    denominators divides the other.  The arithmetic is Poly's, or that of
    ``ring``: its ``mul``, ``quotient`` (exact, else None) and ``gcd``, as
    for the packed polynomials of the ansatz's exact pass.

    ``nums`` are numerators already over ``one``, as an earlier call
    returned them with its lcm: they are rescaled with the rest, so adding
    pairs to a call's result gives what one call over all the pairs gives."""
    if ring is None:
        mul, quotient, greatest = (lambda f, g: f * g), try_exact_divide, poly_gcd
    else:
        mul, quotient, greatest = ring.mul, ring.quotient, ring.gcd
    common, nums = one, list(nums)
    for num, den in pairs:
        if den == common:
            nums.append(num)
            continue
        q = quotient(common, den)
        if q is not None:
            nums.append(mul(num, q))
            continue
        q = quotient(den, common)
        if q is None:
            q = quotient(den, greatest(common, den))
        nums = [mul(n, q) for n in nums]
        common = mul(common, q)
        nums.append(mul(num, quotient(common, den)))
    return nums, common


def substitute_fractions(p: Poly, fractions: dict):
    """Simultaneously replace variables by quotients num/den, given as
    {variable index: (num, den)}; unbound variables pass through.

    Returns (numerator, denominator) with the denominator the lcm of the
    terms' denominators (:func:`over_lcm`), one common denominator for the
    whole sum instead of a reduction per term; when every den is 1 it is 1
    and no lcm is taken.  The terms are grouped by their bound part, so each
    product of powers is formed once, and each power of a bound variable
    is computed once."""
    ctx = p.ctx
    groups: dict = {}   # bound part of a monomial -> {free part: coefficient}
    for mono, c in p.terms.items():
        bound = free = ()
        for t in mono:
            if t[0] in fractions:
                bound += (t,)
            else:
                free += (t,)
        groups.setdefault(bound, {})[free] = c
    one = Poly.const(ctx, 1)
    unit = all(d.terms == one.terms for _, d in fractions.values())
    powers: dict = {}
    pairs = []
    for bound, free in groups.items():
        num, den = Poly(ctx, free), one
        for idx, e in bound:
            if (idx, e) not in powers:
                n, d = fractions[idx]
                powers[idx, e] = n ** e, d ** e
            n, d = powers[idx, e]
            num = num * n
            if not unit:
                den = den * d
        pairs.append((num, den))
    if unit:
        nums, common = [num for num, _ in pairs], one
    else:
        nums, common = over_lcm(pairs, one)
    total: dict = {}
    for part in nums:
        for mono, c in part.terms.items():
            total[mono] = total.get(mono, 0) + c
    return Poly(ctx, total), common
