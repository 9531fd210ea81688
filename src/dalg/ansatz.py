"""Degree-bounded search for equations satisfied by a rational expression.

Instead of elimination, pick a leading monomial in the derivatives of the
target function F, attach unknown rational-function coefficients to every
smaller monomial (plus a constant slot), rewrite all derivatives of F in
terms of the first n_j derivatives of each input dependent, and require the
numerator to vanish identically.  That is a linear system for the unknown
coefficients with polynomial entries.  It is solved exactly by a Bareiss
fraction-free forward pass, where each row step divides exactly by the
previous pivot instead of taking a gcd, and Cramer back-substitution, which
writes every unknown over the last pivot.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from .context import DIFF, PARAM
from .diffpoly import (ADE, RatFunc, implicit_higher_derivative,
                       normalize_ade, rational_substitute)
from .errors import AnsatzNotFoundError, ArgumentError
from .poly import (Poly, content_primitive, poly_gcd, pseudo_divide,
                   try_exact_divide)

_C_PREFIX = "_c"  # reserved names for unknown coefficients (parser rejects them)


@dataclass(frozen=True)
class DeltaMonomial:
    """A monomial in z, z', ..., z^(r): exps[i] is the power of z^(i)."""

    exps: tuple

    @property
    def degree(self) -> int:
        return sum(self.exps)

    @property
    def max_order(self) -> int:
        return max((i for i, e in enumerate(self.exps) if e), default=0)

    def trimmed(self) -> tuple:
        exps = list(self.exps)
        while exps and exps[-1] == 0:
            exps.pop()
        return tuple(exps)

    def sort_key(self):
        return (self.degree, tuple(reversed(self.exps)))


def enumerate_delta(k: int, r: int) -> list:
    """All monomials of degree 1..k in z, ..., z^(r), lowest first:
    by total degree, then graded lexicographic with z^(r) > ... > z."""
    if k < 1 or r < 0:
        raise ArgumentError("need degree bound >= 1 and derivative order >= 0")
    out = []
    for deg in range(1, k + 1):
        for combo in combinations_with_replacement(range(r + 1), deg):
            exps = [0] * (r + 1)
            for i in combo:
                exps[i] += 1
            out.append(DeltaMonomial(tuple(exps)))
    out.sort(key=DeltaMonomial.sort_key)
    return out


def derivative_closure(R: RatFunc, ades, r: int) -> list:
    """z, z', ..., z^(r) as rational functions of x, parameters, and the
    first n_j derivatives of each input dependent."""
    by_dep = {a.dep: a for a in ades}
    vals = [R]
    for _ in range(r):
        d = vals[-1].derivative()
        bindings = {}
        for v in d.variables():
            if v.kind == DIFF and v.indet in by_dep:
                ade = by_dep[v.indet]
                if v.order > ade.order:
                    bindings[v] = implicit_higher_derivative(ade, v.order - ade.order)
        if bindings:
            d = rational_substitute(d, bindings)
        vals.append(d)
    return vals


@dataclass
class LinearSystem:
    """Rows sum(coeffs[i] * C_i) + constant = 0 with polynomial entries."""

    unknowns: list          # the C variables, in slot order
    rows: list              # list of (list[Poly], Poly)


def solve_linear_ratfunc(system: LinearSystem):
    """Fraction-free (Bareiss) elimination with Cramer back-substitution.

    Each step pivots on the nonzero entry of lowest (total degree, terms,
    row, column) among the unused rows and columns, and replaces every other
    unused row by (pivot*row - row[col]*pivot_row) / previous pivot.  By
    Sylvester's identity that division is exact: after k steps every entry
    of an unused row is a (k+1)-minor of the (once content-stripped) input
    matrix, so no gcd is taken while eliminating.  With d the last pivot,
    Cramer's rule makes each pivoted unknown N_i/d with a polynomial N_i,
    found last pivot first by exact division by its own pivot.  Free
    unknowns are set to zero.  Returns the assignment as a list of rational
    functions, or None as soon as a row reads 0 = nonzero constant."""
    if not system.rows:
        raise ArgumentError("empty linear system")
    ncols = len(system.unknowns)
    ctx = system.rows[0][1].ctx
    rows = [list(coeffs) + [const] for coeffs, const in system.rows]
    rows = [_strip_row(r) for r in rows if any(not p.is_zero() for p in r)]

    pivots: list = []           # (pivot row, column) in selection order
    free_cols = list(range(ncols))
    prev = Poly.const(ctx, 1)   # the previous pivot; d once elimination ends
    while True:
        # an unused row that is zero in every free column reads 0 = constant;
        # it stays so, so the system is inconsistent as soon as one appears
        if any(not row[ncols].is_zero() and all(row[c].is_zero() for c in free_cols)
               for row in rows):
            return None
        best = None
        for ri, row in enumerate(rows):
            for ci in free_cols:
                p = row[ci]
                if not p.is_zero():
                    cand = (p.total_degree(), p.num_terms(), ri, ci)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            break
        _, _, ri, ci = best
        prow = rows.pop(ri)
        pivot = prow[ci]
        rows = [[_exact_quotient(pivot * p - row[ci] * q, prev)
                 for p, q in zip(row, prow)] for row in rows]
        free_cols.remove(ci)
        pivots.append((prow, ci))
        prev = pivot

    nums: dict = {}
    for prow, ci in reversed(pivots):
        acc = prow[ncols] * prev
        for cj, n in nums.items():
            if not prow[cj].is_zero():
                acc = acc + prow[cj] * n
        nums[ci] = _exact_quotient(-acc, prow[ci])
    zero = Poly(ctx)
    return [RatFunc(nums.get(ci, zero), prev) for ci in range(ncols)]


def _exact_quotient(p: Poly, d: Poly) -> Poly:
    """p / d, where d is known to divide p."""
    if d.is_constant():
        return p.scale(1 / d.constant_value())
    q = try_exact_divide(p, d)
    if q is None:
        raise RuntimeError("internal error: Bareiss division is not exact")
    return q


def _strip_row(row):
    nonzero = [p for p in row if not p.is_zero()]
    if not nonzero:
        return row
    g = nonzero[0]
    for p in nonzero[1:]:
        if g.is_constant():
            break
        g = poly_gcd(g, p)
    if not g.is_constant():
        row = [p if p.is_zero() else try_exact_divide(p, g) for p in row]
        nonzero = [p for p in row if not p.is_zero()]
    contents = [content_primitive(p)[0] for p in nonzero]
    c = Fraction(0)
    for ci in contents:
        c = Fraction(gcd(c.numerator * ci.denominator, ci.numerator * c.denominator),
                     c.denominator * ci.denominator)
    if c in (0, 1):
        return row
    return [p.scale(1 / c) for p in row]


def assemble_and_solve(ades, R: RatFunc, k: int, r: int, leading: DeltaMonomial,
                       z_name: str = "z", closure_vals=None, value_cache=None):
    """Try the ansatz with the given leading monomial (coefficient one) and
    unknowns on every smaller monomial plus a constant.  Returns the solved
    equation, or None when the linear system is inconsistent."""
    ctx = ades[0].ctx
    if closure_vals is None:
        closure_vals = derivative_closure(R, ades, r)
    if value_cache is None:
        value_cache = {}

    def value(m: DeltaMonomial):
        """(numerator, denominator) of the monomial's rational value; the
        quotient is left unreduced to keep gcd work out of the hot path."""
        key = m.trimmed()
        v = value_cache.get(key)
        if v is None:
            num = Poly.const(ctx, 1)
            den = Poly.const(ctx, 1)
            for i, e in enumerate(m.exps):
                if e:
                    num = num * closure_vals[i].num ** e
                    den = den * closure_vals[i].den ** e
            v = value_cache[key] = (num, den)
        return v

    candidates = enumerate_delta(k, r)
    pos = candidates.index(leading)
    earlier = candidates[:pos]

    c_vars = [ctx.param(f"{_C_PREFIX}{i}") for i in range(len(earlier) + 1)]
    # bring every slot over one shared denominator; the unknowns then enter
    # a single polynomial numerator linearly
    nums, common = _over_lcm(ctx, [value(leading)] + [value(m) for m in earlier])

    numerator = nums[0] + Poly.var(ctx, c_vars[0]) * common
    for i in range(len(earlier)):
        numerator = numerator + Poly.var(ctx, c_vars[i + 1]) * nums[i + 1]
    for ade in ades:
        if numerator.degree(ade.leader) >= ade.leader_degree:
            _, numerator, _ = pseudo_divide(numerator, ade.poly, ade.leader)
    if numerator.is_zero():
        return None

    c_indices = {v.index for v in c_vars}
    dep_ids = {a.dep for a in ades}
    rows: dict = {}
    for mono, coeff in numerator.terms.items():
        y_part, rest = [], []
        for idx, e in mono:
            var = ctx.var_by_index(idx)
            if var.kind == DIFF and var.indet in dep_ids:
                y_part.append((idx, e))
            else:
                rest.append((idx, e))
        row = rows.setdefault(tuple(y_part), {})
        rest = tuple(rest)
        row[rest] = row.get(rest, Fraction(0)) + coeff

    sys_rows = []
    for y_mono in sorted(rows):
        poly = Poly(ctx, rows[y_mono])
        coeffs, const = [], Poly(ctx)
        for cv in c_vars:
            if poly.degree(cv) > 1:
                raise ArgumentError("system is not linear in the unknowns")
            coeffs.append(poly.coeff_in(cv, 1))
        const_terms = {m: c for m, c in poly.terms.items()
                       if not any(idx in c_indices for idx, _ in m)}
        const = Poly(ctx, const_terms)
        sys_rows.append((coeffs, const))

    solution = solve_linear_ratfunc(LinearSystem(list(c_vars), sys_rows))
    if solution is None:
        return None

    z_id = ctx.indeterminate(z_name)

    def z_poly(m: DeltaMonomial) -> Poly:
        p = Poly.const(ctx, 1)
        for i, e in enumerate(m.exps):
            if e:
                p = p * Poly.var(ctx, ctx.diff_var(z_id, i), e)
        return p

    # z_lead + sum s_i*m_i over the lcm L of the s_i denominators: no factor
    # of L divides the numerator (the m_i are distinct monomials in z), so
    # this is the reduced numerator of the sum up to a constant
    slots = [(Poly.const(ctx, 1), solution[0])]
    slots += [(z_poly(m), s) for m, s in zip(earlier, solution[1:])]
    slots = [(zm, s) for zm, s in slots if not s.is_zero()]
    nums, common = _over_lcm(ctx, [(s.num, s.den) for _, s in slots])
    numerator = z_poly(leading) * common
    for (zm, _), n in zip(slots, nums):
        numerator = numerator + zm * n
    return normalize_ade(numerator, dep=z_id)


def _over_lcm(ctx, pairs):
    """Bring (numerator, denominator) pairs over the lcm of the denominators;
    returns the rescaled numerators and the lcm."""
    common = Poly.const(ctx, 1)
    nums: list = []
    for num, den in pairs:
        q = try_exact_divide(common, den)
        if q is not None:
            nums.append(num * q)
            continue
        q = try_exact_divide(den, common)
        if q is None:
            g = poly_gcd(common, den)
            q = try_exact_divide(den, g)
        nums = [n * q for n in nums]
        common = common * q
        nums.append(num * try_exact_divide(common, den))
    return nums, common


def ansatz_search(ades, R: RatFunc, k: int = 2, order_cap=None, z_name: str = "z"):
    """Search leading monomials of degree k in enumeration order, raising the
    derivative order of the ansatz from 0 up to the cap, and return the first
    equation found."""
    if k < 1:
        raise ArgumentError("degree bound must be at least 1")
    ades = list(ades)
    if order_cap is None:
        order_cap = sum(a.order for a in ades) + 1
    value_cache: dict = {}
    closure_vals = derivative_closure(R, ades, order_cap)
    for r in range(order_cap + 1):
        for leading in enumerate_delta(k, r):
            if leading.degree != k:
                continue
            found = assemble_and_solve(
                ades, R, k, r, leading, z_name=z_name,
                closure_vals=closure_vals[: r + 1], value_cache=value_cache,
            )
            if found is not None:
                return found
    raise AnsatzNotFoundError(k, order_cap)
