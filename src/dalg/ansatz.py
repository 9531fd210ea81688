"""Degree-bounded search for equations satisfied by a rational expression.

Instead of elimination, pick a leading monomial in the derivatives of the
target function F, attach unknown rational-function coefficients to every
smaller monomial (plus a constant slot), rewrite all derivatives of F in
terms of the first n_j derivatives of each input dependent, and require the
numerator to vanish identically.  That is a linear system for the unknown
coefficients with polynomial entries, built from its columns: one
polynomial per slot, the slot's value over the common denominator of all
slots, pseudo-reduced by the input equations.  The lead's column is the
constant, and the unknowns are never variables of the polynomial ring.  The
system is solved exactly by a Bareiss fraction-free forward pass, where
each row step divides exactly by the previous pivot instead of taking a
gcd, and Cramer back-substitution, which writes every unknown i as N_i/d
over the last pivot d.  The solve runs on the Groebner kernel's packed
monomials (:class:`dalg.groebner._Kernel`), with the field width taken
from the Bareiss degree bound, the sum over the rows of each row's largest
entry degree; only N and d are decoded back to :class:`Poly`.  The
equation is d*z_lead + sum N_i*m_i, divided once by
g = gcd(d, N_0, ..., N_k); no row and no unknown is reduced on the way.
A power of z that divides every term is then divided out: it is the
spurious branch z = 0 that a lead of degree exactly k brings when an
equation of lower degree exists.

Most candidates fail, so a failure is proven before the exact pass: every
entry of the system is evaluated at a fixed point modulo the prime
q = 2^31 - 1, each variable (x or a parameter) at a power of 7.  Full
column rank of [A|b] there means that some maximal minor is nonzero at
the point, hence a nonzero polynomial (Schwartz, J. ACM 1980), so the
exact system is inconsistent and its exact pass is skipped.  The test
declines only when an entry's coefficient has a denominator divisible by
q or there are fewer rows than columns; a declined or rank-short
candidate takes the exact pass, so the equation found is the same either
way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm

from .closure import _check_inputs, _output_id
from .context import DIFF
from .diffpoly import RatFunc, normalize_ade
from .errors import AnsatzNotFoundError, ArgumentError
from .groebner import _Kernel
from .orders import GrevLex
from .poly import Poly, mono_div, over_lcm, poly_gcd, try_exact_divide

_Q = 2 ** 31 - 1  # the prime of the miss certificate


def enumerate_delta(k: int, r: int) -> list:
    """All monomials of degree 1..k in z, ..., z^(r) as exponent tuples
    (entry i is the power of z^(i)), lowest first: by total degree, then
    graded lexicographic with z^(r) > ... > z."""
    if k < 1 or r < 0:
        raise ArgumentError("need degree bound >= 1 and derivative order >= 0")
    out = []
    for deg in range(1, k + 1):
        for combo in combinations_with_replacement(range(r + 1), deg):
            exps = [0] * (r + 1)
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    out.sort(key=lambda m: (sum(m), m[::-1]))
    return out


def derivative_closure(R: RatFunc, ades, r: int) -> list:
    """z, z', ..., z^(r) as rational functions of x, parameters, and the
    first n_j derivatives of each input dependent.  Each value is the
    previous one's :meth:`RatFunc.derivative`, which replaces every input's
    y_j^(n_j+1) by its linear prolongation in one polynomial step, so the
    inputs and R must be of the class that
    :func:`dalg.closure._check_inputs` checks."""
    ades = list(ades)
    _check_inputs(ades, R)
    vals = [R]
    for _ in range(r):
        vals.append(vals[-1].derivative(ades))
    return vals


@dataclass
class LinearSystem:
    """Rows sum(coeffs[i] * C_i) + constant = 0 with polynomial entries."""

    unknowns: list          # the slot monomials of z, in column order
    rows: list              # list of (list[Poly], Poly)


def solve_linear_ratfunc(system: LinearSystem):
    """Fraction-free (Bareiss) elimination with Cramer back-substitution.

    Each step pivots on the nonzero entry of lowest (total degree, terms,
    row, column) among the unused rows and columns, and replaces every other
    unused row by (pivot*row - row[col]*pivot_row) / previous pivot.  By
    Sylvester's identity that division is exact: after k steps every entry
    of an unused row is a (k+1)-minor of the input matrix, so no gcd is
    taken at all.  With d the last pivot, Cramer's rule makes each pivoted
    unknown N_i/d with a polynomial N_i, found last pivot first by exact
    division by its own pivot; free unknowns get N_i = 0.  Returns the pair
    (N, d), left unreduced, or None as soon as a row reads 0 = nonzero
    constant.

    The rows are encoded once into the Groebner kernel's packed monomials
    under GrevLex, whose leading monomial carries the total degree, and only
    N and d are decoded.  Every entry, pivot and numerator is a minor of
    [A|b], of degree at most the sum over the rows of each row's largest
    entry degree; the fields are sized for a product of two of them."""
    if not system.rows:
        raise ArgumentError("empty linear system")
    ncols = len(system.unknowns)
    ctx = system.rows[0][1].ctx
    entries = [[*coeffs, const] for coeffs, const in system.rows]
    variables = set().union(*(p.variables() for row in entries for p in row))
    bound = sum(max(p.total_degree() for p in row) for row in entries)
    K = _Kernel(GrevLex(sorted(variables, key=lambda v: v.index)), bound, variables)
    rows = [[K.sort(K.encode(p)) for p in row] for row in entries]

    def divide(work, g):
        q = K.quotient(work, g)
        if q is None:
            raise RuntimeError("internal error: Bareiss division is not exact")
        return q

    zero = ([], [])
    pivots: list = []           # (pivot row, column) in selection order
    free_cols = list(range(ncols))
    prev = ([0], [1])           # the previous pivot; d once elimination ends
    while True:
        # an unused row that is zero in every free column reads 0 = constant;
        # it stays so, so the system is inconsistent as soon as one appears
        if any(row[ncols][0] and not any(row[c][0] for c in free_cols)
               for row in rows):
            return None
        best = None
        for ri, row in enumerate(rows):
            for ci in free_cols:
                monos = row[ci][0]
                if monos:
                    cand = (K.degree(monos[0]), len(monos), ri, ci)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            break
        _, _, ri, ci = best
        prow = rows.pop(ri)
        pivot = prow[ci]
        free_cols.remove(ci)
        # a pivoted column is zero in every unused row, so only the free
        # columns and the constant change
        for row in rows:
            monos, coefs = row[ci]
            factor = (monos, [-c for c in coefs])
            for c in (*free_cols, ncols):
                work = K.product(pivot, row[c])
                row[c] = divide(K.product(factor, prow[c], work), prev)
            row[ci] = zero
        pivots.append((prow, ci))
        prev = pivot

    nums: dict = {}
    for prow, ci in reversed(pivots):
        work = K.product(prow[ncols], prev)
        for cj, n in nums.items():
            K.product(prow[cj], n, work)
        monos, coefs = divide(work, prow[ci])
        nums[ci] = (monos, [-c for c in coefs])

    def decode(p) -> Poly:
        return Poly(ctx, dict(zip(map(K.decode, p[0]), p[1])))

    return [decode(nums.get(ci, zero)) for ci in range(ncols)], decode(prev)


def assemble_and_solve(ades, leading, earlier, closure_vals, value_cache: dict,
                       z_name: str = "z"):
    """Try the ansatz with the given leading monomial (coefficient one) and
    unknowns on the earlier monomials plus a constant slot, all exponent
    tuples.  Returns the solved equation, or None when the linear system is
    inconsistent.

    The columns are the constant slot's (the common denominator), the
    earlier monomials' and last the lead's, the system's constant.  They
    are pseudo-reduced by each input in lockstep: a step takes the largest
    leader degree over all columns, multiplies every column by the input's
    initial and cancels each column's own top coefficient, which is
    pseudo-division of sum c_i*col_i term for term.  Each monomial in the
    input dependents then gives one row.  A system the miss certificate
    proves inconsistent skips the exact pass."""
    unknowns = [(0,) * len(leading)] + earlier
    ctx = ades[0].ctx

    def value(m):
        """(numerator, denominator) of the monomial's rational value; the
        quotient is left unreduced to keep gcd work out of the hot path."""
        key = tuple((i, e) for i, e in enumerate(m) if e)  # same for every r
        v = value_cache.get(key)
        if v is None:
            num = Poly.const(ctx, 1)
            den = Poly.const(ctx, 1)
            for i, e in key:
                num = num * closure_vals[i].num ** e
                den = den * closure_vals[i].den ** e
            v = value_cache[key] = (num, den)
        return v

    nums, common = over_lcm(ctx, [value(leading)] + [value(m) for m in earlier])
    cols = [common, *nums[1:], nums[0]]
    for ade in ades:
        leader, d = ade.leader, ade.leader_degree
        lc = ade.poly.coeff_in(leader, d)
        while (top := max(c.degree(leader) for c in cols)) >= d:
            shift = Poly.var(ctx, leader, top - d)
            cols = [lc * c - c.coeff_in(leader, top) * shift * ade.poly for c in cols]
    if all(c.is_zero() for c in cols):
        return None

    # one row per monomial in the input dependents; a column's term lands
    # in that row with the rest of its monomial
    dep_ids = {a.dep for a in ades}
    rows: dict = {}
    for j, col in enumerate(cols):
        for mono, coeff in col.terms.items():
            y_part, rest = [], []
            for idx, e in mono:
                var = ctx.var_by_index(idx)
                is_y = var.kind == DIFF and var.indet in dep_ids
                (y_part if is_y else rest).append((idx, e))
            row = rows.setdefault(tuple(y_part), [{} for _ in cols])
            row[j][tuple(rest)] = coeff

    # each row times the lcm of its denominators, so that the solve runs
    # on integers
    sys_rows = []
    for y_mono in sorted(rows):
        entries = rows[y_mono]
        den = lcm(*(c.denominator for terms in entries for c in terms.values()))
        if den != 1:
            entries = [{m: c * den for m, c in terms.items()} for terms in entries]
        row = [Poly(ctx, terms) for terms in entries]
        sys_rows.append((row[:-1], row[-1]))

    system = LinearSystem(unknowns, sys_rows)
    if _certified_miss(system):
        return None
    solution = solve_linear_ratfunc(system)
    if solution is None:
        return None
    sol, d = solution

    z_id = ctx.indeterminate(z_name)

    def z_poly(m) -> Poly:
        p = Poly.const(ctx, 1)
        for i, e in enumerate(m):
            if e:
                p = p * Poly.var(ctx, ctx.diff_var(z_id, i), e)
        return p

    # d*z_lead + sum N_i*m_i over g = gcd(d, N_0, ..., N_k): for each prime
    # its exponent in d/g is the largest in any reduced denominator of
    # N_i/d, so up to a constant this is the numerator of z_lead + sum
    # (N_i/d)*m_i over the lcm of those denominators (the m_i are distinct
    # monomials in z, so no factor of d/g divides it)
    g = d
    for n in sol:
        if g.is_constant():
            break
        if try_exact_divide(n, g) is None:
            g = poly_gcd(g, n)
    equation = z_poly(leading) * d
    for m, n in zip(unknowns, sol):
        equation = equation + z_poly(m) * n
    equation = try_exact_divide(equation, g)
    if equation is None:
        raise RuntimeError("internal error: gcd(d, N_0, ..., N_k) does not "
                           "divide the equation")
    # divide out z^e, the branch z = 0 (see the module docstring); a
    # monomial equation would be left without z and stays
    z0 = ctx.diff_var(z_id, 0).index
    e = min(dict(mono).get(z0, 0) for mono in equation.terms)
    if e and len(equation.terms) > 1:
        equation = Poly(ctx, {mono_div(mono, ((z0, e),)): c
                              for mono, c in equation.terms.items()})
    return normalize_ade(equation, dep=z_id)


def _certified_miss(system: LinearSystem) -> bool:
    """True when [A|b] has full column rank at the point mod _Q, which
    proves the system inconsistent (see the module docstring).  Rows are
    evaluated and eliminated one at a time until the rank is full."""
    ncols = len(system.unknowns) + 1
    if len(system.rows) < ncols:
        return False
    basis: dict = {}    # pivot column -> row scaled to 1 there
    for coeffs, const in system.rows:
        row = []
        for p in (*coeffs, const):
            v = 0
            for mono, c in p.terms.items():
                if c.denominator % _Q == 0:
                    return False
                t = c.numerator * pow(c.denominator, -1, _Q)
                for idx, e in mono:
                    t *= pow(7, (5 + idx) * e, _Q)
                v += t
            row.append(v % _Q)
        # a basis row is zero at every pivot chosen before its own, so one
        # pass in insertion order clears every pivot
        for piv, b in basis.items():
            c = row[piv]
            if c:
                row = [(r - c * w) % _Q for r, w in zip(row, b)]
        piv = next((i for i, r in enumerate(row) if r), None)
        if piv is not None:
            inv = pow(row[piv], -1, _Q)
            basis[piv] = [r * inv % _Q for r in row]
            if len(basis) == ncols:
                return True
    return False


def ansatz_search(ades, R: RatFunc, k: int = 2, order_cap=None, z_name: str = "z"):
    """Search leading monomials of degree k in enumeration order, raising the
    derivative order of the ansatz from 0 up to the cap, and return the first
    equation found."""
    if k < 1:
        raise ArgumentError("degree bound must be at least 1")
    ades = list(ades)
    _output_id(R.num.ctx, z_name, ades)
    if order_cap is None:
        order_cap = sum(a.order for a in ades) + 1
    value_cache: dict = {}
    closure_vals = derivative_closure(R, ades, order_cap)
    for r in range(order_cap + 1):
        monos = enumerate_delta(k, r)
        for i, leading in enumerate(monos):
            if sum(leading) == k:
                found = assemble_and_solve(ades, leading, monos[:i],
                                           closure_vals[: r + 1], value_cache,
                                           z_name=z_name)
                if found is not None:
                    return found
    raise AnsatzNotFoundError(k, order_cap)
