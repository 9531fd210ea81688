"""Shared helpers for the test suite: proportionality matching, random
polynomial generation, the standard Weierstrass fixture, certification
of a closure output by substitution, the per-term reference for the
derivative modulo the inputs, the independent Groebner references (a
plain normal form and a certificate-tracking Buchberger on tuple
monomials) that the kernel in dalg.groebner is checked against, the
Bareiss solve and the whole exact pass on Poly arithmetic that the
ansatz's packed solve and pass are checked against, with an encoder that
runs the packed solve on Poly rows, the Rabinowitsch saturation that
eliminate's certificate is checked against, the prolonged elimination
that the closure operations are checked against, a truncated power
series solution to check rational values of derivatives on without any
polynomial gcd, and the parser's lowering with a RatFunc at every node
and its recursive tree walk, which the Poly lowering and the iterative
walk are checked against."""

import math
import os
import random
from fractions import Fraction
from pathlib import Path

from dalg import (ADE, Context, Poly, RatFunc, TruncSeries, derivative_closure,
                  equation_to_ade, pseudo_divide)
from dalg.ansatz import LinearSystem, solve_linear_ratfunc
from dalg.context import DIFF, INDEP, same_context
from dalg.errors import ArgumentError, ParseError
from dalg.diffpoly import normalize_ade, rational_substitute, total_derivative
from dalg.groebner import (IdealBasis, _Kernel, _substitute_solved, buchberger,
                           elimination_order, saturation_factors)
from dalg.orders import GrevLex, MonomialOrder
from dalg.parser import Applied, Bin, Name, Neg, Node, Num
from dalg.poly import (Mono, exact_div, mono_div, over_lcm, poly_gcd,
                       try_exact_divide)

# pytest puts src/ on sys.path (pyproject.toml); the CLI tests start
# `python -m dalg.cli` in a child process, which needs it on PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

LT, EQ, GT = -1, 0, 1


def mono_cmp(order, a, b):
    """Compare two monomials under an order; returns LT, EQ, or GT."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def proportional(p, q):
    """True when p == c*q for a nonzero rational constant c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    mono = next(iter(p.terms))
    c = Fraction(p.terms[mono]) / q.terms[mono]
    return all(p.terms[m] == c * q.terms[m] for m in q.terms)


def z_degree(p, z_id):
    """Degree of p in the derivatives of one indeterminate."""
    from dalg.context import DIFF

    best = 0
    for mono in p.terms:
        d = sum(e for idx, e in mono
                if (v := p.ctx.var_by_index(idx)).kind == DIFF and v.indet == z_id)
        best = max(best, d)
    return best


def certified_by_substitution(out, ades, R):
    """True when the equation out vanishes on z = R(y_1, ..., y_N) for the
    input equations (one ADE or a list, of the common input class).

    The closure-value denominators are cleared by hand and the substituted
    equation must pseudo-reduce to zero by each input in turn; plain
    polynomial products keep the gcd machinery out of the loop."""
    ctx = out.ctx
    ades = [ades] if isinstance(ades, ADE) else list(ades)
    vals = derivative_closure(R, ades, out.order)
    by_index = {ctx.diff_var(out.dep, i).index: vals[i]
                for i in range(out.order + 1)}
    caps = {idx: out.poly.degree(ctx.var_by_index(idx)) for idx in by_index}
    total = Poly(ctx)
    for mono, coeff in out.poly.terms.items():
        expo = dict.fromkeys(by_index, 0)
        rest = []
        for idx, e in mono:
            if idx in by_index:
                expo[idx] = e
            else:
                rest.append((idx, e))
        term = Poly(ctx, {tuple(rest): coeff})
        for idx, v in by_index.items():
            e = expo[idx]
            term = term * v.num ** e * v.den ** (caps[idx] - e)
        total = total + term
    # pseudo-reduce by each input equation in turn: an input names another's
    # dependent only below that one's order, so no step raises a leader
    # already reduced; zero means membership in the ideal they generate
    # over the localized coefficient ring
    for ade in ades:
        while total.degree(ade.leader) >= ade.leader_degree:
            _, total, _ = pseudo_divide(total, ade.poly, ade.leader)
    return total.is_zero()


def reference_derivative(f, ades):
    """d/dx of f by the quotient rule, with each input's y^(n+1) replaced
    by -rest/S (from D(P) = S*y^(n+1) + rest) through rational_substitute:
    the term-by-term route that RatFunc.derivative(ades) takes in one
    polynomial step.  Only the numerator D(N)*D - N*D(D) can hold a
    y^(n+1), so D*D stays out of the substitution."""
    ctx = f.ctx
    num = total_derivative(f.num) * f.den - f.num * total_derivative(f.den)
    bindings = {}
    for ade in ades:
        top = ctx.diff_var(ade.dep, ade.order + 1)
        rest = total_derivative(ade.poly) - ade.separant * Poly.var(ctx, top)
        bindings[top] = RatFunc(-rest, ade.separant)
    return rational_substitute(RatFunc(num), bindings) / RatFunc(f.den * f.den)


def same_ratfunc(f, g):
    """Equal in the reduced normal form, term for term."""
    return f.num == g.num and f.den == g.den


def weierstrass(ctx, name="y"):
    """The Weierstrass equation (y')^2 = 4y^3 - g2*y - g3."""
    return equation_to_ade(
        f"diff({name}(x),x)^2 = 4*{name}(x)^3 - g2*{name}(x) - g3", ctx,
        extra_deps=[name],
    )


def random_poly(ctx, vars_, rng, max_terms=5, max_deg=3):
    """Sparse random polynomial in the given variables."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = []
        budget = rng.randint(0, max_deg)
        for v in rng.sample(vars_, k=min(len(vars_), rng.randint(1, 3))):
            if budget <= 0:
                break
            e = rng.randint(1, budget)
            budget -= e
            mono.append((v.index, e))
        mono = tuple(sorted(dict(mono).items()))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if coeff:
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Poly(ctx, terms)


def make_rng(seed):
    return random.Random(seed)


# -- independent Groebner references ------------------------------------------


def mono_divides(b: Mono, a: Mono) -> bool:
    exps = dict(a)
    return all(exps.get(idx, 0) >= e for idx, e in b)


def mono_lcm(a: Mono, b: Mono) -> Mono:
    exps = dict(a)
    for idx, e in b:
        exps[idx] = max(exps.get(idx, 0), e)
    return tuple(sorted(exps.items()))


def reduce(f: Poly, basis: IdealBasis) -> Poly:
    """Normal form of f modulo the basis: no term divisible by any leading
    monomial remains, and f minus the result lies in the ideal."""
    if not basis.generators:
        return f
    same_context(f, *basis.generators)
    order = basis.order
    leads = [g.leading(order) for g in basis.generators]
    out = Poly(f.ctx)
    work = f
    while not work.is_zero():
        m, c = work.leading(order)
        hit = None
        for g, (lmg, lcg) in zip(basis.generators, leads):
            q = mono_div(m, lmg)
            if q is not None:
                hit = (g, q, lcg)
                break
        if hit is None:
            t = Poly(f.ctx, {m: c})
            out = out + t
            work = work - t
            continue
        g, q, lcg = hit
        work = work - Poly(f.ctx, {q: exact_div(c, lcg)}) * g
    return out


def buchberger_with_certificates(gens, order: MonomialOrder):
    """Plain rational-arithmetic Buchberger that tracks each basis element as
    an explicit polynomial combination of the inputs.

    Intended for small instances only (test-suite ideal-membership checks).
    Returns (basis_polys, certificates) where certificates[i] is the list of
    cofactors c_j with basis[i] == sum_j c_j * gens[j].
    """
    ctx = same_context(*gens)
    one = Poly.const(ctx, 1)
    zero = Poly(ctx)
    G = []
    certs = []
    for i, g in enumerate(gens):
        if not g.is_zero():
            G.append(g)
            certs.append([one if j == i else zero for j in range(len(gens))])

    def reduce_tracked(f, cert):
        changed = True
        while changed and not f.is_zero():
            changed = False
            m, c = f.leading(order)
            for g, gc in zip(G, certs):
                lmg, lcg = g.leading(order)
                q = mono_div(m, lmg)
                if q is not None:
                    mult = Poly(ctx, {q: exact_div(c, lcg)})
                    f = f - mult * g
                    cert = [a - mult * b for a, b in zip(cert, gc)]
                    changed = True
                    break
        return f, cert

    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop(0)
        fi, fj = G[i], G[j]
        (lmi, lci), (lmj, lcj) = fi.leading(order), fj.leading(order)
        L = mono_lcm(lmi, lmj)
        mi = Poly(ctx, {mono_div(L, lmi): exact_div(1, lci)})
        mj = Poly(ctx, {mono_div(L, lmj): exact_div(1, lcj)})
        s = mi * fi - mj * fj
        cert = [mi * a - mj * b for a, b in zip(certs[i], certs[j])]
        s, cert = reduce_tracked(s, cert)
        if not s.is_zero():
            pairs += [(k, len(G)) for k in range(len(G))]
            G.append(s)
            certs.append(cert)
    return G, certs


# -- the reference linear solve -----------------------------------------------


def solve_poly_rows(unknowns, rows):
    """dalg.ansatz.solve_linear_ratfunc on rows (list of entries, entry)
    of Polys: the rows are encoded into a kernel whose fields hold a
    product of two minors, sized by the Bareiss bound (each row's largest
    entry degree, summed), and N and d are decoded.  Returns (N, d) or
    None, as :func:`reference_solve_linear` does."""
    variables = set().union(*(p.variables() for coeffs, const in rows
                              for p in [*coeffs, const]))
    bound = sum(max(p.total_degree() for p in [*coeffs, const]) for coeffs, const in rows)
    K = _Kernel(GrevLex(sorted(variables, key=lambda v: v.index)), bound, variables)

    def encode(p):
        return K.sort(K.encode(p))

    packed = [([encode(p) for p in coeffs], encode(const)) for coeffs, const in rows]
    solution = solve_linear_ratfunc(LinearSystem(unknowns, packed, K))
    if solution is None:
        return None
    ctx = rows[0][1].ctx

    def decode(p):
        return Poly(ctx, dict(zip(map(K.decode, p[0]), p[1])))

    nums, d = solution
    return [decode(n) for n in nums], decode(d)


def reference_solve_linear(unknowns, rows):
    """Bareiss forward pass and Cramer back-substitution on Poly arithmetic,
    with the pivot rule of dalg.ansatz.solve_linear_ratfunc: the columns
    left to right, each pivoted on its entry of lowest (total degree,
    terms, row) among the unused rows, or left free where it has none.
    Every column of every unused row is updated, pivoted ones included.
    Returns (N, d) or None for an inconsistent system."""
    ncols = len(unknowns)
    ctx = rows[0][1].ctx
    rows = [list(coeffs) + [const] for coeffs, const in rows]

    def exact(p, d):
        q = try_exact_divide(p, d)
        assert q is not None, "Bareiss division is not exact"
        return q

    pivots = []
    prev = Poly.const(ctx, 1)
    for ci in range(ncols):
        cands = [(row[ci].total_degree(), row[ci].num_terms(), ri)
                 for ri, row in enumerate(rows) if not row[ci].is_zero()]
        if not cands:
            continue
        prow = rows.pop(min(cands)[2])
        pivot = prow[ci]
        rows = [[exact(pivot * p - row[ci] * q, prev) for p, q in zip(row, prow)]
                for row in rows]
        pivots.append((prow, ci))
        prev = pivot
    if any(not row[ncols].is_zero() for row in rows):
        return None

    nums = {}
    for prow, ci in reversed(pivots):
        acc = prow[ncols] * prev
        for cj, n in nums.items():
            if not prow[cj].is_zero():
                acc = acc + prow[cj] * n
        nums[ci] = exact(-acc, prow[ci])
    return [nums.get(ci, Poly(ctx)) for ci in range(ncols)], prev


def reference_assemble(ades, leading, earlier, closure_vals, value_cache: dict,
                       z_name="z"):
    """The ansatz's exact pass for one candidate on Poly arithmetic, with
    :func:`reference_solve_linear` for the solve: what
    dalg.ansatz.assemble_and_solve returns, term for term, or None.

    The slot values' numerators go over the lcm of their denominators
    (columns: the constant slot, the earlier monomials, last the lead);
    the columns are pseudo-reduced by each input in lockstep; each
    monomial in the input dependents gives one row, the rows sorted by
    that monomial as a tuple and each scaled by the lcm of its
    coefficients' denominators; and the solved equation
    d*z_lead + sum N_i*m_i is divided by g = gcd(d, N_0, ..., N_k)."""
    unknowns = [(0,) * len(leading)] + earlier
    ctx = ades[0].ctx

    def value(m):
        key = tuple((i, e) for i, e in enumerate(m) if e)
        v = value_cache.get(key)
        if v is None:
            num = Poly.const(ctx, 1)
            den = Poly.const(ctx, 1)
            for i, e in key:
                num = num * closure_vals[i].num ** e
                den = den * closure_vals[i].den ** e
            v = value_cache[key] = (num, den)
        return v

    nums, common = over_lcm([value(leading)] + [value(m) for m in earlier],
                            Poly.const(ctx, 1))
    cols = [common, *nums[1:], nums[0]]
    for ade in ades:
        leader, d = ade.leader, ade.leader_degree
        lc = ade.poly.coeff_in(leader, d)
        while (top := max(c.degree(leader) for c in cols)) >= d:
            shift = Poly.var(ctx, leader, top - d)
            cols = [lc * c - c.coeff_in(leader, top) * shift * ade.poly for c in cols]
    if all(c.is_zero() for c in cols):
        return None

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
    sys_rows = []
    for y_mono in sorted(rows):
        entries = rows[y_mono]
        den = math.lcm(*(c.denominator for terms in entries for c in terms.values()))
        if den != 1:
            entries = [{m: c * den for m, c in terms.items()} for terms in entries]
        row = [Poly(ctx, terms) for terms in entries]
        sys_rows.append((row[:-1], row[-1]))

    solution = reference_solve_linear(unknowns, sys_rows)
    if solution is None:
        return None
    sol, d = solution
    z_id = ctx.indeterminate(z_name)

    def z_poly(m):
        p = Poly.const(ctx, 1)
        for i, e in enumerate(m):
            if e:
                p = p * Poly.var(ctx, ctx.diff_var(z_id, i), e)
        return p

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
    assert equation is not None, "gcd(d, N_0, ..., N_k) does not divide the equation"
    return normalize_ade(equation, dep=z_id)


# -- the truncated-series oracle ----------------------------------------------


# -- the Rabinowitsch saturation and the prolonged closure pipeline --------


def rabinowitsch_eliminate(gens, elim_vars, keep_vars, factors, config=None):
    """The keep-only generators of the reduced basis of the elimination
    ideal of I : (h_1 ... h_m)^oo, with every distinct factor h_i inverted
    by w_i*h_i - 1 and a fresh variable w_i eliminated above all others:
    what dalg.groebner.eliminate(..., saturate=factors) returns, reached
    with no certificate."""
    ctx = gens[0].ctx
    factors = saturation_factors(factors)
    ws = [ctx.diff_var(ctx.indeterminate(f"_rab{i}"), 0) for i in range(len(factors))]
    polys = list(gens) + [Poly.var(ctx, w) * h - Poly.const(ctx, 1)
                          for w, h in zip(ws, factors)]
    elim = set(elim_vars) | set(ws)
    polys, _, solved = _substitute_solved(polys, elim)
    if not polys:
        return []
    order = elimination_order(ctx, elim - solved, keep_vars,
                              [w for w in ws if w not in solved])
    return buchberger(polys, order, config, keep_vars).generators


def prolong(p, s):
    """p together with its first s total derivatives."""
    out = [p]
    for _ in range(s):
        out.append(total_derivative(out[-1]))
    return out


def prolonged_generators(inputs, z_id, s, factors, leads=None):
    """The keep-only generators that involve z when input i is prolonged
    s + leads[i] times (every lead defaults to 0), each saturation factor
    h_i is inverted by w_i*h_i - 1, and every derivative other than z up
    to order s is eliminated once."""
    leads = leads or [0] * len(inputs)
    polys = [q for p, lead in zip(inputs, leads) for q in prolong(p, s + lead)]
    elim, keep = set(), set()
    for p in polys + factors:
        for v in p.variables():
            (elim if v.kind == DIFF and (v.indet != z_id or v.order > s) else keep).add(v)
    return [g for g in rabinowitsch_eliminate(polys, elim, keep, factors)
            if any(v.kind == DIFF and v.indet == z_id for v in g.variables())]


def _inputs_factors(ades):
    return [a.poly for a in ades], [h for a in ades for h in (a.initial, a.separant)]


def prolonged_rational(ades, R, z_name="z"):
    """R(x, f_1, ..., f_N): the inputs and z*den(R) - num(R), prolonged to
    the order sum."""
    ctx = R.ctx
    z = Poly.var(ctx, ctx.diff_var(ctx.indeterminate(z_name), 0))
    polys, factors = _inputs_factors(ades)
    return prolonged_generators(polys + [z * R.den - R.num], ctx.indet_id(z_name),
                                sum(a.order for a in ades), [R.den] + factors)


def prolonged_diff(ade, j, z_name="z"):
    """The j-th derivative: the input runs j prolongations ahead of the
    link z - y^(j), which is prolonged n times."""
    ctx = ade.ctx
    z_id = ctx.indeterminate(z_name)
    link = (Poly.var(ctx, ctx.diff_var(z_id, 0))
            - Poly.var(ctx, ctx.diff_var(ade.dep, j)))
    polys, factors = _inputs_factors([ade])
    return prolonged_generators(polys + [link], z_id, ade.order, factors, leads=(j, 0))


def prolonged_compose(outer, inner, z_name="z"):
    """f(g): the outer equation at (u, v), the chain rule v_i' = v_{i+1}*u',
    the inner equation and z - v_0, prolonged n + k times."""
    ctx = outer.ctx
    n, k = outer.order, inner.order
    z_id = ctx.indeterminate(z_name)
    v = [Poly.var(ctx, ctx.diff_var(ctx.indeterminate(f"_v{i}"), 0)) for i in range(n + 1)]
    u1 = Poly.var(ctx, ctx.diff_var(inner.dep, 1))
    bindings = {ctx.indep: Poly.var(ctx, ctx.diff_var(inner.dep, 0))}
    for i in range(n + 1):
        bindings[ctx.diff_var(outer.dep, i)] = v[i]
    chain = [total_derivative(v[i]) - v[i + 1] * u1 for i in range(n)]
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    inputs = [outer.poly.substitute(bindings), *chain, inner.poly, z - v[0]]
    factors = [outer.initial.substitute(bindings), outer.separant.substitute(bindings),
               u1, inner.initial, inner.separant]
    return prolonged_generators(inputs, z_id, n + k, factors)


def prolonged_ddfinite(main, coeff_odes):
    """The main equation and the coefficient equations, prolonged to the
    order sum, with z = y the main dependent."""
    ades = [main, *coeff_odes]
    polys, factors = _inputs_factors(ades)
    return prolonged_generators(polys, main.dep, sum(a.order for a in ades), factors)


def at_series(p, coeffs, prec):
    """p with x replaced by the series x and each y^(i) of its one
    dependent by the i-th derivative of the series with Taylor coefficients
    coeffs, to precision at most prec (a derivative loses one term)."""
    derivs = [TruncSeries(coeffs)]
    total = TruncSeries.const(0, prec)
    for mono, c in p.terms.items():
        term = TruncSeries.const(c, prec)
        for idx, e in mono:
            var = p.ctx.var_by_index(idx)
            if var.kind == INDEP:
                s = TruncSeries.x(prec)
            else:
                while len(derivs) <= var.order:
                    derivs.append(derivs[-1].derivative())
                s = derivs[var.order]
            term = term * s ** e
        total = total + term
    return total


def series_solution(ade, init, T):
    """The first T Taylor coefficients of the power series solution of a
    parameter-free ADE of order n with initial coefficients init (those of
    x^0, ..., x^n).  Coefficient m > n first occurs in the residual's
    coefficient at x^(m-n), linearly, with factor S(0)*m!/(m-n)! for the
    separant S; two evaluations of that coefficient solve for it."""
    coeffs = [Fraction(c) for c in init]
    n = ade.order
    while len(coeffs) < T:
        m = len(coeffs)
        r0, r1 = (at_series(ade.poly, coeffs + [a], m - n + 1).coeffs[m - n]
                  for a in (0, 1))
        coeffs.append(r0 / (r0 - r1))
    return coeffs


# -- the parser's lowering with a RatFunc at every node ------------------------


def reference_walk(node):
    """The nodes under node in pre-order, by recursion over the children."""
    yield node
    for attr in ("operand", "left", "right", "lhs", "rhs"):
        child = getattr(node, attr, None)
        if isinstance(child, Node):
            yield from reference_walk(child)


def reference_lower(node, ctx, deps=()) -> RatFunc:
    """An expression AST as a RatFunc, with a RatFunc at every node."""
    deps = set(deps)

    def rec(n) -> RatFunc:
        if isinstance(n, Num):
            return RatFunc(Poly.const(ctx, n.value))
        if isinstance(n, Name):
            if n.name == ctx.indep.name:
                return RatFunc(Poly.var(ctx, ctx.indep))
            if n.name in deps:
                return RatFunc(Poly.var(ctx, ctx.diff_var(ctx.indeterminate(n.name), 0)))
            return RatFunc(Poly.var(ctx, ctx.param(n.name)))
        if isinstance(n, Applied):
            if n.arg and n.arg != ctx.indep.name:
                raise ParseError(f"independent variable {n.arg!r} does not match "
                                 f"{ctx.indep.name!r}")
            try:
                dep = ctx.indeterminate(n.name)
            except ArgumentError as exc:
                raise ParseError(str(exc)) from exc
            return RatFunc(Poly.var(ctx, ctx.diff_var(dep, n.order)))
        if isinstance(n, Neg):
            return -rec(n.operand)
        if n.op == "^":
            return rec(n.left) ** n.right.value
        left, right = rec(n.left), rec(n.right)
        if n.op == "+":
            return left + right
        if n.op == "-":
            return left - right
        if n.op == "*":
            return left * right
        return left / right

    return rec(node)
