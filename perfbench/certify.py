"""Check an output equation without the engine that produced it.

Two methods:

* reference: the acceptance criteria's published equations, kept in
  ``cases.py``; the output must be proportional to (or, where the criterion
  says so, equal to) the reference;
* substitution: write z, z', ... as rational functions of the inputs'
  dependents (``derivative_closure``), substitute them into the output,
  clear denominators and pseudo-reduce by the input equations.  A zero
  remainder proves the output vanishes on the generic solution.

Composition and functional inverse have no rational map.  For inputs of
the form I*y' + rest = 0 the certifier writes the first-order equation that
z itself satisfies (z' = f'(g)*g' for f(g(x)), z' = 1/f'(z) for the
inverse) and uses it as an input of the substitution method.
"""

from __future__ import annotations

import json
from fractions import Fraction

import dalg
from dalg.context import DIFF

from cases import Case
from problem import Problem, parse_problem

_MAX_ROUNDS = 50


def ade_from_json(doc, ctx):
    """Rebuild the ADE of a ``dalg/1`` JSON document in ctx."""
    terms = {}
    for term in doc["terms"]:
        exps = {}
        for f in term["monomial"]:
            if "order" in f:
                var = ctx.diff_var(ctx.indeterminate(f["var"]), f["order"])
            elif f["var"] == ctx.indep.name:
                var = ctx.indep
            else:
                var = ctx.param(f["var"])
            exps[var.index] = exps.get(var.index, 0) + f["exp"]
        mono = tuple(sorted(exps.items()))
        terms[mono] = terms.get(mono, Fraction(0)) + Fraction(term["coeff"])
    poly = dalg.Poly(ctx, terms)
    return dalg.normalize_ade(poly, dep=ctx.indeterminate(doc["dep"]))


def _proportional(p, q):
    if set(p.terms) != set(q.terms):
        return False
    mono = next(iter(p.terms))
    c = p.terms[mono] / q.terms[mono]
    return all(p.terms[m] == c * q.terms[m] for m in q.terms)


def _split_first_order(ade):
    """(I, rest) with ade.poly == I*y' + rest, or None."""
    if ade.order != 1 or ade.leader_degree != 1:
        return None
    ctx = ade.ctx
    lead = dalg.Poly.var(ctx, ade.leader)
    return ade.initial, ade.poly - ade.initial * lead


def _closure_data(p: Problem, out):
    """(R, input ADEs) for the substitution method, or a reason string."""
    ctx = p.ctx
    if p.command in ("unary", "arith", "ansatz"):
        return p.R, p.ades
    if p.command == "diff":
        (ade,) = p.ades
        if p.j <= ade.order:
            R = dalg.RatFunc(dalg.Poly.var(ctx, ctx.diff_var(ade.dep, p.j)))
        else:
            R = dalg.implicit_higher_derivative(ade, p.j - ade.order)
        return R, p.ades
    if p.command == "ddfinite":
        return dalg.RatFunc(dalg.Poly.var(ctx, ctx.diff_var(p.ades[0].dep, 0))), p.ades
    z_id = out.dep
    z0 = dalg.Poly.var(ctx, ctx.diff_var(z_id, 0))
    z1 = dalg.Poly.var(ctx, ctx.diff_var(z_id, 1))
    x = dalg.Poly.var(ctx, ctx.indep)
    if p.command == "inverse":
        split = _split_first_order(p.ades[0])
        if split is None:
            return "inverse of an equation not linear in y' has no certifier"
        I, rest = split
        swap = {ctx.indep: z0, ctx.diff_var(p.ades[0].dep, 0): x}
        zeq = dalg.normalize_ade(rest.substitute(swap) * z1 + I.substitute(swap), dep=z_id)
        return dalg.RatFunc(z0), [zeq]
    if p.command == "compose":
        outer, inner = p.ades
        so, si = _split_first_order(outer), _split_first_order(inner)
        if so is None or si is None:
            return "composition of equations not linear in y' has no certifier"
        g0 = dalg.Poly.var(ctx, ctx.diff_var(inner.dep, 0))
        at_g = {ctx.indep: g0, ctx.diff_var(outer.dep, 0): z0}
        Io, ro = (q.substitute(at_g) for q in so)
        Ii, ri = si
        zeq = dalg.normalize_ade(Io * Ii * z1 - ro * ri, dep=z_id)
        return dalg.RatFunc(z0), [zeq, inner]
    return f"no certifier for {p.command!r}"


def vanishes_on_inputs(out, R, ades):
    """True when the output equation holds for z = R on the generic solution
    of the input equations."""
    ctx = out.ctx
    vals = dalg.derivative_closure(R, ades, out.order)
    by_index = {ctx.diff_var(out.dep, i).index: vals[i] for i in range(out.order + 1)}
    caps = {idx: out.poly.degree(ctx.var_by_index(idx)) for idx in by_index}
    total = dalg.Poly(ctx)
    for mono, coeff in out.poly.terms.items():
        expo = dict.fromkeys(by_index, 0)
        rest = []
        for idx, e in mono:
            if idx in by_index:
                expo[idx] = e
            else:
                rest.append((idx, e))
        term = dalg.Poly(ctx, {tuple(rest): coeff})
        for idx, v in by_index.items():
            term = term * v.num ** expo[idx] * v.den ** (caps[idx] - expo[idx])
        total = total + term
    for _ in range(_MAX_ROUNDS):
        changed = False
        for ade in ades:
            while total.degree(ade.leader) >= ade.leader_degree:
                _, total, _ = dalg.pseudo_divide(total, ade.poly, ade.leader)
                changed = True
        if not changed:
            break
    return total.is_zero()


def _z_degree(out):
    ctx = out.ctx
    return max(sum(e for idx, e in mono
                   if (v := ctx.var_by_index(idx)).kind == DIFF and v.indet == out.dep)
               for mono in out.poly.terms)


def _order_bound(p: Problem):
    n = [a.order for a in p.ades]
    return {"unary": n[0], "arith": sum(n), "compose": sum(n), "diff": n[0],
            "inverse": n[0], "ddfinite": sum(n), "ansatz": sum(n) + 1}[p.command]


def check(case: Case, p: Problem, out):
    """None when the output is certified, else the reason it is not."""
    if out.dep != p.ctx.indeterminate(p.z_name):
        return f"output dependent {out.dep_name!r} is not {p.z_name!r}"
    if out.order > _order_bound(p):
        return f"output order {out.order} exceeds the bound {_order_bound(p)}"
    if p.command == "ansatz" and _z_degree(out) > p.k:
        return f"output degree in z exceeds the ansatz bound {p.k}"
    if case.z_degree is not None and _z_degree(out) != case.z_degree:
        return f"output degree in z is {_z_degree(out)}, expected {case.z_degree}"
    if case.reference is not None:
        expected = dalg.equation_to_ade(case.reference, p.ctx, dep=p.z_name)
        same = (out.poly == expected.poly if case.exact
                else _proportional(out.poly, expected.poly))
        return None if same else "output differs from the reference equation"
    data = _closure_data(p, out)
    if isinstance(data, str):
        return data
    R, ades = data
    if not vanishes_on_inputs(out, R, ades):
        return "substituted output does not reduce to zero modulo the inputs"
    return None


def check_json(case: Case, text: str):
    """Certify the JSON the command line printed for a case."""
    p = parse_problem(case.argv)
    out = ade_from_json(json.loads(text), p.ctx)
    return check(case, p, out)
