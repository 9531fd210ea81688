"""Closure operations for differentially algebraic functions.

Five operations (rational maps of one or several functions, composition,
derivation and the D-finite to D-algebraic conversion) share one pipeline
and each declares only its inputs, its saturation factors and its order
bound.  The pipeline couples the inputs to a new dependent variable z in a
triangular system, prolongs it, inverts the product of the saturation
factors (the initials and separants, which cut out degenerate solution
branches) with a Rabinowitsch variable, eliminates every non-z derivative
variable with a block Groebner order, and selects, among the generators of
the reduced basis that involve z, the one of lowest (order, total degree,
term count) as the output equation.  Its order is at most the bound, but
it need not be the least order in the elimination ideal: an element of
lower order can exist without being a basis generator.  While no such
generator within the bound appears, the system is prolonged once more, up
to RETRY_CAP times.  The functional inverse alone is written down
explicitly, with no elimination at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import DIFF, same_context
from .diffpoly import (ADE, RatFunc, normalize_ade, rational_substitute,
                       total_derivative)
from .errors import ArgumentError, EliminationFailedError
from .groebner import GBConfig, eliminate
from .poly import Poly, content_primitive

RETRY_CAP = 3  # extra prolongation rounds before giving up
SAT_NAME = "_sat"  # reserved auxiliary name for the saturation variable


@dataclass
class TriangularSystem:
    """A prolonged system ready for elimination; ``prolongations`` is the
    largest number of total derivatives taken of any input."""

    polys: list
    elim_vars: set
    keep_vars: set
    prolongations: int


@dataclass
class ClosureResult:
    """Selected output equation plus the full set of keep-only generators.

    ``prolongations`` is the largest number of total derivatives taken of
    any input in the system that produced the output: the bound plus the
    retries, plus j for the j-th derivative; 0 when nothing was eliminated.
    """

    ade: ADE
    generators: list
    prolongations: int


def prolong(p: Poly, s: int) -> list:
    """p together with its first s total derivatives."""
    out = [p]
    for _ in range(s):
        out.append(total_derivative(out[-1]))
    return out


def saturation_poly(factors):
    """Product of the distinct non-constant factors, primitive-normalized.

    The factors are the initials and separants of the triangular system;
    inverting their product discards the degenerate solution branches they
    cut out, matching the triangular-set (saturation ideal) reading of the
    system.  Returns None when nothing needs inverting.
    """
    product = None
    seen = []
    for f in factors:
        if f.is_zero() or f.is_constant():
            continue
        f = content_primitive(f)[1]
        if any(f == g for g in seen):
            continue
        seen.append(f)
        product = f if product is None else product * f
    return product


def build_system(inputs, z_id: int, s: int, saturate: Poly | None = None,
                 leads=None) -> TriangularSystem:
    """Prolong input i s + leads[i] times (every lead defaults to 0) and
    partition the variables: derivatives of z up to order s (and x,
    parameters) are kept, everything else is eliminated.  A saturation
    polynomial H is inverted by adjoining w*H - 1 (un-prolonged) with an
    eliminated fresh variable w."""
    leads = leads or [0] * len(inputs)
    polys = []
    for p, lead in zip(inputs, leads):
        polys.extend(prolong(p, s + lead))
    if saturate is not None:
        ctx = inputs[0].ctx
        w = Poly.var(ctx, ctx.diff_var(ctx.indeterminate(SAT_NAME), 0))
        polys.append(w * saturate - Poly.const(ctx, 1))
    elim, keep = set(), set()
    for p in polys:
        for v in p.variables():
            if v.kind == DIFF and (v.indet != z_id or v.order > s):
                elim.add(v)
            else:
                keep.add(v)
    return TriangularSystem(polys, elim, keep, s + max(leads))


def _involves(g: Poly, z_id: int) -> bool:
    return any(v.kind == DIFF and v.indet == z_id for v in g.variables())


def select_output(generators, z_id: int) -> ADE:
    """The generator involving z of minimal (order, total degree, term
    count), as an ADE."""
    from .render import poly_to_text

    candidates = [g for g in generators if _involves(g, z_id)]
    if not candidates:
        raise EliminationFailedError("no generator involves the output variable")

    def sel_key(g):
        z_order = max(v.order for v in g.variables()
                      if v.kind == DIFF and v.indet == z_id)
        return (z_order, g.total_degree(), g.num_terms(), poly_to_text(g))

    best = min(candidates, key=sel_key)
    return normalize_ade(best, dep=z_id)


def _close(inputs, z_id: int, bound: int, factors, config, leads=None) -> ClosureResult:
    """The pipeline: prolong the inputs bound (+ lead) times, saturate by
    the factors, eliminate, select; retry with one more prolongation until
    a generator involving z of order <= bound appears."""
    sat = saturation_poly(factors)
    last = "no keep-only generator found"
    for extra in range(RETRY_CAP + 1):
        system = build_system(inputs, z_id, bound + extra, sat, leads)
        gens = [g for g in eliminate(system.polys, system.elim_vars,
                                     system.keep_vars, config)
                if _involves(g, z_id)]
        if gens:
            ade = select_output(gens, z_id)
            if ade.order <= bound:
                return ClosureResult(ade, gens, system.prolongations)
            last = f"lowest output order {ade.order} exceeds the bound {bound}"
    raise EliminationFailedError(
        f"elimination failed after {RETRY_CAP} extra prolongations: {last}"
    )


def _rational(ades, R: RatFunc, z_name, config) -> ClosureResult:
    """R(x, f_1, ..., f_N) through z*den(R) - num(R), saturated by den(R)
    and the initials and separants of the inputs."""
    same_context(*[a.poly for a in ades], R.num)
    allowed = {(a.dep, 0) for a in ades}
    for v in R.variables():
        if v.kind == DIFF and (v.indet, v.order) not in allowed:
            raise ArgumentError(
                f"the rational map may only involve x, parameters, and the "
                f"undifferentiated dependents; found {v!r}"
            )
    ctx = ades[0].ctx
    z_id = ctx.indeterminate(z_name)
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    defining = z * R.den - R.num
    if not any(v.kind == DIFF for v in R.variables()):
        # no dependent occurs: z = R(x) needs no elimination
        return ClosureResult(normalize_ade(defining, dep=z_id), [defining], 0)
    factors = [R.den]
    for a in ades:
        factors.extend([a.initial, a.separant])
    return _close([a.poly for a in ades] + [defining], z_id,
                  sum(a.order for a in ades), factors, config)


def unary_dalg(ade: ADE, R: RatFunc, z_name: str = "z",
               config: GBConfig | None = None) -> ClosureResult:
    """Equation of order <= n satisfied by R(x, f(x)) for every solution f
    of the input equation: the lowest-order reduced-basis generator, which
    is not always the least order in the elimination ideal."""
    return _rational([ade], R, z_name, config)


def arithmetic_dalg(ades, R: RatFunc, z_name: str = "z",
                    config: GBConfig | None = None) -> ClosureResult:
    """Equation of order <= n_1 + ... + n_N satisfied by
    R(x, f_1(x), ..., f_N(x))."""
    if len(ades) < 2:
        raise ArgumentError("arithmetic operation needs at least two equations")
    if len({a.dep for a in ades}) != len(ades):
        raise ArgumentError("input equations must have distinct dependents")
    return _rational(ades, R, z_name, config)


def compose_dalg(outer: ADE, inner: ADE, z_name: str = "z",
                 config: GBConfig | None = None) -> ClosureResult:
    """Equation of order <= n + k satisfied by f(g(x)) where f solves the
    outer equation (order n) and g the inner one (order k).

    Encoding: u carries g through the inner equation, v_i carries
    f^(i) composed with g; the outer equation is evaluated at (u, v), and
    the chain rule supplies v_i' = v_{i+1} * u'.
    """
    same_context(outer.poly, inner.poly)
    if outer.dep == inner.dep:
        raise ArgumentError("outer and inner equations must use distinct dependents")
    ctx = outer.ctx
    n, k = outer.order, inner.order
    z_id = ctx.indeterminate(z_name)
    v_ids = [ctx.indeterminate(f"_v{i}") for i in range(n + 1)]
    u0 = Poly.var(ctx, ctx.diff_var(inner.dep, 0))
    u1 = Poly.var(ctx, ctx.diff_var(inner.dep, 1))

    bindings = {ctx.indep: u0}
    for i in range(n + 1):
        bindings[ctx.diff_var(outer.dep, i)] = Poly.var(ctx, ctx.diff_var(v_ids[i], 0))
    evaluated = outer.poly.substitute(bindings)

    chain = [
        Poly.var(ctx, ctx.diff_var(v_ids[i], 1))
        - Poly.var(ctx, ctx.diff_var(v_ids[i + 1], 0)) * u1
        for i in range(n)
    ]
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    inputs = [evaluated] + chain + [inner.poly, z - Poly.var(ctx, ctx.diff_var(v_ids[0], 0))]
    factors = [outer.initial.substitute(bindings), outer.separant.substitute(bindings),
               u1, inner.initial, inner.separant]
    return _close(inputs, z_id, n + k, factors, config)


def diff_dalg(ade: ADE, j: int = 1, z_name: str = "z",
              config: GBConfig | None = None) -> ClosureResult:
    """Equation satisfied by the j-th derivative of every solution of the
    input equation; output order <= n.  The input is prolonged j times
    further than the link z - y^(j), so both reach the same orders."""
    if j < 1:
        raise ArgumentError("derivative count must be positive")
    ctx = ade.ctx
    z_id = ctx.indeterminate(z_name)
    link = (Poly.var(ctx, ctx.diff_var(z_id, 0))
            - Poly.var(ctx, ctx.diff_var(ade.dep, j)))
    return _close([ade.poly, link], z_id, ade.order,
                  [ade.initial, ade.separant], config, leads=(j, 0))


def inv_dalg(ade: ADE, z_name: str = "z") -> ClosureResult:
    """Equation of order n for the functional inverse, written down
    explicitly (no elimination): substitute x -> z, y -> x, and
    y^(i) -> D_i with D_1 = 1/z', D_{i+1} = D_i' / z'."""
    ctx = ade.ctx
    n = ade.order
    if n < 1:
        raise ArgumentError("input equation must have order at least one")
    z_id = ctx.indeterminate(z_name)
    z0 = RatFunc(Poly.var(ctx, ctx.diff_var(z_id, 0)))
    z1 = RatFunc(Poly.var(ctx, ctx.diff_var(z_id, 1)))
    bindings = {
        ctx.indep: z0,
        ctx.diff_var(ade.dep, 0): RatFunc(Poly.var(ctx, ctx.indep)),
    }
    d = RatFunc(Poly.const(ctx, 1)) / z1
    for i in range(1, n + 1):
        bindings[ctx.diff_var(ade.dep, i)] = d
        if i < n:
            d = d.derivative() / z1
    result = rational_substitute(RatFunc(ade.poly), bindings)
    out = normalize_ade(result.num, dep=z_id)
    return ClosureResult(out, [out.poly], 0)


def ddfinite_to_dalg(main: ADE, coeff_odes, config: GBConfig | None = None) -> ClosureResult:
    """Convert a linear equation whose coefficients satisfy linear equations
    of their own into a polynomial equation in the main dependent alone."""
    same_context(main.poly, *[c.poly for c in coeff_odes])
    deps = {main.dep}
    for c in coeff_odes:
        if c.dep in deps:
            raise ArgumentError("coefficient dependents must be distinct")
        deps.add(c.dep)
        if not _is_linear_in(c.poly, c.dep):
            raise ArgumentError(f"coefficient equation for {c.dep_name} is not linear")
    if not _is_linear_in(main.poly, main.dep):
        raise ArgumentError("main equation is not linear in its dependent")
    inputs = [main.poly] + [c.poly for c in coeff_odes]
    factors = [main.initial, main.separant]
    for c in coeff_odes:
        factors.extend([c.initial, c.separant])
    return _close(inputs, main.dep, main.order + sum(c.order for c in coeff_odes),
                  factors, config)


def _is_linear_in(p: Poly, dep: int) -> bool:
    for mono in p.terms:
        deg = sum(e for idx, e in mono
                  if (v := p.ctx.var_by_index(idx)).kind == DIFF and v.indet == dep)
        if deg > 1:
            return False
    return True
