"""Closure operations for differentially algebraic functions.

Each operation builds a prolonged triangular system relating the inputs to
a new dependent variable z, eliminates every non-z derivative variable with
a block Groebner order, and selects, among the generators of the reduced
basis that involve z, the one of lowest (order, total degree, term count)
as the output equation.  Its order is at most the operation's bound, but
it need not be the least order in the elimination ideal: an element of
lower order can exist without being a basis generator.  Derivatives and
functional inverses get a cheaper treatment: the inverse is written down
explicitly with no elimination at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import DIFF, Var, same_context
from .diffpoly import (ADE, RatFunc, normalize_ade, rational_substitute,
                       total_derivative)
from .errors import ArgumentError, EliminationFailedError
from .groebner import GBConfig, eliminate
from .poly import Poly

RETRY_CAP = 3  # extra prolongation rounds before giving up


@dataclass
class TriangularSystem:
    """A prolonged system ready for elimination."""

    polys: list
    elim_vars: set
    keep_vars: set
    prolongations: int


@dataclass
class ClosureResult:
    """Selected output equation plus the full set of keep-only generators."""

    ade: ADE
    generators: list
    prolongations: int


def prolong(p: Poly, s: int) -> list:
    """p together with its first s total derivatives."""
    out = [p]
    for _ in range(s):
        out.append(total_derivative(out[-1]))
    return out


SAT_NAME = "_sat"  # reserved auxiliary name for the saturation variable


def saturation_poly(ctx, factors):
    """Product of the distinct non-constant factors, primitive-normalized.

    The factors are the initials and separants of the triangular system;
    inverting their product discards the degenerate solution branches they
    cut out, matching the triangular-set (saturation ideal) reading of the
    system.  Returns None when nothing needs inverting.
    """
    from .poly import content_primitive

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


def build_system(inputs, z_id: int, s: int, saturate: Poly | None = None) -> TriangularSystem:
    """Prolong every input polynomial s times and partition the variables:
    derivatives of z (and x, parameters) are kept, everything else is
    eliminated.  A saturation polynomial H is inverted by adjoining
    w*H - 1 (un-prolonged) with an eliminated fresh variable w."""
    polys = []
    for p in inputs:
        polys.extend(prolong(p, s))
    if saturate is not None:
        ctx = inputs[0].ctx
        w = Poly.var(ctx, ctx.diff_var(ctx.indeterminate(SAT_NAME), 0))
        polys.append(w * saturate - Poly.const(ctx, 1))
    return _partition(polys, z_id, keep_order=s, prolongations=s)


def _partition(polys, z_id, keep_order, prolongations) -> TriangularSystem:
    elim, keep = set(), set()
    for p in polys:
        for v in p.variables():
            if v.kind == DIFF and (v.indet != z_id or v.order > keep_order):
                elim.add(v)
            else:
                keep.add(v)
    return TriangularSystem(polys, elim, keep, prolongations)


def select_output(generators, z_id: int) -> ADE:
    """The generator of minimal (order, total degree, term count), as an ADE."""
    from .render import poly_to_text

    candidates = [
        g for g in generators
        if any(v.kind == DIFF and v.indet == z_id for v in g.variables())
    ]
    if not candidates:
        raise EliminationFailedError("no generator involves the output variable")

    def sel_key(g):
        z_order = max(v.order for v in g.variables()
                      if v.kind == DIFF and v.indet == z_id)
        return (z_order, g.total_degree(), g.num_terms(), poly_to_text(g))

    best = min(candidates, key=sel_key)
    return normalize_ade(best, dep=z_id)


def _eliminate_system(system: TriangularSystem, z_id, config) -> list:
    gens = eliminate(system.polys, system.elim_vars, system.keep_vars, config)
    return [
        g for g in gens
        if any(v.kind == DIFF and v.indet == z_id for v in g.variables())
    ]


def _search(make_system, z_id, bound, config) -> ClosureResult:
    """Retry loop: rebuild with one more prolongation until a keep-only
    generator of admissible order appears."""
    last = "no keep-only generator found"
    for extra in range(RETRY_CAP + 1):
        system = make_system(extra)
        gens = _eliminate_system(system, z_id, config)
        if gens:
            ade = select_output(gens, z_id)
            if ade.order <= bound:
                return ClosureResult(ade, gens, system.prolongations)
            last = f"lowest output order {ade.order} exceeds the bound {bound}"
    raise EliminationFailedError(
        f"elimination failed after {RETRY_CAP} extra prolongations: {last}"
    )


def _check_map_vars(ades, R: RatFunc):
    allowed = {(a.dep, 0) for a in ades}
    for v in R.variables():
        if v.kind == DIFF and (v.indet, v.order) not in allowed:
            raise ArgumentError(
                f"the rational map may only involve x, parameters, and the "
                f"undifferentiated dependents; found {v!r}"
            )


def _degenerate_result(ctx, R: RatFunc, z_id) -> ClosureResult:
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    poly = z * R.den - R.num
    return ClosureResult(normalize_ade(poly, dep=z_id), [poly], 0)


def unary_dalg(ade: ADE, R: RatFunc, z_name: str = "z",
               config: GBConfig | None = None) -> ClosureResult:
    """Equation of order <= n satisfied by R(x, f(x)) for every solution f
    of the input equation: the lowest-order reduced-basis generator, which
    is not always the least order in the elimination ideal."""
    _check_map_vars([ade], R)
    ctx = ade.ctx
    z_id = ctx.indeterminate(z_name)
    if not any(v.kind == DIFF for v in R.variables()):
        return _degenerate_result(ctx, R, z_id)
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    defining = z * R.den - R.num
    n = ade.order
    sat = saturation_poly(ctx, [ade.initial, ade.separant, R.den])

    def make(extra):
        return build_system([ade.poly, defining], z_id, n + extra, saturate=sat)

    return _search(make, z_id, n, config)


def arithmetic_dalg(ades, R: RatFunc, z_name: str = "z",
                    config: GBConfig | None = None) -> ClosureResult:
    """Equation of order <= n_1 + ... + n_N satisfied by
    R(x, f_1(x), ..., f_N(x))."""
    if len(ades) < 2:
        raise ArgumentError("arithmetic operation needs at least two equations")
    if len({a.dep for a in ades}) != len(ades):
        raise ArgumentError("input equations must have distinct dependents")
    same_context(*[a.poly for a in ades], R.num)
    _check_map_vars(ades, R)
    ctx = ades[0].ctx
    z_id = ctx.indeterminate(z_name)
    if not any(v.kind == DIFF for v in R.variables()):
        return _degenerate_result(ctx, R, z_id)
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    defining = z * R.den - R.num
    total = sum(a.order for a in ades)
    factors = [R.den]
    for a in ades:
        factors.extend([a.initial, a.separant])
    sat = saturation_poly(ctx, factors)

    def make(extra):
        return build_system([a.poly for a in ades] + [defining], z_id,
                            total + extra, saturate=sat)

    return _search(make, z_id, total, config)


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
    sat = saturation_poly(ctx, [
        outer.initial.substitute(bindings),
        outer.separant.substitute(bindings),
        u1, inner.initial, inner.separant,
    ])

    def make(extra):
        return build_system(inputs, z_id, n + k + extra, saturate=sat)

    return _search(make, z_id, n + k, config)


def diff_dalg(ade: ADE, j: int = 1, z_name: str = "z",
              config: GBConfig | None = None) -> ClosureResult:
    """Equation satisfied by the j-th derivative of every solution of the
    input equation; output order <= n."""
    if j < 1:
        raise ArgumentError("derivative count must be positive")
    ctx = ade.ctx
    n = ade.order
    z_id = ctx.indeterminate(z_name)
    sat = saturation_poly(ctx, [ade.initial, ade.separant])

    def make(extra):
        polys = prolong(ade.poly, n + j + extra)
        for i in range(n + 1 + extra):
            polys.append(
                Poly.var(ctx, ctx.diff_var(z_id, i))
                - Poly.var(ctx, ctx.diff_var(ade.dep, j + i))
            )
        if sat is not None:
            w = Poly.var(ctx, ctx.diff_var(ctx.indeterminate(SAT_NAME), 0))
            polys.append(w * sat - Poly.const(ctx, 1))
        return _partition(polys, z_id, keep_order=n + extra,
                          prolongations=n + j + extra)

    return _search(make, z_id, n, config)


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
    ctx = main.ctx
    deps = {main.dep}
    for c in coeff_odes:
        if c.dep in deps:
            raise ArgumentError("coefficient dependents must be distinct")
        deps.add(c.dep)
        if not _is_linear_in(c.poly, c.dep):
            raise ArgumentError(f"coefficient equation for {c.dep_name} is not linear")
    if not _is_linear_in(main.poly, main.dep):
        raise ArgumentError("main equation is not linear in its dependent")
    s0 = main.order + sum(c.order for c in coeff_odes)
    inputs = [main.poly] + [c.poly for c in coeff_odes]
    factors = [main.initial, main.separant]
    for c in coeff_odes:
        factors.extend([c.initial, c.separant])
    sat = saturation_poly(ctx, factors)

    def make(extra):
        return build_system(inputs, main.dep, s0 + extra, saturate=sat)

    return _search(make, main.dep, s0, config)


def _is_linear_in(p: Poly, dep: int) -> bool:
    for mono in p.terms:
        deg = sum(e for idx, e in mono
                  if (v := p.ctx.var_by_index(idx)).kind == DIFF and v.indet == dep)
        if deg > 1:
            return False
    return True
