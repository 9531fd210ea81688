"""Closure operations for differentially algebraic functions.

Five operations (rational maps of one or several functions, composition,
derivation and the D-finite to D-algebraic conversion) share one pipeline
and each declares only its inputs, its saturation factors and its order
bound (n for R(f), n_1 + ... + n_N for R(f_1, ..., f_N), n + k for f(g),
the orders added for the D-finite conversion).  The pipeline couples the
inputs to a new dependent variable z in a triangular system, prolongs it to
the bound, inverts each distinct saturation factor with a Rabinowitsch
variable of its own, eliminates every non-z derivative variable once with a
block Groebner order whose eliminated block those variables lead, and
selects, among the generators of the reduced basis that involve z, the one
of lowest (order, total degree, term count).  It need not be the least
order in the elimination ideal: an element of lower order can exist without
being a basis generator.  The functional inverse alone is written down
explicitly, with no elimination at all.

One elimination is enough.  (1) The system keeps z only up to the bound,
so no generator exceeds it.  (2) There, z, ..., z^(bound) are rational
functions of x and of the inputs' bound non-leading derivatives (for f(g):
g, ..., g^(k-1) and f(g), ..., f^(n-1)(g)), which stay algebraically
independent over Q(params) on each component of the saturated ideal.  So
the bound + 2 elements x, z, ..., z^(bound) satisfy a nonzero polynomial
there, which involves z since x is transcendental, and a power of the
product of these polynomials over the components lies in the saturated
ideal, unless that is the unit ideal.  (3) The unit ideal stays the unit
ideal under more prolongation; it means that a saturation factor (an
initial, a separant, the map's denominator, or g') vanishes on the inputs'
generic solution.

One variable per factor gives the same elimination ideal as one variable
for their product: both adjoin the inverse of every factor, so both
eliminate to I : (h_1 ... h_m)^oo (the Rabinowitsch trick).  Its reduced
basis, and so the output, is the same either way; the short relations
w_i*h_i - 1 only make the Groebner basis far cheaper to reach.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import DIFF, same_context
from .diffpoly import (ADE, RatFunc, normalize_ade, rational_substitute,
                       total_derivative)
from .errors import ArgumentError, EliminationFailedError
from .groebner import GBConfig, eliminate
from .poly import Poly, content_primitive

SAT_NAME = "_sat"  # reserved prefix of the saturation variables _sat0, _sat1, ...


@dataclass
class TriangularSystem:
    """A prolonged system ready for elimination; ``sat_vars`` are the
    saturation variables, which lead the eliminated block."""

    polys: list
    elim_vars: set
    keep_vars: set
    sat_vars: list


@dataclass
class ClosureResult:
    """The selected output equation ``ade`` plus ``generators``, the
    keep-only generators of the reduced basis that involve the output (one
    polynomial, the output's, when nothing was eliminated)."""

    ade: ADE
    generators: list


def prolong(p: Poly, s: int) -> list:
    """p together with its first s total derivatives."""
    out = [p]
    for _ in range(s):
        out.append(total_derivative(out[-1]))
    return out


def saturation_factors(factors) -> list:
    """The distinct non-constant factors, primitive-normalized.

    The factors are the initials and separants of the triangular system,
    the map's denominator and, for composition, g'; inverting them discards
    the degenerate solution branches they cut out, matching the
    triangular-set (saturation ideal) reading of the system.
    """
    seen = []
    for f in factors:
        if f.is_zero() or f.is_constant():
            continue
        f = content_primitive(f)[1]
        if not any(f == g for g in seen):
            seen.append(f)
    return seen


def build_system(inputs, z_id: int, s: int, saturate=(),
                 leads=None) -> TriangularSystem:
    """Prolong input i s + leads[i] times (every lead defaults to 0) and
    partition the variables: derivatives of z up to order s (and x,
    parameters) are kept, everything else is eliminated.  Each saturation
    factor h_i is inverted by adjoining w_i*h_i - 1 (un-prolonged) with an
    eliminated fresh variable w_i, named _sat<i>."""
    leads = leads or [0] * len(inputs)
    polys = []
    for p, lead in zip(inputs, leads):
        polys.extend(prolong(p, s + lead))
    ctx = inputs[0].ctx
    sat_vars = [ctx.diff_var(ctx.indeterminate(f"{SAT_NAME}{i}"), 0)
                for i in range(len(saturate))]
    for w, h in zip(sat_vars, saturate):
        polys.append(Poly.var(ctx, w) * h - Poly.const(ctx, 1))
    elim, keep = set(), set()
    for p in polys:
        for v in p.variables():
            if v.kind == DIFF and (v.indet != z_id or v.order > s):
                elim.add(v)
            else:
                keep.add(v)
    return TriangularSystem(polys, elim, keep, sat_vars)


def select_output(generators, z_id: int) -> ADE:
    """Among generators that involve z, the one of minimal (order, total
    degree, term count), as an ADE."""
    from .render import poly_to_text

    def sel_key(g):
        z_order = max(v.order for v in g.variables()
                      if v.kind == DIFF and v.indet == z_id)
        return (z_order, g.total_degree(), g.num_terms(), poly_to_text(g))

    best = min(generators, key=sel_key)
    return normalize_ade(best, dep=z_id)


def _close(inputs, z_id: int, bound: int, factors, config, leads=None) -> ClosureResult:
    """The pipeline: prolong the inputs bound (+ lead) times, saturate by
    the factors, eliminate once, and select among the generators that
    involve z."""
    system = build_system(inputs, z_id, bound, saturation_factors(factors), leads)
    gens = [g for g in eliminate(system.polys, system.elim_vars,
                                 system.keep_vars, config,
                                 first=system.sat_vars)
            if any(v.kind == DIFF and v.indet == z_id for v in g.variables())]
    if not gens:
        raise EliminationFailedError(
            "no keep-only generator involves the output: a saturation factor "
            "(an initial, a separant, the map's denominator, or g' for "
            "compose) vanishes on the inputs' generic solution")
    return ClosureResult(select_output(gens, z_id), gens)


def _output_id(ctx, z_name: str, inputs) -> int:
    """The id of the output dependent, which no input may share: the input
    and the output would then be one function."""
    z_id = ctx.indeterminate(z_name)
    if any(a.dep == z_id for a in inputs):
        raise ArgumentError(f"the output name {z_name!r} is the dependent of an input")
    return z_id


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
    z_id = _output_id(ctx, z_name, ades)
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    defining = z * R.den - R.num
    if not any(v.kind == DIFF for v in R.variables()):
        # no dependent occurs: z = R(x) needs no elimination
        return ClosureResult(normalize_ade(defining, dep=z_id), [defining])
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
    z_id = _output_id(ctx, z_name, [outer, inner])
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
    z_id = _output_id(ctx, z_name, [ade])
    link = (Poly.var(ctx, ctx.diff_var(z_id, 0))
            - Poly.var(ctx, ctx.diff_var(ade.dep, j)))
    return _close([ade.poly, link], z_id, ade.order,
                  [ade.initial, ade.separant], config, leads=(j, 0))


def inv_dalg(ade: ADE, z_name: str = "z") -> ClosureResult:
    """Equation of order n for the functional inverse, written down
    explicitly (no elimination): substitute x -> z, y -> x, and
    y^(i) -> D_i with D_1 = 1/z', D_{i+1} = D_i' / z'.  P = a(x, y)*y'^d,
    constant off its initial, leaves no z' and raises ArgumentError."""
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
    if not any(v.kind == DIFF and v.indet == z_id and v.order
               for v in result.num.variables()):
        raise ArgumentError("the input's generic solutions are constant, "
                            "so they have no functional inverse")
    out = normalize_ade(result.num, dep=z_id)
    return ClosureResult(out, [out.poly])


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
