"""Closure operations for differentially algebraic functions.

Five operations (rational maps of one or several functions, composition,
derivation and the D-finite to D-algebraic conversion) share one pipeline.
Each declares only its inputs, a link polynomial that ties the output z to
them, and its extra saturation factors; the order bound is the order sum of
the inputs.  For R(f_1, ..., f_N) the link is z*den(R) - num(R) and the
bound n_1 + ... + n_N.  The j-th derivative is the map R = y^(j), written
through the inputs' derivation when j > n.  For f(g), with f of order n and
g of order k, the inputs are n chain-rule equations v_i' = v_{i+1}*g' of
order one (g' is u', or its value through g's equation when k = 0), f evaluated at (u, v) as an equation of order zero in v_n, and
g's own equation, the link is z - v_0 and the bound n + k.  The D-finite
conversion takes the main equation itself as the link, with z the main
dependent and the coefficient equations as the inputs.

The pipeline keeps the inputs as they are, prolongs the link to the bound
under the inputs' coupled derivation (:meth:`RatFunc.derivative`, which
replaces each input's y_j^(n_j+1) by its value, so no link names any
y_j above y_j^(n_j)), eliminates every non-z derivative variable once
from the saturation of the system by its factors, with a block Groebner
order, and selects, among the generators of the reduced basis
that involve z, the one of lowest (order, total degree, term count).  It
need not be the least order in the elimination ideal: an element of lower
order can exist without being a basis generator.  A generator that already
solves for an eliminated variable with a constant coefficient (an explicit
input y' = f, the link z - y1 - y2 or z - v_0) costs Buchberger nothing:
:func:`~dalg.groebner.eliminate` substitutes that variable away first,
which leaves the reduced basis unchanged.  The functional inverse
alone is written down explicitly, with no elimination at all.  Every
operation checks its inputs against one class, :func:`_check_inputs`;
composition checks its outer and inner equations as two systems.

Substituting is prolonging.  Prolong every input P_j, and the link, to the
bound instead: each prolongation D^t(P_j) = S_j*y_j^(n_j+t) + T is linear
in its new leader, with the separant S_j as its coefficient, and every
separant is a saturation factor.  So in the ring where the factors are
inverted, the prolonged inputs generate the same ideal as the P_j together
with y_j^(n_j+t) - V_jt, where V_jt is the value of y_j^(n_j+t) under the
coupled derivation d.  That derivation maps each P_j to zero, so
substituting the values commutes with derivation: the t-th derivative of
the link, substituted, is d^t of the link, and the numerator of d applied
to the previous link differs from it by a unit and a multiple of that
link.  Replacing the generator y_j^(n_j+t) - V_jt by the substitution
leaves the intersection of the ideal with the ring without y_j^(n_j+t)
unchanged, and a prolongation whose leader occurs nowhere else (the main
equation's above the bound, in the D-finite conversion) drops out the same
way.  So both systems have the same elimination ideal
I : (h_1 ... h_m)^oo, whose reduced basis is unique: the output is the
same polynomial either way, and the inputs' higher derivatives never reach
the Groebner basis (Rosenfeld's lemma, as used by Boulier, Lazard,
Ollivier & Petitot, ISSAC 1995).

One elimination is enough.  (1) The system keeps z only up to the bound,
so no generator exceeds it.  (2) There, z, ..., z^(bound) are algebraic
over the field generated by x and the inputs' bound non-leading
derivatives (for f(g): g, ..., g^(k-1) and f(g), ..., f^(n-1)(g)) over
Q(params), on each component of the saturated ideal: each leader is
algebraic over them, and each higher derivative is a rational function of
the leaders and those derivatives.  An input names another's y_k only
below n_k, so its derivative names y_k only up to y_k^(n_k).  So the
bound + 2 elements x, z, ..., z^(bound) satisfy a nonzero polynomial
there, which involves z since x is transcendental, and a power of the
product of these polynomials over the components lies in the saturated
ideal, unless that is the unit ideal.  (3) The unit ideal stays the unit
ideal under more prolongation; it means that a saturation factor (an
initial, a separant, the map's denominator, or g') vanishes on the inputs'
generic solution.

The saturation is :func:`~dalg.groebner.eliminate`'s: it takes the
factors (initials, separants, the map's denominator, g') as they are and
returns the reduced basis of the elimination ideal of I : (h_1 ... h_m)^oo.
A factor that it certifies as a non-zero-divisor modulo I (I + (h) of
codimension above the number of generators, which Macaulay's unmixedness
theorem turns into a proof) leaves I unchanged and is dropped; each other
factor gets a Rabinowitsch variable of its own.  Certified or not, the
basis, and so the output, is the one that inverting every factor gives.
On the benchmark's systems it keeps only the factors of criteria 2 and 3,
where saturation changes the output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import DIFF, same_context
from .diffpoly import (ADE, RatFunc, implicit_higher_derivative, normalize_ade,
                       rational_substitute)
from .errors import ArgumentError, EliminationFailedError
from .groebner import GBConfig, eliminate
from .poly import Poly
VANISHING_FACTOR = ("no keep-only generator involves the output: a saturation "
                    "factor (an initial, a separant, the map's denominator, or "
                    "g' for compose) vanishes on the inputs' generic solution")


@dataclass
class TriangularSystem:
    """The system one closure operation eliminates from."""

    polys: list
    elim_vars: set
    keep_vars: set


@dataclass
class ClosureResult:
    """The selected output equation ``ade`` plus ``generators``, the
    keep-only generators of the reduced basis that involve the output (one
    polynomial, the output's, when nothing was eliminated)."""

    ade: ADE
    generators: list


def build_system(ades, link: Poly, z_id: int, s: int) -> TriangularSystem:
    """The input equations as they are, then the link and its first s
    derivatives under the inputs' coupled derivation (each step the
    numerator of :meth:`RatFunc.derivative`).  Derivatives of z (and x,
    parameters) are kept, every other derivative is eliminated.  One pass
    of the derivation replaces every input's y_j^(n_j+1) when each input's
    derivative names no other input's y_k^(n_k+1), or only those of inputs
    after it."""
    links = [link]
    for _ in range(s):
        links.append(RatFunc(links[-1]).derivative(ades).num)
    polys = [a.poly for a in ades] + links
    elim, keep = set(), set()
    for p in polys:
        for v in p.variables():
            (elim if v.kind == DIFF and v.indet != z_id else keep).add(v)
    return TriangularSystem(polys, elim, keep)


def select_output(generators, z_id: int) -> ADE:
    """Among generators that involve z, the one of minimal (order, total
    degree, term count), as an ADE; a tie goes to the least rendered
    text, which is rendered only when there is a tie."""
    ctx = generators[0].ctx
    z_order = {v.index: v.order for v in ctx.variables
               if v.kind == DIFF and v.indet == z_id}

    def rank(g):
        return (max(z_order.get(idx, -1) for mono in g.terms for idx, _ in mono),
                g.total_degree(), g.num_terms())

    ranked = [(rank(g), g) for g in generators]
    low = min(r for r, _ in ranked)
    tied = [g for r, g in ranked if r == low]
    if len(tied) > 1:
        from .render import poly_to_text

        tied.sort(key=poly_to_text)
    return normalize_ade(tied[0], dep=z_id)


def _close(ades, link: Poly, z_id: int, config, factors=()) -> ClosureResult:
    """The pipeline: prolong the link to the order sum n_1 + ... + n_N of
    the inputs, saturate by the factors and by each input's initial and
    separant, eliminate once, and select among the generators that
    involve z."""
    factors = list(factors)
    for a in ades:
        factors.extend([a.initial, a.separant])
    system = build_system(ades, link, z_id, sum(a.order for a in ades))
    gens = [g for g in eliminate(system.polys, system.elim_vars,
                                 system.keep_vars, config, saturate=factors)
            if any(v.kind == DIFF and v.indet == z_id for v in g.variables())]
    if not gens:
        raise EliminationFailedError(VANISHING_FACTOR)
    return ClosureResult(select_output(gens, z_id), gens)


def _output_id(ctx, z_name: str, inputs) -> int:
    """The id of the output dependent, which no input may share: the input
    and the output would then be one function."""
    z_id = ctx.indeterminate(z_name)
    if any(a.dep == z_id for a in inputs):
        raise ArgumentError(f"the output name {z_name!r} is the dependent of an input")
    return z_id


def _check_inputs(ades, R=None) -> None:
    """Raise ArgumentError unless the inputs are in the class of every
    operation: at least one equation, distinct dependents y_j of orders
    n_j, each function an equation names an input's dependent, another
    input's y_k only below n_k, and R naming y_j only up to y_j^(n_j)."""
    if not ades:
        raise ArgumentError("need at least one input equation")
    orders = {a.dep: a.order for a in ades}
    if len(orders) != len(ades):
        raise ArgumentError("input equations must have distinct dependents")
    same_context(*[a.poly for a in ades], *([R.num] if R is not None else []))
    # (where, its variables, its own dependent, 1 when y_k^(n_k) itself may occur)
    named = [(f"the equation of {a.dep_name}", a.poly.variables(), a.dep, 0)
             for a in ades]
    named += [("the rational map", R.variables(), None, 1)] if R is not None else []
    for where, variables, own, reach in named:
        for v in sorted(variables, key=lambda v: v.index):
            if v.kind != DIFF or v.indet == own:
                continue
            if v.indet not in orders:
                raise ArgumentError(f"{where} involves {v.name}(x), which is "
                                    f"not an input's dependent")
            if v.order >= orders[v.indet] + reach:
                side = "above" if reach else "not below"
                raise ArgumentError(f"{where} involves {v!r}, {side} the order of its own")


def _rational(ades, R: RatFunc, z_name, config) -> ClosureResult:
    """R(x, f_1, ..., f_N) through the link z*den(R) - num(R), saturated by
    den(R) and the initials and separants of the inputs."""
    _check_inputs(ades, R)
    ctx = ades[0].ctx
    z_id = _output_id(ctx, z_name, ades)
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    link = z * R.den - R.num
    if not any(v.kind == DIFF for v in R.variables()):
        # no dependent occurs: z = R(x) needs no elimination
        ade = normalize_ade(link, dep=z_id)
        return ClosureResult(ade, [ade.poly])
    return _close(ades, link, z_id, config, [R.den])


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
    return _rational(ades, R, z_name, config)


def compose_dalg(outer: ADE, inner: ADE, config: GBConfig | None = None) -> ClosureResult:
    """Equation of order <= n + k satisfied by f(g(x)) where f solves the
    outer equation (order n) and g the inner one (order k).

    Encoding: u carries g through the inner equation, v_i carries
    f^(i) composed with g; the chain rule supplies v_i' = v_{i+1} * g' for
    i < n, and the outer equation evaluated at (u, v) is an equation of
    order zero in v_n.  Here g' is u' or, when the inner equation has
    order zero, the value of u' through it, so no chain equation names u
    at or above the inner order.  The inputs come in the order chain,
    outer, inner: the derivative of v_{n-1}' - v_n*g' names v_n', which
    the outer equation then replaces, and every u^(k+1) that the chain and
    the outer equation's derivatives name is replaced by the inner one.
    """
    same_context(outer.poly, inner.poly)
    if outer.dep == inner.dep:
        raise ArgumentError("outer and inner equations must use distinct dependents")
    _check_inputs([outer])
    _check_inputs([inner])
    ctx = outer.ctx
    n = outer.order
    z_id = _output_id(ctx, "z", [outer, inner])
    v_ids = [ctx.indeterminate(f"_v{i}") for i in range(n + 1)]
    v = [Poly.var(ctx, ctx.diff_var(v_id, 0)) for v_id in v_ids]
    g1 = (implicit_higher_derivative(inner, 1) if inner.order == 0
          else RatFunc(Poly.var(ctx, ctx.diff_var(inner.dep, 1))))
    bindings = {ctx.indep: Poly.var(ctx, ctx.diff_var(inner.dep, 0))}
    for i in range(n + 1):
        bindings[ctx.diff_var(outer.dep, i)] = v[i]
    chain = [normalize_ade(Poly.var(ctx, ctx.diff_var(v_ids[i], 1)) * g1.den
                           - v[i + 1] * g1.num, dep=v_ids[i])
             for i in range(n)]
    evaluated = normalize_ade(outer.poly.substitute(bindings), dep=v_ids[n])
    z = Poly.var(ctx, ctx.diff_var(z_id, 0))
    return _close([*chain, evaluated, inner], z - v[0], z_id, config, [g1.num])


def diff_dalg(ade: ADE, j: int = 1, config: GBConfig | None = None) -> ClosureResult:
    """Equation satisfied by the j-th derivative of every solution of the
    input equation; output order <= n: the rational map y^(j), written
    through the input's derivation in y, ..., y^(n) when j > n."""
    if j < 1:
        raise ArgumentError("derivative count must be positive")
    value = (implicit_higher_derivative(ade, j - ade.order) if j > ade.order
             else RatFunc(Poly.var(ade.ctx, ade.ctx.diff_var(ade.dep, j))))
    return _rational([ade], value, "z", config)


def inv_dalg(ade: ADE) -> ClosureResult:
    """Equation of order n for the functional inverse, written down
    explicitly (no elimination): substitute x -> z, y -> x, and
    y^(i) -> D_i with D_1 = 1/z', D_{i+1} = D_i' / z'.  P = a(x, y)*y'^d,
    constant off its initial, leaves no z' and raises ArgumentError."""
    _check_inputs([ade])
    ctx = ade.ctx
    n = ade.order
    if n < 1:
        raise ArgumentError("input equation must have order at least one")
    z_id = ctx.indeterminate("z")
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
    """Equation in the main dependent alone for the coupled system of the
    main equation and one equation per coefficient function: the main
    equation is the link, with z = y the main dependent itself, prolonged
    to the order sum of the coefficient equations, which are the inputs.
    Linear equations with D-finite coefficients are the classical case; any
    input of the common class is accepted."""
    _check_inputs([main, *coeff_odes])
    return _close(list(coeff_odes), main.poly, main.dep, config,
                  [main.initial, main.separant])
