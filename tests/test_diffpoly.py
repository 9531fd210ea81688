"""The differential layer: total derivation, rational functions, equation
normalization, and implicit higher derivatives."""

import math
from fractions import Fraction

import pytest

from dalg import (Context, Poly, RatFunc, equation_to_ade,
                  implicit_higher_derivative, normalize_ade)
from dalg.context import DIFF
from dalg.diffpoly import rational_substitute, total_derivative
from dalg.errors import ArgumentError, DivisionByZeroError

from conftest import (at_series, make_rng, random_poly, reference_derivative,
                      same_ratfunc, series_solution, weierstrass)


def setup_vars():
    ctx = Context()
    y = ctx.indeterminate("y")
    vs = [ctx.indep, ctx.diff_var(y, 0), ctx.diff_var(y, 1), ctx.param("a")]
    return ctx, y, vs


def test_derivation_base_cases():
    ctx, y, (x, y0, y1, a) = setup_vars()
    # [TRIVIAL] D(x) = 1, D(a) = 0, D(y) = y'
    assert total_derivative(Poly.var(ctx, x)) == Poly.const(ctx, 1)
    assert total_derivative(Poly.var(ctx, a)).is_zero()
    assert total_derivative(Poly.var(ctx, y0)) == Poly.var(ctx, y1)
    assert total_derivative(Poly.const(ctx, 5)).is_zero()


def test_derivation_leibniz_linearity_random():
    # criterion 9 property: 1000 random polynomials
    ctx, y, vs = setup_vars()
    rng = make_rng(55)
    for _ in range(500):
        f = random_poly(ctx, vs, rng)
        g = random_poly(ctx, vs, rng)
        assert total_derivative(f + g) == total_derivative(f) + total_derivative(g)
        assert total_derivative(f * g) == (total_derivative(f) * g
                                           + f * total_derivative(g))


def test_derivation_is_the_chain_rule_sum():
    # D(f) = sum over the variables v of df/dv * D(v), with D(x) = 1,
    # D(a) = 0 and D(y^(k)) = y^(k+1); the last draw has over 200 terms
    ctx = Context()
    y, u = ctx.indeterminate("y"), ctx.indeterminate("u")
    vs = [ctx.indep, ctx.param("a"), *(ctx.diff_var(d, k) for d in (y, u) for k in range(3))]
    rng = make_rng(15)
    draws = [random_poly(ctx, vs, rng, max_terms=12, max_deg=4) for _ in range(30)]
    big = Poly(ctx)
    while big.num_terms() <= 200:
        big = big + random_poly(ctx, vs, rng, max_terms=40, max_deg=6)
    for f in [*draws, big]:
        expect = Poly(ctx)
        for v in f.variables():
            if v == ctx.indep:
                dv = Poly.const(ctx, 1)
            elif v.kind == DIFF:
                dv = Poly.var(ctx, ctx.diff_var(v.indet, v.order + 1))
            else:
                continue
            expect = expect + f.partial_derivative(v) * dv
        assert total_derivative(f) == expect


def test_derivation_hand_example():
    ctx, y, (x, y0, y1, a) = setup_vars()
    # [TRIVIAL] D(x*y^2) = y^2 + 2x*y*y'
    f = Poly.var(ctx, x) * Poly.var(ctx, y0, 2)
    expect = (Poly.var(ctx, y0, 2)
              + (Poly.var(ctx, x) * Poly.var(ctx, y0) * Poly.var(ctx, y1)).scale(2))
    assert total_derivative(f) == expect


def test_ratfunc_reduction():
    ctx, y, (x, y0, y1, a) = setup_vars()
    xm = Poly.var(ctx, x)
    one = Poly.const(ctx, 1)
    # (x^2-1)/(x-1) reduces to x+1
    r = RatFunc(xm * xm - one, xm - one)
    assert r.num == xm + one
    assert r.den == one
    # gcd cancellation in a genuine quotient
    r2 = RatFunc((xm + one) * (xm - one), (xm + one) * xm)
    assert r2.num == xm - one
    assert r2.den == xm


def test_ratfunc_arithmetic():
    ctx, y, (x, y0, y1, a) = setup_vars()
    xr = RatFunc(Poly.var(ctx, x))
    one = RatFunc(Poly.const(ctx, 1))
    half = one / RatFunc(Poly.const(ctx, 2))
    assert (one / xr) * xr == one
    assert xr + (-xr) == RatFunc(Poly(ctx))
    assert (one / xr + one / xr) == one / (xr * half)


def test_ratfunc_equality_with_other_types():
    ctx, y, (x, y0, y1, a) = setup_vars()
    half = RatFunc(Poly.const(ctx, 1), Poly.const(ctx, 2))
    xr = RatFunc(Poly.var(ctx, x))
    assert half == Fraction(1, 2) and xr == Poly.var(ctx, x)
    assert RatFunc(Poly.const(ctx, 3)) == 3
    # anything else is unequal instead of an ArgumentError
    assert not (xr == None)  # noqa: E711
    assert xr != "a" and xr != [x]
    with pytest.raises(TypeError):
        hash(xr)


def test_ratfunc_division_by_zero():
    ctx, y, vs = setup_vars()
    zero = RatFunc(Poly(ctx))
    with pytest.raises(DivisionByZeroError):
        RatFunc(Poly.const(ctx, 1)) / zero
    with pytest.raises(DivisionByZeroError):
        RatFunc(Poly.const(ctx, 1), Poly(ctx))


def test_ratfunc_derivative_quotient_rule():
    ctx, y, (x, y0, y1, a) = setup_vars()
    # [DERIVED] d/dx (y/x) = (y'x - y)/x^2
    r = RatFunc(Poly.var(ctx, y0), Poly.var(ctx, x))
    d = r.derivative()
    expect = RatFunc(Poly.var(ctx, y1) * Poly.var(ctx, x) - Poly.var(ctx, y0),
                     Poly.var(ctx, x, 2))
    assert d == expect


def test_rational_substitute():
    ctx, y, (x, y0, y1, a) = setup_vars()
    f = RatFunc(Poly.var(ctx, y0, 2) + Poly.var(ctx, x))
    sub = rational_substitute(f, {y0: RatFunc(Poly.const(ctx, 1), Poly.var(ctx, x))})
    # [TRIVIAL] y -> 1/x in y^2 + x gives (1 + x^3)/x^2
    expect = RatFunc(Poly.const(ctx, 1) + Poly.var(ctx, x, 3), Poly.var(ctx, x, 2))
    assert sub == expect


def test_normalize_ade_weierstrass():
    ctx = Context()
    ade = weierstrass(ctx)
    y = ctx.indet_id("y")
    assert ade.order == 1
    assert ade.leader == ctx.diff_var(y, 1)
    assert ade.leader_degree == 2
    # canonical form is 4y^3 - y'^2 - g2 y - g3 (positive grevlex lead),
    # so the initial is -1 and the separant -2y'
    assert ade.initial == Poly.const(ctx, -1)
    assert ade.separant == Poly.var(ctx, ade.leader).scale(-2)
    assert ade.degree == 3


def test_normalize_ade_clears_denominators():
    ctx = Context()
    y = ctx.indeterminate("y")
    y0, y1 = ctx.diff_var(y, 0), ctx.diff_var(y, 1)
    lhs = RatFunc(Poly.var(ctx, y1), Poly.var(ctx, ctx.indep))
    rhs = RatFunc(Poly.var(ctx, y0))
    ade = normalize_ade((lhs - rhs).num, dep=y)
    # y'/x = y clears and normalizes to x*y - y', also from the text
    want = Poly.var(ctx, ctx.indep) * Poly.var(ctx, y0) - Poly.var(ctx, y1)
    assert ade.poly == want
    assert equation_to_ade("diff(y(x),x)/x = y(x)", ctx).poly == want


def test_normalize_ade_errors():
    ctx = Context()
    y = ctx.indeterminate("y")
    ctx.diff_var(y, 0)
    with pytest.raises(ArgumentError):
        normalize_ade(Poly(ctx), dep=y)
    with pytest.raises(ArgumentError):
        normalize_ade(Poly.var(ctx, ctx.indep), dep=y)


def test_implicit_higher_derivative():
    ctx = Context()
    ade = weierstrass(ctx)
    y = ctx.indet_id("y")
    y0 = Poly.var(ctx, ctx.diff_var(y, 0))
    # [DERIVED] differentiating (y')^2 = 4y^3 - g2 y - g3 and cancelling 2y'
    # gives y'' = 6y^2 - g2/2
    g2 = Poly.var(ctx, ctx.param("g2"))
    expect = RatFunc(y0 * y0 * 6 - g2.scale(Fraction(1, 2)))
    assert implicit_higher_derivative(ade, 1) == expect
    # y''' = 12*y*y'
    y1 = Poly.var(ctx, ctx.diff_var(y, 1))
    assert implicit_higher_derivative(ade, 2) == RatFunc((y0 * y1).scale(12))


def test_implicit_higher_derivative_squared_leader():
    ctx = Context()
    y = ctx.indeterminate("y")
    y1 = ctx.diff_var(y, 1)
    # (y')^2 = 0 forces y' = 0, and the implicit rewriting agrees: y'' = 0
    ade = normalize_ade(Poly.var(ctx, y1, 2), dep=y)
    assert implicit_higher_derivative(ade, 1) == RatFunc(Poly(ctx))


def test_implicit_higher_derivative_matches_reference():
    # a nonlinear order-2 input whose separant 2y'' + x is not constant:
    # each step agrees term for term with the quotient rule followed by
    # substitution of y^(3) = -rest/S
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x,x)^2 + x*diff(y(x),x,x) = y(x)", ctx)
    assert ade.order == 2 and not ade.separant.is_constant()
    ref = RatFunc(Poly.var(ctx, ade.leader))
    for t in range(1, 4):
        ref = reference_derivative(ref, [ade])
        assert same_ratfunc(implicit_higher_derivative(ade, t), ref)


def test_implicit_higher_derivative_of_quadratic_leader():
    # y^(5) for an input quadratic in y'': the reductions did not finish in
    # 40 s under the primitive-PRS gcd.  Checked on the series solution
    # through y(0) = 0, y'(0) = 1/3, y''(0) = 1 (a root of y''^2 = 1 there),
    # which takes no gcd
    ctx = Context()
    ade = equation_to_ade(
        "diff(y(x),x,x)^2 + y(x)*diff(y(x),x,x) = x*diff(y(x),x)^3 + 1", ctx)
    v = implicit_higher_derivative(ade, 3)
    T = 14
    ys = series_solution(ade, [0, Fraction(1, 3), Fraction(1, 2)], T)
    y5 = at_series(Poly.var(ctx, ctx.diff_var(ade.dep, 5)), ys, T)
    residual = at_series(v.num, ys, T) - y5 * at_series(v.den, ys, T)
    assert residual.precision >= T - 5 and residual.valuation() == math.inf
