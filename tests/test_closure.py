"""Closure operations on small, independently derivable families.

The exponential family gives outputs that can be derived by hand and
verified against truncated series solutions."""

import time
from fractions import Fraction

import pytest

from dalg import (Context, Poly, SeriesWitness, arithmetic_dalg, build_system,
                  compose_dalg, ddfinite_to_dalg, diff_dalg, equation_to_ade,
                  inv_dalg, select_output, spec_to_ratfunc, unary_dalg,
                  verify_series)
from dalg.closure import prolong
from dalg.diffpoly import normalize_ade
from dalg.errors import ArgumentError
from dalg.series import TruncSeries

from conftest import proportional, weierstrass


def exp_ade(ctx, name="y", rate=1):
    """y' = rate * y."""
    return equation_to_ade(f"diff({name}(x),x) = {rate}*{name}(x)", ctx,
                           extra_deps=[name])


def exp_witness(rate, T=12, name="z"):
    c = Fraction(1)
    coeffs = []
    for i in range(T):
        coeffs.append(c)
        c = c * rate / (i + 1)
    return SeriesWitness(name, coeffs)


def check_series(ade, witness, T=12):
    val = verify_series(ade, witness, T)
    assert val >= T - ade.order, f"residual valuation {val}"


def test_prolong_and_build_system_counts():
    ctx = Context()
    ade = exp_ade(ctx)
    assert len(prolong(ade.poly, 3)) == 4
    z = ctx.indeterminate("z")
    defining = (Poly.var(ctx, ctx.diff_var(z, 0))
                - Poly.var(ctx, ctx.diff_var(ctx.indet_id("y"), 0), 2))
    system = build_system([ade.poly, defining], z, 1)
    # two inputs, each prolonged once
    assert len(system.polys) == 4
    assert system.prolongations == 1
    # keeps z, z'; eliminates y, y', y'' (x does not occur here)
    keep_names = {repr(v) for v in system.keep_vars}
    assert keep_names == {"z", "z^(1)"}
    assert len(system.elim_vars) == 3
    s0 = build_system([ade.poly, defining], z, 0)
    assert len(s0.polys) == 2
    # the diff shape: the input runs j = 2 prolongations ahead of the link
    # z - y^(2), so at s = 1 both reach y^(4)
    link = (Poly.var(ctx, ctx.diff_var(z, 0))
            - Poly.var(ctx, ctx.diff_var(ctx.indet_id("y"), 2)))
    sd = build_system([ade.poly, link], z, 1, leads=(2, 0))
    assert len(sd.polys) == 4 + 2
    assert {repr(v) for v in sd.keep_vars} == {"z", "z^(1)"}
    assert len(sd.elim_vars) == 5  # y, y^(1), ..., y^(4)
    assert sd.prolongations == 3
    # diff_dalg reports n + j prolongations
    assert diff_dalg(exp_ade(Context()), 2).prolongations == 3


def test_select_output_order_before_degree():
    # [TRIVIAL] selection rule: order precedes total degree
    ctx = Context()
    z = ctx.indeterminate("z")
    z0 = Poly.var(ctx, ctx.diff_var(z, 0))
    z1 = Poly.var(ctx, ctx.diff_var(z, 1))
    z2 = Poly.var(ctx, ctx.diff_var(z, 2))
    low_order_high_degree = z0 ** 5 + z1
    high_order_low_degree = z2 * z0 + z0
    chosen = select_output([high_order_low_degree, low_order_high_degree], z)
    assert chosen.poly == low_order_high_degree
    # degree breaks ties at equal order
    a = z1 * z0 + z0
    b = z1 + z0
    assert select_output([a, b], z).poly == b


def test_unary_weierstrass_square_over_shift():
    # Guards the sugar pair selection: with pairs taken by the degree of
    # their lcm this elimination runs for over 300 s; with sugar, about a
    # second.  The witness is the solution with y(0) = y'(0) = 1 at g2 = 1,
    # g3 = 2, from y'' = 6y^2 - g2/2.
    ctx = Context()
    ade = weierstrass(ctx)
    zname, R = spec_to_ratfunc("z = y^2/(x+y)", ctx, ["y"])
    t0 = time.process_time()
    res = unary_dalg(ade, R, z_name=zname)
    assert time.process_time() - t0 < 60
    assert res.ade.order == 1
    T, g2, g3 = 12, Fraction(1), Fraction(2)
    y = [Fraction(1), Fraction(1)]
    for k in range(T - 2):
        square = sum(y[i] * y[k - i] for i in range(k + 1))
        y.append((6 * square - (g2 / 2 if k == 0 else 0)) / ((k + 2) * (k + 1)))
    y = TruncSeries(y)
    z = y * y / (TruncSeries.x(T) + y)
    check_series(res.ade, SeriesWitness("z", z.coeffs, {"g2": g2, "g3": g3}), T)


def test_unary_square_of_exponential():
    # [DERIVED] y = e^x, z = y^2 = e^{2x} satisfies z' = 2z
    ctx = Context()
    ade = exp_ade(ctx)
    zname, R = spec_to_ratfunc("z = y^2", ctx, ["y"])
    res = unary_dalg(ade, R, z_name=zname)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.diff_var(z, 1))
              - Poly.var(ctx, ctx.diff_var(z, 0)).scale(2))
    assert proportional(res.ade.poly, expect)
    check_series(res.ade, exp_witness(2))


def test_unary_reciprocal():
    # [DERIVED] z = 1/y for y = e^x gives z' + z = 0
    ctx = Context()
    ade = exp_ade(ctx)
    zname, R = spec_to_ratfunc("z = 1/y", ctx, ["y"])
    res = unary_dalg(ade, R, z_name=zname)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.diff_var(z, 1))
              + Poly.var(ctx, ctx.diff_var(z, 0)))
    assert proportional(res.ade.poly, expect)
    check_series(res.ade, exp_witness(-1))


def test_unary_identity_returns_input():
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x)^2 = 4*y(x)^3 - g2*y(x) - g3", ctx)
    zname, R = spec_to_ratfunc("z = y", ctx, ["y"])
    res = unary_dalg(ade, R, z_name=zname)
    z = ctx.indet_id("z")
    z0 = Poly.var(ctx, ctx.diff_var(z, 0))
    z1 = Poly.var(ctx, ctx.diff_var(z, 1))
    g2 = Poly.var(ctx, ctx.param("g2"))
    g3 = Poly.var(ctx, ctx.param("g3"))
    expect = z0 ** 3 * 4 - z1 * z1 - g2 * z0 - g3
    assert proportional(res.ade.poly, expect)


def test_unary_degenerate_rational_in_x():
    # no derivatives in the map: the defining equation itself comes back
    ctx = Context()
    ade = exp_ade(ctx)
    zname, R = spec_to_ratfunc("z = x^2/(1+x)", ctx, ["y"])
    res = unary_dalg(ade, R, z_name=zname)
    assert res.ade.order == 0
    assert res.prolongations == 0
    z = ctx.indet_id("z")
    z0 = Poly.var(ctx, ctx.diff_var(z, 0))
    x = Poly.var(ctx, ctx.indep)
    assert proportional(res.ade.poly, z0 * x + z0 - x * x)


def test_unary_rejects_derivatives_in_map():
    ctx = Context()
    ade = exp_ade(ctx)
    y = ctx.indet_id("y")
    R_bad = spec_to_ratfunc("z = y", ctx, ["y"])[1]
    from dalg import RatFunc
    R_bad = R_bad * RatFunc(Poly.var(ctx, ctx.diff_var(y, 1)))
    with pytest.raises(ArgumentError):
        unary_dalg(ade, R_bad)


def test_arithmetic_product_of_exponentials():
    # [DERIVED] e^x * e^{2x} = e^{3x} satisfies z' = 3z
    ctx = Context()
    a1 = exp_ade(ctx, "y1", 1)
    a2 = exp_ade(ctx, "y2", 2)
    zname, R = spec_to_ratfunc("z = y1*y2", ctx, ["y1", "y2"])
    res = arithmetic_dalg([a1, a2], R, z_name=zname)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.diff_var(z, 1))
              - Poly.var(ctx, ctx.diff_var(z, 0)).scale(3))
    assert proportional(res.ade.poly, expect)
    check_series(res.ade, exp_witness(3))


def test_arithmetic_sum_of_exponentials():
    # [DERIVED] a*e^x + b*e^{-x} satisfies z'' = z and nothing of order 1
    ctx = Context()
    a1 = exp_ade(ctx, "y1", 1)
    a2 = exp_ade(ctx, "y2", -1)
    zname, R = spec_to_ratfunc("z = y1 + y2", ctx, ["y1", "y2"])
    res = arithmetic_dalg([a1, a2], R, z_name=zname)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.diff_var(z, 2))
              - Poly.var(ctx, ctx.diff_var(z, 0)))
    assert proportional(res.ade.poly, expect)
    # witness 2*cosh(x)
    cosh2 = [2 * c if i % 2 == 0 else Fraction(0)
             for i, c in enumerate(exp_witness(1).coeffs)]
    check_series(res.ade, SeriesWitness("z", cosh2))


def test_arithmetic_validates_inputs():
    ctx = Context()
    a1 = exp_ade(ctx, "y1")
    with pytest.raises(ArgumentError):
        arithmetic_dalg([a1], spec_to_ratfunc("z = y1", ctx, ["y1"])[1])
    with pytest.raises(ArgumentError):
        arithmetic_dalg([a1, a1], spec_to_ratfunc("z = y1^2", ctx, ["y1"])[1])


def test_compose_double_exponential():
    # [DERIVED] z = f(g) with f, g exponentials satisfies z''z = z'^2 + z'z
    ctx = Context()
    outer = exp_ade(ctx, "y1")
    inner = exp_ade(ctx, "y2")
    res = compose_dalg(outer, inner)
    z = ctx.indet_id("z")
    z0 = Poly.var(ctx, ctx.diff_var(z, 0))
    z1 = Poly.var(ctx, ctx.diff_var(z, 1))
    z2 = Poly.var(ctx, ctx.diff_var(z, 2))
    expect = z2 * z0 - z1 * z1 - z1 * z0
    assert proportional(res.ade.poly, expect)
    # witness exp(exp(x) - 1): w' = w * exp(x)
    T = 12
    exp1 = exp_witness(1, T).coeffs
    w = [Fraction(1)]
    for n in range(T - 1):
        deriv = sum(w[k] * exp1[n - k] for k in range(n + 1))
        w.append(deriv / (n + 1))
    check_series(res.ade, SeriesWitness("z", w), T)


def test_compose_rejects_shared_dependent():
    ctx = Context()
    outer = exp_ade(ctx, "y1")
    with pytest.raises(ArgumentError):
        compose_dalg(outer, outer)


def test_diff_of_exponential():
    # [DERIVED] z = y' for y' = y is again the exponential: z' = z
    ctx = Context()
    ade = exp_ade(ctx)
    res = diff_dalg(ade, 1)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.diff_var(z, 1))
              - Poly.var(ctx, ctx.diff_var(z, 0)))
    assert proportional(res.ade.poly, expect)
    check_series(res.ade, exp_witness(1))
    with pytest.raises(ArgumentError):
        diff_dalg(ade, 0)


def test_inverse_of_exponential_is_logarithm():
    # [DERIVED] the inverse of e^x satisfies x*z' = 1
    ctx = Context()
    ade = exp_ade(ctx)
    res = inv_dalg(ade)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.indep) * Poly.var(ctx, ctx.diff_var(z, 1))
              - Poly.const(ctx, 1))
    assert proportional(res.ade.poly, expect)
    assert res.prolongations == 0


def test_inverse_requires_positive_order():
    ctx = Context()
    y = ctx.indeterminate("y")
    y0 = ctx.diff_var(y, 0)
    ade = normalize_ade(Poly.var(ctx, y0, 2) - Poly.var(ctx, ctx.indep), dep=y)
    with pytest.raises(ArgumentError):
        inv_dalg(ade)


def test_ddfinite_cosine_coefficient():
    # main: y' = C*y with C = cos(x); then z = exp(sin(x))
    ctx = Context()
    C = equation_to_ade("diff(C(x),x,x) + C(x) = 0", ctx)
    main = equation_to_ade("diff(y(x),x) = C(x)*y(x)", ctx, extra_deps=["C"])
    res = ddfinite_to_dalg(main, [C])
    assert res.ade.dep_name == "y"
    assert res.ade.order <= 3
    # [DERIVED] series of exp(sin(x))
    T = 12
    sin = [Fraction(0)] * T
    sign = 1
    for i in range(1, T, 2):
        f = Fraction(sign)
        for k in range(2, i + 1):
            f /= k
        sin[i] = f
        sign = -sign
    w = [Fraction(1)]
    for n in range(T - 1):
        # w' = cos(x) * w, cos = sin'
        cos = [(i + 1) * sin[i + 1] for i in range(T - 1)]
        deriv = sum(w[k] * cos[n - k] for k in range(n + 1))
        w.append(deriv / (n + 1))
    check_series(res.ade, SeriesWitness("y", w), T)


def test_ddfinite_rejects_nonlinear():
    ctx = Context()
    C = equation_to_ade("diff(C(x),x) = C(x)", ctx)
    main = equation_to_ade("diff(y(x),x) = C(x)*y(x)^2", ctx, extra_deps=["C"])
    with pytest.raises(ArgumentError):
        ddfinite_to_dalg(main, [C])


def test_public_names_resolve():
    # a name left in __all__ after its deletion fails only on `import *`
    import dalg

    missing = [name for name in dalg.__all__ if not hasattr(dalg, name)]
    assert missing == []
