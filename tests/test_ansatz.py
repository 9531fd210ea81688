"""Degree-bounded search: monomial enumeration, the exact linear solver, and
recovery of known equations."""

from fractions import Fraction

import pytest

from dalg import (Context, Poly, RatFunc, ansatz_search, derivative_closure,
                  enumerate_delta, equation_to_ade, implicit_higher_derivative,
                  solve_linear_ratfunc, spec_to_ratfunc)
from dalg.ansatz import DeltaMonomial, LinearSystem
from dalg.errors import AnsatzNotFoundError, ArgumentError

from conftest import proportional, weierstrass


def test_enumerate_delta_order_and_counts():
    # [TRIVIAL] degree first, then graded with higher derivatives later
    got = [m.exps for m in enumerate_delta(2, 1)]
    assert got == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(enumerate_delta(2, 2)) == 9
    assert len(enumerate_delta(1, 0)) == 1
    assert len(enumerate_delta(3, 1)) == 2 + 3 + 4
    with pytest.raises(ArgumentError):
        enumerate_delta(0, 1)


def test_delta_monomial_views():
    m = DeltaMonomial((1, 0, 2))
    assert m.degree == 3
    assert m.max_order == 2
    assert m.trimmed() == (1, 0, 2)
    assert DeltaMonomial((1, 0, 0)).trimmed() == (1,)


def test_derivative_closure_weierstrass():
    ctx = Context()
    ade = weierstrass(ctx)
    y = ctx.indet_id("y")
    R = RatFunc(Poly.var(ctx, ctx.diff_var(y, 0)))
    vals = derivative_closure(R, [ade], 2)
    assert vals[0] == R
    assert vals[1] == RatFunc(Poly.var(ctx, ctx.diff_var(y, 1)))
    # z'' rewrites through the implicit second derivative 6y^2 - g2/2
    assert vals[2] == implicit_higher_derivative(ade, 1)


def test_solve_linear_unique():
    # [TRIVIAL] C0 + 2 = 0 and C1 - x = 0
    ctx = Context()
    a = ctx.param("c0")
    b = ctx.param("c1")
    x = Poly.var(ctx, ctx.indep)
    one = Poly.const(ctx, 1)
    rows = [([one, Poly(ctx)], Poly.const(ctx, 2)),
            ([Poly(ctx), one], -x)]
    sol = solve_linear_ratfunc(LinearSystem([a, b], rows))
    assert sol[0] == RatFunc(Poly.const(ctx, -2))
    assert sol[1] == RatFunc(x)


def test_solve_linear_inconsistent_and_free():
    ctx = Context()
    a = ctx.param("c0")
    one = Poly.const(ctx, 1)
    # 0*C0 + 1 = 0 has no solution
    assert solve_linear_ratfunc(
        LinearSystem([a], [([Poly(ctx)], one)])) is None
    # free unknowns default to zero
    sol = solve_linear_ratfunc(LinearSystem([a], [([Poly(ctx)], Poly(ctx))]))
    assert sol[0].is_zero()
    with pytest.raises(ArgumentError):
        solve_linear_ratfunc(LinearSystem([a], []))


def _assert_solves(rows, sol):
    """Every row vanishes after substituting the returned assignment."""
    for coeffs, const in rows:
        total = RatFunc(const)
        for c, s in zip(coeffs, sol):
            total = total + RatFunc(c) * s
        assert total.is_zero()


def test_solve_linear_polynomial_pivots():
    # 3x3 over Q(x, a) whose entries are all non-constant, so every pivot is
    # a polynomial; row 1 is zero in the first pivot column (x at row 0), so
    # it is only scaled at step 1 and the next step divides it by x
    ctx = Context()
    cs = [ctx.param(f"c{i}") for i in range(3)]
    x = Poly.var(ctx, ctx.indep)
    a = Poly.var(ctx, ctx.param("a"))
    zero = Poly(ctx)
    rows = [([x, a, x + a], Poly.const(ctx, 1)),
            ([zero, x + a, a * x], x),
            ([a, x, x * a + Poly.const(ctx, 1)], a)]
    sol = solve_linear_ratfunc(LinearSystem(cs, rows))
    _assert_solves(rows, sol)
    assert all(not s.is_polynomial() for s in sol)
    # a third row x*row0 + row1 with a different constant contradicts them
    combo = [x * p + q for p, q in zip(rows[0][0], rows[1][0])]
    bad = rows[:2] + [(combo, Poly(ctx))]
    assert solve_linear_ratfunc(LinearSystem(cs, bad)) is None


def test_solve_linear_underdetermined_free_unknown():
    # two rows, three unknowns: one column is never pivoted and stays zero
    ctx = Context()
    cs = [ctx.param(f"c{i}") for i in range(3)]
    x = Poly.var(ctx, ctx.indep)
    a = Poly.var(ctx, ctx.param("a"))
    rows = [([x, a, x * a], Poly.const(ctx, 1)),
            ([a, x * x, a + x], x)]
    sol = solve_linear_ratfunc(LinearSystem(cs, rows))
    _assert_solves(rows, sol)
    assert sum(s.is_zero() for s in sol) == 1


def test_ansatz_recovers_exponential():
    # [DERIVED] y' = y, z = y: the degree-1 search finds z' - z
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x) = y(x)", ctx)
    zname, R = spec_to_ratfunc("z = y", ctx, ["y"])
    out = ansatz_search([ade], R, k=1, z_name=zname)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.diff_var(z, 1))
              - Poly.var(ctx, ctx.diff_var(z, 0)))
    assert proportional(out.poly, expect)


def test_ansatz_square_of_exponential():
    # [DERIVED] z = y^2 satisfies z' - 2z; found at degree 1
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x) = y(x)", ctx)
    zname, R = spec_to_ratfunc("z = y^2", ctx, ["y"])
    out = ansatz_search([ade], R, k=1, z_name=zname)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.diff_var(z, 1))
              - Poly.var(ctx, ctx.diff_var(z, 0)).scale(2))
    assert proportional(out.poly, expect)


def test_ansatz_not_found():
    # a transcendence degree too high for the cap: no degree-1 constant-order
    # equation for the Weierstrass function itself at order cap 0
    ctx = Context()
    ade = weierstrass(ctx)
    zname, R = spec_to_ratfunc("z = y", ctx, ["y"])
    with pytest.raises(AnsatzNotFoundError):
        ansatz_search([ade], R, k=1, order_cap=0, z_name=zname)
    with pytest.raises(ArgumentError):
        ansatz_search([ade], R, k=0, z_name=zname)
