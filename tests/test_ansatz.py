"""Degree-bounded search: monomial enumeration, the exact linear solver, and
recovery of known equations."""

import math
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

import conftest
from dalg import ansatz
from dalg import (Context, Poly, RatFunc, ansatz_search, derivative_closure,
                  arithmetic_dalg, equation_to_ade, implicit_higher_derivative,
                  render, spec_to_ratfunc, unary_dalg)
from dalg.cli import main as cli_main
from dalg.ansatz import enumerate_delta
from dalg.context import DIFF
from dalg.errors import AnsatzNotFoundError, ArgumentError, EliminationFailedError
from dalg.poly import over_lcm, poly_gcd, try_exact_divide

from conftest import (at_series, certified_by_substitution, make_rng,
                      proportional, random_poly, reference_assemble,
                      reference_derivative, reference_solve_linear, same_ratfunc,
                      series_solution, solve_poly_rows, weierstrass)
from test_acceptance import EQ_ANSATZ_K3_TEXT


def test_enumerate_delta_order_and_counts():
    # [TRIVIAL] degree first, then graded with higher derivatives later
    got = enumerate_delta(2, 1)
    assert got == [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(enumerate_delta(2, 2)) == 9
    assert len(enumerate_delta(1, 0)) == 1
    assert len(enumerate_delta(3, 1)) == 2 + 3 + 4
    with pytest.raises(ArgumentError):
        enumerate_delta(0, 1)


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


def _assert_matches_reference(vals, ades):
    """Each closure step agrees term for term with the quotient rule
    followed by substitution of every y^(n+1) = -rest/S."""
    ref = vals[0]
    for v in vals[1:]:
        ref = reference_derivative(ref, ades)
        assert same_ratfunc(v, ref)


@pytest.mark.parametrize("ade_text", [
    "diff(y(x),x)^2 = 4*y(x)^3 - g2*y(x) - g3",
    "diff(y(x),x)^2 = 4*y(x)^3 - 2*y(x) - 3",
    "diff(y(x),x) = y(x)^2 + x",
])
@pytest.mark.parametrize("spec", ["z = y/(x+y)", "z = y^2/(x+y)"])
def test_derivative_closure_matches_reference(ade_text, spec):
    ctx = Context()
    ade = equation_to_ade(ade_text, ctx)
    _, R = spec_to_ratfunc(spec, ctx, ["y"])
    _assert_matches_reference(derivative_closure(R, [ade], 3), [ade])


def test_derivative_closure_riccati_to_order_4():
    # each order reduces its numerator against a power of x+y; r = 4 did
    # not finish under the primitive-PRS gcd.  z^(k) is checked on the
    # series solution through y(0) = 1/2, which takes no gcd
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x) = y(x)^2 + x", ctx)
    _, R = spec_to_ratfunc("z = y^2/(x+y)", ctx, ["y"])
    vals = derivative_closure(R, [ade], 4)
    T = 12
    ys = series_solution(ade, [Fraction(1, 2)], T)
    z = at_series(R.num, ys, T) / at_series(R.den, ys, T)
    x_plus_y = Poly.var(ctx, ctx.indep) + Poly.var(ctx, ctx.diff_var(ade.dep, 0))
    for k, v in enumerate(vals):
        assert v.den == x_plus_y ** (k + 1)
        residual = at_series(v.num, ys, T) - z * at_series(v.den, ys, T)
        assert residual.precision >= T - 4 and residual.valuation() == math.inf
        z = z.derivative()


def test_derivative_closure_matches_reference_for_two_inputs():
    ctx = Context()
    a1 = equation_to_ade("diff(y1(x),x)^2 = 4*y1(x)^3 - 2*y1(x) - 3", ctx)
    a2 = equation_to_ade("diff(y2(x),x)^2 = 4*y2(x)^3 - 5*y2(x) - 7", ctx)
    _, R = spec_to_ratfunc("z = y1+y2", ctx, ["y1", "y2"])
    _assert_matches_reference(derivative_closure(R, [a1, a2], 3), [a1, a2])


def test_derivative_closure_rejects_derivatives_above_the_input_order():
    # y'' is not among the first n = 1 derivatives of y' = y
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x) = y(x)", ctx)
    R = RatFunc(Poly.var(ctx, ctx.diff_var(ctx.indet_id("y"), 2)))
    with pytest.raises(ArgumentError):
        derivative_closure(R, [ade], 2)


def test_derivative_closure_rejects_an_input_at_another_inputs_order():
    # y1's equation may involve y2 only below y2's order 1; y2' would
    # survive the rewriting of y1''
    ctx = Context()
    a1 = equation_to_ade("diff(y1(x),x) = diff(y2(x),x) + y1(x)", ctx, dep="y1")
    a2 = equation_to_ade("diff(y2(x),x) = x*y2(x)", ctx, dep="y2")
    _, R = spec_to_ratfunc("z = y1", ctx, ["y1", "y2"])
    for ades in ([a1, a2], [a2, a1]):
        with pytest.raises(ArgumentError):
            derivative_closure(R, ades, 2)
    # y2 itself, at order 0, is allowed
    a1 = equation_to_ade("diff(y1(x),x) = y2(x) + y1(x)", ctx, dep="y1")
    _assert_matches_reference(derivative_closure(R, [a1, a2], 2), [a1, a2])


def _assert_solves(rows, solution):
    """Cramer form: with the returned (N, d), d is nonzero and every row
    sum(coeff_i * N_i) + const * d vanishes as a polynomial."""
    nums, d = solution
    assert not d.is_zero()
    for coeffs, const in rows:
        total = const * d
        for c, n in zip(coeffs, nums):
            total = total + c * n
        assert total.is_zero()


def test_solve_linear_unique():
    # [TRIVIAL] C0 + 2 = 0 and C1 - x = 0
    ctx = Context()
    a = ctx.param("c0")
    b = ctx.param("c1")
    x = Poly.var(ctx, ctx.indep)
    one = Poly.const(ctx, 1)
    rows = [([one, Poly(ctx)], Poly.const(ctx, 2)),
            ([Poly(ctx), one], -x)]
    sol = solve_poly_rows([a, b], rows)
    _assert_solves(rows, sol)
    (n0, n1), d = sol
    assert n0 == d.scale(-2) and n1 == x * d


def test_solve_linear_inconsistent_and_free():
    ctx = Context()
    a = ctx.param("c0")
    one = Poly.const(ctx, 1)
    # 0*C0 + 1 = 0 has no solution
    assert solve_poly_rows([a], [([Poly(ctx)], one)]) is None
    # a free unknown gets a zero numerator
    rows = [([Poly(ctx)], Poly(ctx))]
    sol = solve_poly_rows([a], rows)
    _assert_solves(rows, sol)
    assert sol[0][0].is_zero()
    with pytest.raises(ArgumentError):
        solve_poly_rows([a], [])


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
    sol = solve_poly_rows(cs, rows)
    _assert_solves(rows, sol)
    nums, d = sol
    assert all(try_exact_divide(n, d) is None for n in nums)
    # a third row x*row0 + row1 with a different constant contradicts them
    combo = [x * p + q for p, q in zip(rows[0][0], rows[1][0])]
    bad = rows[:2] + [(combo, Poly(ctx))]
    assert solve_poly_rows(cs, bad) is None


def test_solve_linear_underdetermined_free_unknown():
    # two rows, three unknowns: one column is never pivoted and stays zero
    ctx = Context()
    cs = [ctx.param(f"c{i}") for i in range(3)]
    x = Poly.var(ctx, ctx.indep)
    a = Poly.var(ctx, ctx.param("a"))
    rows = [([x, a, x * a], Poly.const(ctx, 1)),
            ([a, x * x, a + x], x)]
    sol = solve_poly_rows(cs, rows)
    _assert_solves(rows, sol)
    assert sum(n.is_zero() for n in sol[0]) == 1


def test_solve_linear_frees_the_dependent_columns():
    # column 0 is x times column 1, so the system has a line of solutions.
    # The lowest-degree entry is column 1's, but the columns are pivoted in
    # order, so column 1, the one that depends on an earlier column, is
    # left free and gets N_1 = 0
    ctx = Context()
    cs = [ctx.param(f"c{i}") for i in range(3)]
    x = Poly.var(ctx, ctx.indep)
    one = Poly.const(ctx, 1)
    rows = [([x, one, one], (x + one).scale(-1)),
            ([x * x, x, Poly(ctx)], (x * x).scale(-1))]
    sol = solve_poly_rows(cs, rows)
    _assert_solves(rows, sol)
    assert [n.is_zero() for n in sol[0]] == [False, True, False]
    assert sol == reference_solve_linear(cs, rows)


def test_exact_quotient_by_constant():
    # the equation's division by a constant gcd(d, N_0, ..., N_k) other
    # than +-1 stays exact: int where the quotient is integral, Fraction
    # where it is not
    ctx = Context()
    x = Poly.var(ctx, ctx.indep)
    one = Poly.const(ctx, 1)
    q = try_exact_divide(x.scale(6) + one.scale(3), Poly.const(ctx, 3))
    assert q == x.scale(2) + one
    assert all(type(c) is int for c in q.terms.values())
    q = try_exact_divide(x.scale(4) + one, Poly.const(ctx, Fraction(2, 3)))
    assert q.terms == {((ctx.indep.index, 1),): 6, (): Fraction(3, 2)}


def test_solve_linear_constant_pivots():
    # 3x3 over Q whose first pivot is 2, so the last row is divided by 2;
    # the unique solution is c = (1, -1/2, 2/3)
    ctx = Context()
    cs = [ctx.param(f"c{i}") for i in range(3)]

    def const(v):
        return Poly.const(ctx, v)

    matrix = [[2, 4, 3], [4, 2, 9], [6, 2, Fraction(3, 2)]]
    want = [1, Fraction(-1, 2), Fraction(2, 3)]
    rows = [([const(a) for a in row], const(-sum(a * w for a, w in zip(row, want))))
            for row in matrix]
    sol = solve_poly_rows(cs, rows)
    _assert_solves(rows, sol)
    nums, d = sol
    assert [Fraction(n.constant_value()) / d.constant_value() for n in nums] == want


def _random_system(ctx, vs, rng):
    """1-5 rows by 1-4 unknowns over Q[x, a], entries of degree <= 3 (about
    a third of them zero); a system of two or more rows may get a last row
    that is a rational combination of the first two, keeping or breaking
    consistency."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)

    def entry():
        if rng.random() < 0.3:
            return Poly(ctx)
        return random_poly(ctx, vs, rng, max_terms=3, max_deg=3)

    rows = [([entry() for _ in range(ncols)], entry()) for _ in range(nrows)]
    kind = rng.choice(["generic", "dependent", "inconsistent"])
    if kind != "generic" and nrows >= 2:
        u, w = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(1, 3)
        (c0, b0), (c1, b1) = rows[0], rows[1]
        const = b0 * u + b1 * w
        if kind == "inconsistent":
            const = const + Poly.const(ctx, 1)
        rows[-1] = ([p * u + q * w for p, q in zip(c0, c1)], const)
    return [ctx.param(f"c{i}") for i in range(ncols)], rows


def _typed_terms(p):
    return {m: (type(c), c) for m, c in p.terms.items()}


def test_solve_linear_matches_poly_reference():
    # the packed solve and the Poly Bareiss of tests/conftest.py pick the
    # same pivots, so they agree term for term, and on None
    ctx = Context()
    vs = [ctx.indep, ctx.param("a")]
    rng = make_rng(13)
    seen = {"none": 0, "free": 0, "solved": 0}
    for _ in range(40):
        unknowns, rows = _random_system(ctx, vs, rng)
        want = reference_solve_linear(unknowns, rows)
        got = solve_poly_rows(unknowns, rows)
        if want is None:
            assert got is None
            seen["none"] += 1
            continue
        assert got is not None
        _assert_solves(rows, got)
        assert [_typed_terms(n) for n in got[0]] == [_typed_terms(n) for n in want[0]]
        assert _typed_terms(got[1]) == _typed_terms(want[1])
        seen["free" if any(n.is_zero() for n in got[0]) else "solved"] += 1
    assert min(seen.values()) > 0, seen


def _dependent_columns(rows, vs):
    """The columns of rows that lie in the span of the earlier columns over
    Q(vs), by sympy's rank of each column prefix."""
    syms = sympy.symbols(f"s0:{len(vs)}")
    place = {v.index: sym for v, sym in zip(vs, syms)}
    field = sympy.QQ.frac_field(*syms)

    def element(p):
        return field.from_sympy(sum((sympy.Rational(c.numerator, c.denominator)
                                     * sympy.Mul(*(place[i] ** e for i, e in mono))
                                     for mono, c in p.terms.items()), sympy.Integer(0)))

    ncols = len(rows[0][0])
    matrix = DomainMatrix([[element(p) for p in coeffs] for coeffs, _ in rows],
                          (len(rows), ncols), field)
    ranks = [matrix[:, :j].rank() for j in range(ncols + 1)]
    return {j for j in range(ncols) if ranks[j + 1] == ranks[j]}


def test_solve_linear_frees_exactly_the_columns_in_the_span_of_earlier_ones():
    # the canonical solution rests on this: the solve leaves column j free
    # exactly when column j is in the span of the earlier columns, which
    # sympy's rank decides independently.  A pivoted column j shows as
    # N_j != 0 in the solve of the probe A*c = A_j, whose one solution zero
    # on the free columns is the unit vector e_j; a free one gets N_j = 0.
    # So every consistent system gets the solution that is zero on exactly
    # its dependent columns
    ctx = Context()
    vs = [ctx.indep, ctx.param("a")]
    rng = make_rng(13)
    seen = {"dependent": 0, "independent": 0, "consistent with a dependency": 0}
    for _ in range(40):
        unknowns, rows = _random_system(ctx, vs, rng)
        dependent = _dependent_columns(rows, vs)
        for j in range(len(unknowns)):
            probe = [(coeffs, coeffs[j].scale(-1)) for coeffs, _ in rows]
            nums, _ = solve_poly_rows(unknowns, probe)
            assert nums[j].is_zero() == (j in dependent)
            seen["dependent" if j in dependent else "independent"] += 1
        solution = solve_poly_rows(unknowns, rows)
        if solution is not None and dependent:
            _assert_solves(rows, solution)
            assert all(solution[0][j].is_zero() for j in dependent)
            seen["consistent with a dependency"] += 1
    assert min(seen.values()) > 0, seen


def test_solve_linear_width_from_the_system():
    # entries of degree 25 make minors of degree 75, above the Groebner
    # degree cap of 60, and products of two minors of degree 150: the
    # encoder sizes the packed fields from the system, not from GBConfig
    ctx = Context()
    cs = [ctx.param(f"c{i}") for i in range(3)]
    x = Poly.var(ctx, ctx.indep)
    a = Poly.var(ctx, ctx.param("a"))
    lead = [[2, 1, 1], [1, 3, 1], [1, 1, 4]]

    def entry(i, j):
        return (x ** 25).scale(lead[i][j]) + a * x ** (i + j) + Poly.const(ctx, i - j)

    rows = [([entry(i, j) for j in range(3)], a * x ** i + Poly.const(ctx, 1))
            for i in range(3)]
    sol = solve_poly_rows(cs, rows)
    _assert_solves(rows, sol)
    assert sol[1].total_degree() == 75


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


def test_map_that_vanishes_on_the_inputs_is_not_found(monkeypatch):
    # y1^2 = x and y2^2 = x, both of order 0: the map's numerator and
    # denominator both reduce to zero, so every column of every exact pass
    # does too, and the pass finds no solution without building a row or
    # calling the solve (which would raise on an empty system).  The search
    # ends in AnsatzNotFoundError; elimination fails on its saturation
    # factor, the map's denominator
    ctx = Context()
    ades = [equation_to_ade(f"{y}(x)^2 - x = 0", ctx, dep=y, extra_deps=[y])
            for y in ("y1", "y2")]
    zname, R = spec_to_ratfunc("z = (y1^2 - x)/(y2^2 - x)", ctx, ["y1", "y2"])
    with pytest.raises(EliminationFailedError):
        arithmetic_dalg(ades, R, z_name=zname)
    passes = _pass_log(monkeypatch)

    def solve(system):
        raise AssertionError("a system was solved")

    monkeypatch.setattr(ansatz, "solve_linear_ratfunc", solve)
    with pytest.raises(AnsatzNotFoundError):
        ansatz_search(ades, R, k=2, z_name=zname)
    assert passes


def test_ansatz_needs_an_input_equation():
    ctx = Context()
    zname, R = spec_to_ratfunc("z = x^2", ctx, [])
    with pytest.raises(ArgumentError, match="at least one input equation"):
        ansatz_search([], R, k=1, z_name=zname)


def _coefficient_gcd(ade):
    """gcd of the coefficients of ade in x and the parameters, one per
    monomial in the derivatives of its dependent."""
    ctx = ade.ctx
    coeffs: dict = {}
    for mono, c in ade.poly.terms.items():
        z_part = tuple((i, e) for i, e in mono
                       if ctx.var_by_index(i).kind == DIFF)
        rest = tuple((i, e) for i, e in mono
                     if ctx.var_by_index(i).kind != DIFF)
        coeffs.setdefault(z_part, {})[rest] = c
    g = Poly(ctx)
    for terms in coeffs.values():
        g = poly_gcd(g, Poly(ctx, terms))
    return g


def _seeded_first_order_maps():
    """Nine seeded (input equation, map) pairs: constant-coefficient
    first-order inputs (linear, Riccati, logistic) under the ansatz maps
    (y+a)/(y+b), 1/(y+a) and a*y+b, each constant a small integer or a
    parameter."""
    def n(rng):
        return rng.choice((-1, 1)) * rng.randint(1, 4)

    def c(rng):
        return rng.choice(("a", "b", str(n(rng))))

    families = (lambda r: f"diff(y(x),x) = {c(r)}*y(x) + {c(r)}",
                lambda r: f"diff(y(x),x) = y(x)^2 + {c(r)}",
                lambda r: f"diff(y(x),x) = {c(r)}*y(x)^2 + {c(r)}*y(x)")
    maps = (lambda r: (lambda a: f"z = (y + {a})/(y + {a} + {n(r)})")(c(r)),
            lambda r: f"z = 1/(y + {c(r)})",
            lambda r: f"z = {c(r)}*y + {c(r)}")
    for seed in range(9):
        rng = make_rng(seed)
        yield seed, families[seed % 3](rng), maps[seed // 3](rng)


def test_engines_agree_on_seeded_first_order_maps():
    # Differential test of both engines: both outputs must vanish on
    # z = R(y).  Parameters make the Cramer denominator d a polynomial that
    # shares factors with every numerator in some draws, so an ansatz output
    # that kept that common factor shows as a nonconstant gcd of its
    # coefficients.  Affine maps of linear inputs leave a free unknown.
    for seed, ade_text, spec in _seeded_first_order_maps():
        ctx = Context()
        ade = equation_to_ade(ade_text, ctx)
        zname, R = spec_to_ratfunc(spec, ctx, ["y"])
        found = ansatz_search([ade], R, k=2, z_name=zname)
        closed = unary_dalg(ade, R, z_name=zname).ade
        assert certified_by_substitution(found, ade, R), seed
        assert certified_by_substitution(closed, ade, R), seed
        assert _coefficient_gcd(found).is_constant(), seed


def _cli_text(capsys, *argv):
    assert cli_main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("ade_text, spec, k", [
    ("diff(y(x),x) = -4*y(x) + 1", "z = -2*y + 3", 2),
    ("diff(y(x),x) = y(x)^2 + x", "z = y/(x+y)", 3),
    ("y(x)*diff(y(x),x) = x", "z = y^2/(x+y)", 3),
    ("diff(y(x),x) = y(x) + x", "z = y/(x+y)", 4),
    ("diff(y(x),x) = y(x)^2 + x", "z = y/(x+y)", 4),
])
def test_ansatz_drops_spurious_z_factor(capsys, ade_text, spec, k):
    # a lead of degree exactly k is consistent when a lower-degree equation
    # exists: that equation times a power of z (the branch z = 0), or times
    # another monomial.  The search answers with the equation of the lead
    # divided by the largest power of z that leaves a consistent lead, and
    # so prints what elimination prints
    found = _cli_text(capsys, "ansatz", "--ade", ade_text, "--spec", spec,
                      "--degree-de", str(k))
    assert found == _cli_text(capsys, "unary", "--ade", ade_text, "--spec", spec)
    if k == 2:
        assert found == "diff(z(x),x) + 4*z(x) - 10 = 0\n"


def test_search_registers_no_unknowns():
    # the unknown coefficients are matrix columns, not context variables:
    # the search adds only derivatives, of z and (through the closure
    # values) of the input
    ctx = Context()
    ade = weierstrass(ctx)
    zname, R = spec_to_ratfunc("z = y/(x+y)", ctx, ["y"])
    before = len(ctx.variables)
    ansatz_search([ade], R, k=2, z_name=zname)
    new = ctx.variables[before:]
    z = ctx.indet_id(zname)
    assert all(v.kind == DIFF and v.indet in (z, ade.dep) for v in new)
    assert any(v.indet == z for v in new)


def _run_search(ade_text, spec, k):
    ctx = Context()
    ade = (weierstrass(ctx) if ade_text == "wp"
           else equation_to_ade(ade_text, ctx))
    zname, R = spec_to_ratfunc(spec, ctx, ["y"])
    return ansatz_search([ade], R, k=k, z_name=zname)


def _full_pass(answer):
    """The answer that sends a candidate to the full exact pass."""
    return False, None


def _trace_candidates(monkeypatch, certificate):
    """Patch the search so every exact pass logs (certificate fired on its
    lead, result); certificate maps each real answer (miss, support) of the
    per-order certificate to the one the search acts on.  A lead whose
    column the certificate did not answer has not fired.  Order 0 goes
    through the certificate too, as every order does when the map names a
    leader."""
    real_cert, real_solve = ansatz._independent_prefixes, ansatz.assemble_and_solve
    log, fired = [], {}
    monkeypatch.setattr(ansatz, "_transcendental", lambda R, ades: False)

    def cert(img, over, k, monos):
        fired.clear()
        for m, answer in zip(monos, real_cert(img, over, k, monos)):
            fired[m] = answer[0]
            yield certificate(answer)

    def solve(packing, leading, *args, **kwargs):
        out = real_solve(packing, leading, *args, **kwargs)
        log.append((fired.get(leading, False), out))
        return out

    monkeypatch.setattr(ansatz, "_independent_prefixes", cert)
    monkeypatch.setattr(ansatz, "assemble_and_solve", solve)
    return log


def test_miss_certificate_fires_only_on_inconsistent_candidates(monkeypatch):
    # every candidate runs the exact pass; wherever the certificate fires,
    # that pass must find no solution.  Checking outputs alone would miss a
    # certificate that drops a consistent candidate when a later one hits.
    # The certificate fires on z^3 and z^2*z' of y*y' = x, z = y^2/(x+y)
    # after the dependency z'^2.  The exhausting search makes 31 passes: a
    # lead without an answer tries its leads m/z^e first, and each of them
    # is a miss too
    log = _trace_candidates(monkeypatch, _full_pass)
    searches = [("wp", "z = y/(x+y)", 2), ("wp", "z = y/(x+y)", 3),
                ("diff(y(x),x) = y(x)^2 + x", "z = y^2/(x+y)", 4),
                ("y(x)*diff(y(x),x) = x", "z = y/(x+y)", 2),
                ("y(x)*diff(y(x),x) = x", "z = y^2/(x+y)", 3)]
    searches += [(a, s, 2) for _, a, s in _seeded_first_order_maps()]
    for search in searches:
        start = len(log)
        _run_search(*search)
        assert any(fired for fired, _ in log[start:]), search
    start = len(log)
    with pytest.raises(AnsatzNotFoundError):
        _run_search("wp", "z = y^2/(x+y)", 3)
    assert len(log) - start == 31
    assert all(fired for fired, _ in log[start:])
    for fired, out in log:
        assert not fired or out is None


def test_order_zero_is_skipped_only_on_misses():
    # the search skips order 0 where the map names input dependents below
    # their orders only; the exact pass of z^k finds no solution there.  A
    # map of a leader, or one free of the inputs, takes the order-0 pass
    searches = [("wp", "z = y/(x+y)", 2), ("wp", "z = y^2/(x+y)", 3),
                ("diff(y(x),x) = y(x)^2 + x", "z = y^2/(x+y)", 4),
                ("y(x)*diff(y(x),x) = x", "z = y/(x+y)", 2)]
    searches += [(a, s, 2) for _, a, s in _seeded_first_order_maps()]
    for ade_text, spec, k in searches:
        ctx = Context()
        ade = weierstrass(ctx) if ade_text == "wp" else equation_to_ade(ade_text, ctx)
        zname, R = spec_to_ratfunc(spec, ctx, ["y"])
        assert ansatz._transcendental(R, [ade])
        *earlier, lead = enumerate_delta(k, 0)
        assert ansatz.assemble_and_solve(ansatz._Packing([ade], R), lead, earlier, [R],
                                         z_name=zname) is None
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x) = y(x)", ctx)
    y1 = RatFunc(Poly.var(ctx, ctx.diff_var(ade.dep, 1)))
    assert not ansatz._transcendental(y1, [ade])
    assert not ansatz._transcendental(RatFunc(Poly.var(ctx, ctx.indep)), [ade])
    # y^2 = x has order 0, so y is its leader: z = y is found at order 0
    ctx = Context()
    ade = equation_to_ade("y(x)^2 - x = 0", ctx, dep="y", extra_deps=["y"])
    zname, R = spec_to_ratfunc("z = y", ctx, ["y"])
    assert not ansatz._transcendental(R, [ade])
    assert render(ansatz_search([ade], R, k=2, z_name=zname), "text") == "z(x)^2 - x = 0"


def _no_exact_pass(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("exact pass ran")

    monkeypatch.setattr(ansatz, "assemble_and_solve", fail)
    monkeypatch.setattr(ansatz, "solve_linear_ratfunc", fail)


def test_miss_certificate_exhausts_hard_search(monkeypatch):
    # every candidate of this exhausting search is certified, so neither the
    # exact assembly nor the exact solver runs (the exact search takes over
    # a second)
    _no_exact_pass(monkeypatch)
    with pytest.raises(AnsatzNotFoundError):
        _run_search("wp", "z = y^2/(x+y)", 3)


@pytest.mark.parametrize("ade_text", [
    # the closure values carry coefficients with denominator q = 2^31 - 1:
    # scaled to integer coefficients, the input's initial is q, which
    # vanishes mod q, so the certificate gives no answer and fires on no
    # candidate
    "diff(y(x),x) = y(x)/2147483647 + 1",
    # an initial, y, that is not constant at the point
    "y(x)*diff(y(x),x) = x",
    # a parameter, a, which stays in the entries
    "diff(y(x),x) = a*y(x)",
])
def test_miss_certificate_applies_where_it_used_to_fall_back(monkeypatch, ade_text):
    # the certificate reads the exact system's own rows, so it fires on these
    # searches too; each candidate it fires on has no exact solution, and
    # the equation is the one found without it
    found = _run_search(ade_text, "z = y/(x+y)", 2)
    log = _trace_candidates(monkeypatch, _full_pass)
    unchecked = _run_search(ade_text, "z = y/(x+y)", 2)
    assert any(fired for fired, _ in log) == ("2147483647" not in ade_text)
    assert all(out is None for fired, out in log if fired)
    assert render(found, "text") == render(unchecked, "text")


def _certificate(ades, R, r, k):
    """The per-order certificate's answers (miss, support), one for each
    monomial of order r until the answers stop."""
    vals = derivative_closure(R, ades, r)
    over = over_lcm([(v.num, v.den) for v in vals], Poly.const(R.num.ctx, 1))
    monos = enumerate_delta(k, r)
    return list(ansatz._independent_prefixes(ansatz._point_image(ades), over, k, monos))


def _answers(ade_text, spec, r, k, supports=False):
    """Whether the certificate proves each monomial of order r a miss, or
    with ``supports`` its whole answers."""
    ctx = Context()
    ade = equation_to_ade(ade_text, ctx)
    _, R = spec_to_ratfunc(spec, ctx, ["y"])
    answers = _certificate([ade], R, r, k)
    return answers if supports else [miss for miss, _ in answers]


def test_certified_miss_is_a_rank_test():
    # each answer is the rank test at the point, whatever came before it.
    # y' = y, z = y at order 1: the columns are 1, z = y and z' = y.  1 and
    # y are independent, so z + c = 0 is inconsistent; z' - z = 0 holds, so
    # z' is dependent and stays out of the echelon form.  At k = 2, z^2 = y^2
    # is independent of 1 and y, and z*z' and z'^2 depend on it
    assert _answers("diff(y(x),x) = y(x)", "z = y", 1, 1) == [True, False]
    assert _answers("diff(y(x),x) = y(x)", "z = y", 1, 2, supports=True) == [
        (True, None), (False, [1, 2]), (True, None), (False, [3, 4]), (False, [3, 5])]
    # the first dependency's answer carries the relation's support: the
    # columns of z (1) and z' (2), and not the constant's (0)
    assert _answers("diff(y(x),x) = y(x)", "z = y", 1, 1, supports=True) == [
        (True, None), (False, [1, 2])]
    # under y*y' = x the column of z' = 2*y*y' reduces to 2*x*y with one
    # factor of the initial y, so 1 and z = y^2 are lifted to y and y^3:
    # z' - 2*x = 0 holds, and the lifted column 2*x*y is dependent
    assert _answers("y(x)*diff(y(x),x) = x", "z = y^2", 1, 1) == [True, False]
    assert _answers("y(x)*diff(y(x),x) = x", "z = y^2", 1, 1, supports=True)[1] == (
        False, [0, 2])
    # with z = y the column z^2 = y^2 comes after z' = x and is lifted to
    # y^3, independent of y, y^2 and x; z*z' = y*(x/y) = x is dependent,
    # and z'^2 = x^2/y^2 is independent again
    assert _answers("y(x)*diff(y(x),x) = x", "z = y", 1, 2, supports=True) == [
        (True, None), (True, None), (True, None), (False, [0, 4]), (True, None)]
    # z = x^2 has one row, the monomial 1 in y, which cannot give the two
    # columns 1 and z full rank
    assert _answers("diff(y(x),x) = y(x)", "z = x^2", 0, 2) == [False, False]
    # an initial that vanishes mod q = 2^31 - 1 leaves the certificate
    # without an image, and it gives no answer
    assert _answers(f"diff(y(x),x) = y(x)/{ansatz._PRIME}", "z = y", 0, 1) == []
    # 3*y' = y has the constant initial 3, which the image mod q makes
    # monic instead of carrying its exponent: under z = y^2 the column of
    # z' = 2*y^2/3 is dependent on that of z.  Under 3*y' = y^2 + x and
    # z = y, z' = (y^2 + x)/3 is independent of 1 and y, z^2 = y^2 is
    # dependent on 1 and z' (z^2 - 3*z' + x = 0), and z*z' and z'^2 are
    # independent
    ade = equation_to_ade("3*diff(y(x),x) = y(x)", Context())
    *_, lc, poly = ansatz._point_image([ade]).inputs[0]
    assert lc == ansatz._ONE and poly[1][0] == 1
    assert _answers("3*diff(y(x),x) = y(x)", "z = y^2", 1, 1) == [True, False]
    assert _answers("3*diff(y(x),x) = y(x)^2 + x", "z = y", 1, 2) == [True, True, False,
                                                                     True, True]


def test_certificate_fields_hold_a_high_degree_input():
    # y^70 in the input: fields sized like the exact pass's (degree 71 here)
    # make the certificate's answers stop part-way, at 13 and 8 independent
    # columns; its own fields, for degree 2^14 - 1, hold every column, and
    # find all 14 of order 1 and 33 of the 34 of order 2 independent
    search = ("diff(y(x),x) = y(x)^70 + x", "z = y^2")
    assert [sum(_answers(*search, r, 4)) for r in (1, 2)] == [14, 33]
    assert render(_run_search(*search, 4), "text") == (
        "19600*diff(z(x),x)^2*z(x)*x^2 - 5041*diff(z(x),x)^4"
        " + 284*diff(z(x),x,x)*diff(z(x),x)^2*z(x) - 4*diff(z(x),x,x)^2*z(x)^2"
        " - 1120*diff(z(x),x)*z(x)^2*x + 16*z(x)^3 = 0")


def test_certificate_declines_when_a_column_outgrows_its_fields(monkeypatch):
    # with the bound forced down to 1, the fields hold degree 3 (the
    # input's degree is 1), and L^4, of degree 4 in y at order 0 and more
    # later, outgrows them: the kernel's ResourceCapError ends the
    # certificate before its first answer at every order, every candidate
    # takes the exact pass, and the equation is the one found with the
    # certificate patched out
    search = ("diff(y(x),x) = y(x) + x", "z = y/(x+y)")
    assert [sum(_answers(*search, r, 4)) for r in range(3)] == [4, 8, 12]
    found = _run_search(*search, 4)
    log = _trace_candidates(monkeypatch, _full_pass)
    unchecked = _run_search(*search, 4)
    monkeypatch.undo()
    monkeypatch.setattr(ansatz, "_CERT_DEGREE", 1)
    assert not any(a for r in range(3) for a in _answers(*search, r, 4))
    declined_log = _trace_candidates(monkeypatch, lambda answer: answer)
    declined = _run_search(*search, 4)
    assert len(declined_log) == len(log)
    assert not any(fired for fired, _ in declined_log)
    assert render(declined, "text") == render(unchecked, "text") == render(found, "text")


def test_certificate_answers_end_for_good(monkeypatch):
    # the answers stop, and the generator yields nothing more: at once
    # without an image, as for an initial that vanishes mod q, and at once
    # too with the certificate's degree bound forced down to 1, whose
    # fields L^4 outgrows.  For y' = y^70 + x the same bound leaves fields
    # that hold the input's degree, and the answers stop part-way, after
    # 13 independent columns of order 1
    def prefixes(ade_text, spec, r, k):
        ctx = Context()
        ade = equation_to_ade(ade_text, ctx)
        _, R = spec_to_ratfunc(spec, ctx, ["y"])
        vals = derivative_closure(R, [ade], r)
        over = over_lcm([(v.num, v.den) for v in vals], Poly.const(ctx, 1))
        return ansatz._independent_prefixes(ansatz._point_image([ade]), over, k,
                                            enumerate_delta(k, r))

    def ended(answers):
        return next(answers, None) is None and next(answers, None) is None

    assert ended(prefixes(f"{ansatz._PRIME}*diff(y(x),x) = y(x) + x", "z = y", 1, 2))
    monkeypatch.setattr(ansatz, "_CERT_DEGREE", 1)
    assert ended(prefixes("diff(y(x),x) = y(x) + x", "z = y/(x+y)", 1, 4))
    answers = prefixes("diff(y(x),x) = y(x)^70 + x", "z = y^2", 1, 4)
    assert [next(answers) for _ in range(13)] == [(True, None)] * 13
    assert ended(answers)


def _coupled(spec, k):
    ctx = Context()
    a1 = equation_to_ade("diff(y1(x),x) = y1(x)*y2(x)", ctx, dep="y1")
    a2 = equation_to_ade("diff(y2(x),x) = y1(x) + x", ctx, dep="y2")
    zname, R = spec_to_ratfunc(spec, ctx, ["y1", "y2"])
    return ansatz_search([a1, a2], R, k=k, z_name=zname)


def test_certificate_on_coupled_inputs(monkeypatch):
    # the columns reduce by both inputs; the certificate fires, only on
    # candidates without exact solution, and leaves the equation as it is
    found = _coupled("z = y1", 3)
    log = _trace_candidates(monkeypatch, _full_pass)
    unchecked = _coupled("z = y1", 3)
    assert any(fired for fired, _ in log)
    assert all(out is None for fired, out in log if fired)
    assert render(found, "text") == render(unchecked, "text")
    assert found.order == 2


def test_exhausting_coupled_search_runs_no_exact_pass(monkeypatch):
    _no_exact_pass(monkeypatch)
    with pytest.raises(AnsatzNotFoundError):
        _coupled("z = y1+y2", 2)


def _cut_passes(monkeypatch):
    """Patch the search so that each exact pass cut to the support of a
    dependency (a candidate's, or one it confirms) also runs the full pass,
    and logs (the lead's index i, the support's earlier columns, the columns
    of the full pass's nonzero N_i, the cut pass's equation, the full pass's
    equation); columns are 0 for the constant slot and j + 1 for m_j.  The
    full pass leaves free exactly the columns that depend on earlier
    ones."""
    real_cert, real_pass = ansatz._independent_prefixes, ansatz.assemble_and_solve
    real_solve = ansatz.solve_linear_ratfunc
    order, log = {}, []

    def cert(img, over, k, monos):
        order.update(monos=monos, supports={})
        for m, (miss, support) in zip(monos, real_cert(img, over, k, monos)):
            order["supports"][m] = support
            yield miss, support

    def solve(system, **kwargs):
        order["solution"] = real_solve(system, **kwargs)
        return order["solution"]

    def exact_pass(packing, leading, earlier, vals, z_name="z", **kwargs):
        monos, support = order["monos"], order["supports"].get(leading)
        if support is None or earlier != [monos[j - 1] for j in support[:-1] if j]:
            return real_pass(packing, leading, earlier, vals, z_name=z_name, **kwargs)
        i = monos.index(leading)
        order["solution"] = None
        full = real_pass(packing, leading, monos[:i], vals, z_name=z_name)
        nonzero = (None if order["solution"] is None else
                   [j for j, n in enumerate(order["solution"][0]) if n[0]])
        cut = real_pass(packing, leading, earlier, vals, z_name=z_name)
        log.append((i, support[:-1], nonzero, cut, full))
        return cut

    monkeypatch.setattr(ansatz, "_independent_prefixes", cert)
    monkeypatch.setattr(ansatz, "solve_linear_ratfunc", solve)
    monkeypatch.setattr(ansatz, "assemble_and_solve", exact_pass)
    return log


def test_cut_pass_equals_the_full_pass(monkeypatch, capsys):
    # every exact pass that a dependency of the certificate cuts to its
    # support returns the full pass's equation, term for term, on the
    # ansatz workload and cli-mix seeds 1-2: first dependencies, later
    # ones and the confirmed leads that z-rule hits read.  The full pass
    # leaves every column that depends on earlier ones free, so where the
    # system is rank-deficient both give the solution that is zero there.
    # c7_k3 (z^3, after confirming z*z''), c7_k4, riccati_y2_k4 and
    # wp_numeric_k4 drop unknowns
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from cases import ansatz_cases, cli_mix_cases

    log = _cut_passes(monkeypatch)
    argvs = [case.argv for case in ansatz_cases() + cli_mix_cases(1) + cli_mix_cases(2)
             if case.argv[0] == "ansatz"]
    for argv in argvs:
        assert cli_main(argv) in (0, 3), argv
    capsys.readouterr()
    for _, _, _, cut, full in log:
        assert (cut is None) == (full is None)
        if cut is not None:
            assert cut.dep == full.dep
            assert _typed_terms(cut.poly) == _typed_terms(full.poly)
    assert len(log) > 30
    assert sum(len([j for j in columns if j]) < i for i, columns, *_ in log) == 4


def test_cut_pass_without_a_nonzero_column_falls_back(monkeypatch):
    # with one earlier monomial of nonzero coefficient dropped from the
    # support, the cut system is inconsistent (its solution would be a
    # second one of the full system), and the full pass finds the equation
    for search in [("wp", "z = y/(x+y)", 4), ("y(x)*diff(y(x),x) = x", "z = y/(x+y)", 2)]:
        found = _run_search(*search)
        real_cert, real_pass = ansatz._independent_prefixes, ansatz.assemble_and_solve
        passes = []

        def cert(*args):
            for miss, support in real_cert(*args):
                if support is not None:
                    dropped = next(j for j in support if j)
                    support = [j for j in support if j != dropped]
                yield miss, support

        def exact_pass(packing, leading, earlier, *args, **kwargs):
            out = real_pass(packing, leading, earlier, *args, **kwargs)
            passes.append((len(earlier), out))
            return out

        monkeypatch.setattr(ansatz, "_independent_prefixes", cert)
        monkeypatch.setattr(ansatz, "assemble_and_solve", exact_pass)
        fallen = _run_search(*search)
        monkeypatch.undo()
        (cut, none), (full, hit) = passes[-2:]
        assert none is None and cut < full and hit is fallen
        assert render(fallen, "text") == render(found, "text")


def test_support_is_the_exact_solutions_nonzero_columns(monkeypatch):
    # at the hit, the support mod q lists exactly the columns whose N_i the
    # exact solve finds nonzero: for c7_k4, for y*y' = x (the columns are
    # lifted by the initial y) and for coupled inputs
    log = _cut_passes(monkeypatch)
    _run_search("wp", "z = y/(x+y)", 4)
    _run_search("y(x)*diff(y(x),x) = x", "z = y/(x+y)", 2)
    _coupled("z = y1", 3)
    assert [(columns, nonzero) for _, columns, nonzero, _, _ in log] == [
        ([0, 1, 3, 4, 5, 6, 7], [0, 1, 3, 4, 5, 6, 7]),
        ([0, 1, 3], [0, 1, 3]),
        ([4, 6, 7], [4, 6, 7])]


def _answer_log(monkeypatch, rewrite=lambda lead, answer: answer):
    """Patch the certificate to log (lead, answer) for each column it
    builds; the search takes ``rewrite(lead, answer)`` instead of each
    answer."""
    real_cert, log = ansatz._independent_prefixes, []

    def cert(img, over, k, monos):
        for m, answer in zip(monos, real_cert(img, over, k, monos)):
            log.append((m, answer))
            yield rewrite(m, answer)

    monkeypatch.setattr(ansatz, "_independent_prefixes", cert)
    return log


def _pass_log(monkeypatch):
    """Patch the search to log (lead, number of earlier monomials) for each
    exact pass."""
    real_pass, log = ansatz.assemble_and_solve, []

    def exact_pass(packing, leading, earlier, *args, **kwargs):
        log.append((leading, len(earlier)))
        return real_pass(packing, leading, earlier, *args, **kwargs)

    monkeypatch.setattr(ansatz, "assemble_and_solve", exact_pass)
    return log


@pytest.mark.parametrize("search", [
    ("wp", "z = y/(x+y)", 3),
    ("diff(y(x),x) = y(x)^2 + x", "z = y/(x+y)", 3),
    ("diff(y(x),x) = y(x)^2 + x", "z = y/(x+y)", 4),
    ("diff(y(x),x) = y(x) + x", "z = y/(x+y)", 4),
])
def test_rank_deficient_hit_is_the_same_either_way(monkeypatch, search):
    # each of these hits has a system with more than one solution.  The
    # certificate reads the answer from a confirmed dependency (the lead
    # m/z^e) or cuts to it.  Without an image, as when an initial vanishes
    # mod q, it gives no answer at any order, and the leads take the same
    # rule without the miss and cut steps: the lead m/z^e, else the full
    # pass with its columns pivoted in order.  They print the same text
    certified = render(_run_search(*search), "text")
    if search[0] == "wp":
        assert certified == EQ_ANSATZ_K3_TEXT
    monkeypatch.setattr(ansatz, "_point_image", lambda ades: None)
    log = _answer_log(monkeypatch)
    assert render(_run_search(*search), "text") == certified
    assert log == []


def test_misses_after_a_confirmed_dependency_take_no_exact_pass(monkeypatch):
    # y*y' = x, z = y^2/(x+y), k = 3: the column of z'^2 is the order's
    # first dependency, of degree 2.  Its cut pass confirms it, so the rank
    # mod q is the exact one, and the independent columns of z^3 and
    # z^2*z' are proven misses without an exact pass.  z*z'^2 is the hit,
    # and answers with the equation of z'^2
    answers = _answer_log(monkeypatch)
    passes = _pass_log(monkeypatch)
    found = _run_search("y(x)*diff(y(x),x) = x", "z = y^2/(x+y)", 3)
    answers = dict(answers)
    assert answers[(0, 2)] == (False, [0, 1, 2, 4, 5])
    assert answers[(3, 0)] == answers[(2, 1)] == (True, None)
    assert passes == [((0, 2), 3)]
    assert render(found, "text") == ("diff(z(x),x)^2*x - 3*diff(z(x),x)*z(x)"
                                     " - 4*diff(z(x),x)*x - 3*z(x) + 4*x = 0")


def test_unconfirmed_dependency_declines_the_certificate(monkeypatch):
    # an answer that reads the independent column of z' as dependent, as an
    # unlucky point would.  Before the search skips z^3, the first
    # independent candidate, it confirms that dependency: the cut pass and
    # the full pass of z' find no solution, so the certificate stops
    # answering from z' on and builds no later column.  z^3 then takes the
    # rule without the certificate: its leads m/z^e, z (a proven miss, as
    # it comes before z') and z^2 (a full pass), then its own full pass;
    # z^2*z' reads z' and z*z', then its full pass; and the hit z*z'^2
    # answers with the lead z'^2, whose one full pass finds it consistent
    # and gives the canonical equation: the one found without the injection
    search = ("y(x)*diff(y(x),x) = x", "z = y^2/(x+y)", 3)
    found = render(_run_search(*search), "text")
    built = _answer_log(monkeypatch, lambda lead, answer: (False, [0, 2])
                        if lead == (0, 1) else answer)
    passes = _pass_log(monkeypatch)
    assert render(_run_search(*search), "text") == found
    assert [lead for lead, _ in built] == enumerate_delta(3, 1)[:6]
    assert passes == [((0, 1), 0), ((0, 1), 1), ((2, 0), 2), ((3, 0), 5), ((1, 1), 3),
                      ((2, 1), 6), ((0, 2), 4)]


@pytest.mark.parametrize("k", [3, 4])
def test_declined_search_reads_the_lead_m_over_z_first(monkeypatch, k):
    # the initial 4611685975477714963, a multiple of q = 2^31 - 1, vanishes
    # mod q, so the certificate gives no answer.  z^k first tries its leads
    # z^(k-1), ..., z: z finds no solution and z^2 hits, so the search
    # makes these two small passes only, and no full pass of z^k (9
    # unknowns at k = 4), and answers with the equation of z^2
    passes = _pass_log(monkeypatch)
    found = _run_search("4611685975477714963*diff(y(x),x) = y(x)^2 + x", "z = y/(x+y)", k)
    assert passes == [((1, 0), 0), ((2, 0), 2)]
    assert render(found, "text") == (
        "z(x)^2*x^2 + z(x)^2*x + 4611685975477714963*z(x)^2"
        " - 4611685975477714963*diff(z(x),x)*x - 2*z(x)*x - 4611685975477714963*z(x)"
        " + x = 0")


@pytest.mark.parametrize("search", [
    ("diff(y(x),x) = y(x)", "z = x^2", 1),
    ("diff(y(x),x) = y(x)", "z = y", 1),
    ("wp", "z = y/(x+y)", 2),
    ("diff(y(x),x) = y(x)^2 + x", "z = y^2/(x+y)", 4),
    ("coupled", "z = y1", 3),
])
def test_search_derives_only_the_orders_it_reaches(monkeypatch, search):
    # z^(r) is derived when the search reaches order r, so a search that
    # finds its equation at order r (a lead of r + 1 exponents) takes r
    # derivatives
    calls, orders = [], []
    real_derivative, real_solve = RatFunc.derivative, ansatz.assemble_and_solve

    def derivative(self, ades=()):
        calls.append(1)
        return real_derivative(self, ades)

    def solve(packing, leading, *args, **kwargs):
        orders.append(len(leading) - 1)
        return real_solve(packing, leading, *args, **kwargs)

    monkeypatch.setattr(RatFunc, "derivative", derivative)
    monkeypatch.setattr(ansatz, "assemble_and_solve", solve)
    ade_text, spec, k = search
    found = _coupled(spec, k) if ade_text == "coupled" else _run_search(ade_text, spec, k)
    assert len(calls) == orders[-1] == found.order


def _checked_against_reference(monkeypatch):
    """Patch the search so every exact pass is compared with the Poly pass
    of tests/conftest.py: the same linear system, row for row in the same
    order and term for term, with integer entries, and the same equation
    term for term and by coefficient type, or None on both sides.  Returns
    the tally of hits and misses and the largest entry degree seen."""
    real_pass, real_solve = ansatz.assemble_and_solve, ansatz.solve_linear_ratfunc
    real_reference_solve = conftest.reference_solve_linear
    seen = {"hit": 0, "none": 0, "degree": 0}
    systems = {}

    def typed_rows(rows, decode):
        return [[_typed_terms(decode(p)) for p in [*coeffs, const]]
                for coeffs, const in rows]

    def solve(system, **kwargs):
        K = system.kernel
        entries = [p for coeffs, const in system.rows for p in [*coeffs, const]]
        assert all(type(c) is int for _, coefs in entries for c in coefs)
        seen["degree"] = max(seen["degree"], *(K.degree(m) for monos, _ in entries
                                               for m in monos))
        systems["packed"] = typed_rows(system.rows, lambda p: Poly(
            systems["ctx"], dict(zip(map(K.decode, p[0]), p[1]))))
        return real_solve(system, **kwargs)

    def reference_solve(unknowns, rows, **kwargs):
        systems["reference"] = typed_rows(rows, lambda p: p)
        return real_reference_solve(unknowns, rows, **kwargs)

    def exact_pass(packing, leading, earlier, vals, z_name="z"):
        systems.clear()
        systems["ctx"] = packing.ades[0].ctx
        got = real_pass(packing, leading, earlier, vals, z_name=z_name)
        want = reference_assemble(packing.ades, leading, earlier, vals, {}, z_name=z_name)
        assert systems.get("packed") == systems.get("reference")
        if want is None:
            assert got is None
        else:
            assert got.dep == want.dep
            assert _typed_terms(got.poly) == _typed_terms(want.poly)
        seen["none" if want is None else "hit"] += 1
        return got

    monkeypatch.setattr(ansatz, "solve_linear_ratfunc", solve)
    monkeypatch.setattr(conftest, "reference_solve_linear", reference_solve)
    monkeypatch.setattr(ansatz, "assemble_and_solve", exact_pass)
    return seen


def test_packed_exact_pass_matches_poly_reference(monkeypatch, capsys):
    # the ansatz workload, cli-mix seed 1's ansatz rows, and searches whose
    # exact pass meets an initial in y, a coefficient denominator q, a
    # parameter, coupled inputs, a gcd strip that falls back to poly_gcd
    # twice, two inputs with initials y1 and y2, rows with Fraction
    # coefficients before their lcm scaling, and initials that vanish mod
    # q: there the certificate gives no answer.  The Riccati search's full
    # pass of z finds no solution, and the Weierstrass search's full pass
    # of z^3 has free columns, so its output depends on which columns
    # Bareiss pivots
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from cases import ansatz_cases, cli_mix_cases

    seen = _checked_against_reference(monkeypatch)
    q = ansatz._PRIME
    argvs = [case.argv for case in ansatz_cases() + cli_mix_cases(1)
             if case.argv[0] == "ansatz"]
    argvs += [["ansatz", "--ade", ade, "--spec", spec, "--degree-de", "2"]
              for ade, spec in [("y*y' = x", "z = y/(x+y)"),
                                ("y' = y/2147483647 + 1", "z = y/(x+y)"),
                                ("y' = a*y", "z = y/(x+y)"),
                                ("y' = a*y^2 + b*y", "z = 1/(y+a)"),
                                ("y' = y^2 + x", "z = y/(2*x+2*y)")]]
    argvs += [["ansatz", "--ade", "y1'=y1*y2", "--ade", "y2'=y1+x", "--spec", "z = y1",
               "--degree-de", "3"],
              ["ansatz", "--ade", "y1*y1' = x", "--ade", "y2*y2' = x",
               "--spec", "z = y1*y2", "--degree-de", "2"],
              ["ansatz", "--ade", f"{q}*y' = y^2 + x", "--spec", "z = y/(x+y)",
               "--degree-de", "3"],
              ["ansatz", "--ade", f"{q}*y'^2 = 4*y^3 - g2*y - g3", "--spec", "z = y/(x+y)",
               "--degree-de", "3"]]
    for argv in argvs:
        assert cli_main(argv) in (0, 3), argv
    capsys.readouterr()
    assert seen["hit"] > 30 and seen["none"] > 0, seen


def _widen_log(monkeypatch):
    """Patch the exact pass's :meth:`_Packing.widen` to log (the degree its
    fields held, whether the overflow came before the rows, the degree
    they hold after) for each call."""
    real_widen, log = ansatz._Packing.widen, []

    def widen(self, rows):
        low = self.K.max_degree
        real_widen(self, rows)
        log.append((low, rows is None, self.K.max_degree))

    monkeypatch.setattr(ansatz._Packing, "widen", widen)
    return log


def test_exact_pass_widens_its_fields(monkeypatch):
    # the certificate is patched out, so that full passes run.  With
    # y' = x^e*y^2 + x and z = y/(x+y) at k = 2, every full pass fits the
    # fields it starts with, for degree 63 or for the input's degree,
    # although from x^61 on the rows carry entries past the Groebner
    # degree cap of 60.  With y' = x^40*y^2 + x*y and z = y^2/(x+y) at
    # k = 3, the minors of the full pass of z^3 at order 1 outgrow the
    # first fields, and the pass rebuilds them at the rows' Bareiss bound,
    # 382, and starts over.  Every pass matches the reference, and the
    # search returns the equation that the certified search finds
    search = ("diff(y(x),x) = x^40*y(x)^2 + x*y(x)", "z = y^2/(x+y)", 3)
    certified = render(_run_search(*search), "text")
    widened = _widen_log(monkeypatch)
    _trace_candidates(monkeypatch, _full_pass)
    seen = _checked_against_reference(monkeypatch)
    for e in (40, 61, 130):
        found = _run_search(f"diff(y(x),x) = x^{e}*y(x)^2 + x", "z = y/(x+y)", 2)
        assert render(found, "text") == (f"z(x)^2*x^{e + 2} + z(x)^2*x + z(x)^2"
                                         " - diff(z(x),x)*x - 2*z(x)*x - z(x) + x = 0")
    assert widened == [] and seen["degree"] > 60 and seen["hit"] == 3
    assert render(_run_search(*search), "text") == certified
    assert widened == [(63, False, 382)]
    assert seen["hit"] == 4


def test_exact_pass_doubles_its_fields_before_the_rows_exist(monkeypatch):
    # x^61 in the input of the search above, and the certificate patched
    # out: the fields start at degree 63, and a slot value or a reduction
    # step of the full pass of z^3 at order 1 outgrows them before there
    # are rows to bound the minors, so the pass doubles the degree and
    # starts over.  Its solve then outgrows those fields too, and the pass
    # rebuilds them once, at the rows' Bareiss bound.  Every pass still
    # matches the reference, and the search returns the equation that the
    # certified search finds
    search = ("diff(y(x),x) = x^61*y(x)^2 + x*y(x)", "z = y^2/(x+y)", 3)
    certified = render(_run_search(*search), "text")
    widened = _widen_log(monkeypatch)
    _trace_candidates(monkeypatch, _full_pass)
    seen = _checked_against_reference(monkeypatch)
    assert render(_run_search(*search), "text") == certified
    assert widened == [(63, True, 127), (127, False, 571)]
    assert seen["hit"] == 1


def test_exact_pass_rebuilds_once_at_the_bareiss_bound(monkeypatch):
    # the minors of this search need degree above 255: doubling built the
    # kernel at degree 63, 127, 255 and 511.  The first overflow is in the
    # solve, so the pass rebuilds once, at the rows' Bareiss bound.  An
    # input of degree above the starting 63 gets fields that hold it at the
    # first build, and the solve of z^3 rebuilds those once too.  The
    # certificate is patched out, so that full passes run.  Every exact
    # pass still matches the reference, and each search returns the
    # equation that the certified search finds.  Only the exact pass's
    # builds count: the miss certificate's image, mod q, is a _Packing too
    searches = [(f"diff(y(x),x) = x^{e}*y(x)^2 + x*y(x)", "z = y^2/(x+y)", 3)
                for e in (26, 130)]
    certified = [render(_run_search(*search), "text") for search in searches]
    builds = []
    real_build = ansatz._Packing.build

    def build(self, degree):
        if self.q is None:
            builds.append(degree)
        real_build(self, degree)

    monkeypatch.setattr(ansatz._Packing, "build", build)
    _trace_candidates(monkeypatch, _full_pass)
    seen = _checked_against_reference(monkeypatch)
    assert render(_run_search(*searches[0]), "text") == certified[0]
    assert builds == [63, 256]
    builds.clear()
    assert render(_run_search(*searches[1]), "text") == certified[1]
    assert builds == [132, 1192]
    assert seen["hit"] == 2 and seen["degree"] > 511
