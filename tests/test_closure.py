"""Closure operations on small, independently derivable families.

The exponential family gives outputs that can be derived by hand and
verified against truncated series solutions."""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from dalg import (Context, Poly, RatFunc, SeriesWitness, ansatz_search,
                  arithmetic_dalg, compose_dalg, ddfinite_to_dalg, diff_dalg,
                  equation_to_ade, inv_dalg, spec_to_ratfunc, unary_dalg,
                  verify_series)
from dalg import closure, groebner
from dalg.cli import main as cli_main
from dalg.closure import build_system, select_output
from dalg.diffpoly import normalize_ade
from dalg.errors import ArgumentError, EliminationFailedError
from dalg.groebner import SAT_NAME, eliminate, saturation_factors
from dalg.orders import Block, GrevLex
from dalg.render import poly_to_text, render
from dalg.series import TruncSeries

from conftest import (at_series, certified_by_substitution, prolonged_compose,
                      prolonged_ddfinite, prolonged_diff, prolonged_rational,
                      proportional, rabinowitsch_eliminate, series_solution,
                      weierstrass)


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


@pytest.fixture
def eliminations(monkeypatch):
    """The (gens, elim_vars, keep_vars, saturate) of every elimination the
    closure operations run."""
    calls = []
    real = closure.eliminate

    def spy(gens, elim_vars, keep_vars, *args, saturate=(), **kwargs):
        calls.append((gens, elim_vars, keep_vars, saturate))
        return real(gens, elim_vars, keep_vars, *args, saturate=saturate, **kwargs)

    monkeypatch.setattr(closure, "eliminate", spy)
    return calls


def test_prolong_and_build_system_counts(monkeypatch, eliminations):
    ctx = Context()
    ade = exp_ade(ctx)
    y = ctx.indet_id("y")
    z = ctx.indeterminate("z")
    defining = (Poly.var(ctx, ctx.diff_var(z, 0))
                - Poly.var(ctx, ctx.diff_var(y, 0), 2))
    system = build_system([ade], defining, z, 1)
    # the input as it is, and the link prolonged once: z' - 2*y*y' names
    # the leader y' and nothing above it
    y0, y1 = (Poly.var(ctx, ctx.diff_var(y, i)) for i in (0, 1))
    z1 = Poly.var(ctx, ctx.diff_var(z, 1))
    assert system.polys == [ade.poly, defining, z1 - (y0 * y1).scale(2)]
    # keeps z, z'; eliminates y, y' and no higher derivative (x does not
    # occur here)
    keep_names = {repr(v) for v in system.keep_vars}
    assert keep_names == {"z", "z^(1)"}
    assert sorted(v.order for v in system.elim_vars) == [0, 1]
    s0 = build_system([ade], defining, z, 0)
    assert s0.polys == [ade.poly, defining]
    # z - y'^3 differentiates to z' - 3*y'^2*y'', and y'' = y' comes from
    # the input
    cubed = Poly.var(ctx, ctx.diff_var(z, 0)) - Poly.var(ctx, ctx.diff_var(y, 1), 3)
    (_, _, top) = build_system([ade], cubed, z, 1).polys
    assert top == z1 - (y1 ** 3).scale(3)
    # diff_dalg with j = 2 on y' = y eliminates y and y' only: the link
    # z - y'' is z - y', and its derivative z' - y'' is z' - y'
    diff_dalg(exp_ade(Context()), 2)
    ((_, elim_vars, _, _),) = eliminations
    assert sorted(v.order for v in elim_vars) == [0, 1]

    # saturation: eliminate adjoins one polynomial w*h - 1 and one
    # eliminated variable w per distinct non-constant factor h that it
    # cannot certify as a non-zero-divisor; constants and rational multiples
    # add nothing
    shift = y0 + Poly.var(ctx, ctx.indep)
    assert saturation_factors([Poly.const(ctx, 3), Poly(ctx)]) == []
    factors = saturation_factors([shift, Poly.const(ctx, 3), y1,
                                  shift.scale(Fraction(-2, 3)), y1.scale(5)])
    assert len(factors) == 2
    calls = []

    def spy(gens, order, config=None, keep_vars=None):
        calls.append((gens, order))
        return real(gens, order, config, keep_vars)

    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger", spy)
    # the input y' - y solves for y', which eliminate substitutes away
    # before it builds the order, in the factors too; the other eliminated
    # variables and the keep block keep their canonical rank
    keep = system.keep_vars | {ctx.indep}    # x occurs in the factor x + y
    low = sorted(keep, key=ctx.rank_key)
    plain = sorted(system.elim_vars - {ctx.diff_var(y, 1)}, key=ctx.rank_key)
    eliminate(system.polys, system.elim_vars, keep, saturate=[])
    # both factors, x + y and y' = y, are non-zero-divisors modulo
    # (z - y^2, z' - 2*y^2), so certified eliminate adds nothing for them
    eliminate(system.polys, system.elim_vars, keep, saturate=factors)
    for gens, order in calls:
        assert len(gens) == len(system.polys) - 1
        assert order.rows() == Block(GrevLex(plain), GrevLex(low)).rows()
    # where the certificate keeps the factors (zero divisors, or a cap hit
    # in its runs), each gets its Rabinowitsch variable, and those
    # variables lead the high block
    del calls[:]
    monkeypatch.setattr(groebner, "_to_saturate", lambda gens, hs, config: hs)
    eliminate(system.polys, system.elim_vars, keep, saturate=factors)
    ((gens, order),) = calls
    sat_vars = [ctx.diff_var(ctx.indet_id(f"{SAT_NAME}{i}"), 0) for i in range(2)]
    assert len(gens) == len(system.polys) - 1 + 2
    assert set().union(*(g.variables() for g in gens)) == \
        (system.elim_vars - {ctx.diff_var(y, 1)}) | keep | set(sat_vars)
    assert order.rows() == Block(GrevLex(sat_vars + plain), GrevLex(low)).rows()


def _n(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 3)


def _first_order(rng, y):
    a, b = _n(rng), _n(rng)
    return rng.choice([f"diff({y}(x),x) = {a}*{y}(x) + {b}",
                       f"diff({y}(x),x) = {y}(x)^2 + {a}",
                       f"diff({y}(x),x) = {a}*{y}(x)^2 + {b}*{y}(x)"])


def _unary_problem(rng, ctx):
    ade = equation_to_ade(_first_order(rng, "y"), ctx)
    a, b = _n(rng), _n(rng)
    spec = rng.choice([f"z = {a}*y + {b}*x", f"z = y^2 + {a}*x", f"z = 1/(y + {a})",
                       f"z = x*y + {a}"])
    zname, R = spec_to_ratfunc(spec, ctx, ["y"])
    return (unary_dalg(ade, R, z_name=zname), ade.order, ([ade], R),
            lambda: prolonged_rational([ade], R, zname))


def _arith_problem(rng, ctx):
    a1 = equation_to_ade(_first_order(rng, "y1"), ctx)
    a2 = equation_to_ade(f"diff(y2(x),x) = {_n(rng)}*y2(x) + {_n(rng)}", ctx)
    spec = rng.choice(["z = y1 + y2", "z = y1*y2", f"z = y1 + {_n(rng)}*y2", "z = y1/y2"])
    zname, R = spec_to_ratfunc(spec, ctx, ["y1", "y2"])
    return (arithmetic_dalg([a1, a2], R, z_name=zname), a1.order + a2.order,
            ([a1, a2], R), lambda: prolonged_rational([a1, a2], R, zname))


def _compose_problem(rng, ctx):
    outer = equation_to_ade(_first_order(rng, "y1"), ctx)
    inner = equation_to_ade(rng.choice([f"diff(y2(x),x) = {_n(rng)}",
                                        f"diff(y2(x),x) = {_n(rng)}*y2(x) + {_n(rng)}"]),
                            ctx)
    return (compose_dalg(outer, inner), outer.order + inner.order, None,
            lambda: prolonged_compose(outer, inner))


def _diff_problem(rng, ctx):
    ade = equation_to_ade(rng.choice([
        _first_order(rng, "y"),
        f"diff(y(x),x,x) + {_n(rng)}*diff(y(x),x) + {_n(rng)}*y(x) = 0"]), ctx)
    j = rng.randint(1, 2)
    return diff_dalg(ade, j), ade.order, None, lambda: prolonged_diff(ade, j)


def _ddfinite_problem(rng, ctx):
    main = equation_to_ade(f"diff(y(x),x) - ({_n(rng)} + C(x))*y(x) = 0", ctx,
                           extra_deps=["C"])
    coeff = equation_to_ade(f"diff(C(x),x) - {_n(rng)}*C(x) = 0", ctx)
    return (ddfinite_to_dalg(main, [coeff]), main.order + coeff.order, None,
            lambda: prolonged_ddfinite(main, [coeff]))


def _seeded_problems():
    rng = random.Random(15)
    problems = [_unary_problem, _arith_problem, _compose_problem, _diff_problem,
                _ddfinite_problem] * 5
    rng.shuffle(problems)
    for problem in problems:
        yield problem(rng, Context())


def test_one_elimination_per_operation(eliminations):
    # the link is prolonged to the order bound and eliminated once: the
    # output stays within the bound, and no operation eliminates twice
    for res, bound, certify, _ in _seeded_problems():
        assert len(eliminations) == 1
        eliminations.clear()
        assert res.ade.order <= bound
        if certify is not None:
            assert certified_by_substitution(res.ade, *certify)


def _criteria_1_to_6(ctx):
    wp = weierstrass(ctx, "y1")
    zname, R = spec_to_ratfunc("z = y1/(x+y1)", ctx, ["y1"])
    yield unary_dalg(wp, R, z_name=zname), lambda: prolonged_rational([wp], R, zname)
    a1 = equation_to_ade("x*diff(y1(x),x) - (t*x + 1)*y1(x)", ctx)
    a2 = equation_to_ade("diff(y2(x),x) - y2(x) - 1", ctx)
    zname, R2 = spec_to_ratfunc("z = y1/y2", ctx, ["y1", "y2"])
    yield (arithmetic_dalg([a1, a2], R2, z_name=zname),
           lambda: prolonged_rational([a1, a2], R2, zname))
    inner = equation_to_ade("diff(y2(x),x) = 2", ctx)
    yield compose_dalg(wp, inner), lambda: prolonged_compose(wp, inner)
    for j in (1, 2):
        yield diff_dalg(wp, j), lambda j=j: prolonged_diff(wp, j)
    main = equation_to_ade("diff(y(x),x,x) + (a - 2*q*C)*y(x)", ctx, extra_deps=["C"])
    coeff = equation_to_ade("diff(C(x),x,x) + 4*C(x)", ctx)
    yield ddfinite_to_dalg(main, [coeff]), lambda: prolonged_ddfinite(main, [coeff])


def _coupled_three_inputs(ctx):
    # y2'' occurs only through y1'' = y1'*y2 + y1*y2' at bound 3: each input
    # must be substituted with the others' values, not with its own alone
    ades = [equation_to_ade(t, ctx, extra_deps=["y1", "y2", "y3"])
            for t in ("y1' = y1*y2", "y2' = y1 + x", "y3' = y3")]
    zname, R = spec_to_ratfunc("z = y1+y3", ctx, ["y1", "y2", "y3"])
    yield arithmetic_dalg(ades, R, z_name=zname), lambda: prolonged_rational(ades, R, zname)


def _algebraic_inner(ctx):
    # an inner equation of order zero: the chain rule names g' = u', which
    # only the inner equation's value of u' ties to u (the last one's has
    # the denominator 2*x)
    for outer_text, inner_text in (("y' = y", "u^2 - x = 0"),
                                   ("y'' + y = 0", "u^2 - x = 0"),
                                   ("y' = y^2", "x*u^2 - 1 = 0")):
        outer = equation_to_ade(outer_text, ctx, extra_deps=["y"])
        inner = equation_to_ade(inner_text, ctx, dep="u", extra_deps=["u"])
        yield compose_dalg(outer, inner), lambda o=outer, i=inner: prolonged_compose(o, i)


def test_generators_match_the_prolonged_reference():
    # substituting the inputs' higher derivatives leaves the elimination
    # ideal, so the reduced basis, as it was with every input prolonged
    cases = [(res, ref) for res, _, _, ref in _seeded_problems()]
    cases += [*_criteria_1_to_6(Context()), *_coupled_three_inputs(Context()),
              *_algebraic_inner(Context())]
    assert len(cases) == 25 + 6 + 1 + 3
    for res, reference in cases:
        assert sorted(map(poly_to_text, res.generators)) == \
            sorted(map(poly_to_text, reference()))


def test_inconsistent_compose_fails_after_one_elimination(eliminations, capsys):
    # u'^2 = 0 forces g' = 0, a saturation factor of the composition, so the
    # saturated ideal is the unit ideal and more prolongation cannot help
    outer_text, inner_text = "diff(y(x),x,x) + y(x) = 0", "u'^2 = 0"
    ctx = Context()
    outer = equation_to_ade(outer_text, ctx)
    inner = equation_to_ade(inner_text, ctx)
    with pytest.raises(EliminationFailedError, match="saturation factor"):
        compose_dalg(outer, inner)
    assert len(eliminations) == 1
    assert cli_main(["compose", "--ade", outer_text, "--ade", inner_text]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "computation failed: no keep-only generator involves the output: a "
        "saturation factor (an initial, a separant, the map's denominator, or "
        "g' for compose) vanishes on the inputs' generic solution\n")
    assert len(eliminations) == 2


def test_compose_with_algebraic_inner(eliminations):
    # f = exp composed with g = sqrt(x): z' = z/(2*sqrt(x)), so 4*x*z'^2 = z^2;
    # a constant algebraic g has g' = 0 and fails as u' = 0 does: the one
    # elimination saturates by the zero factor g', which gives the unit ideal
    ctx = Context()
    outer = equation_to_ade("y' = y", ctx, extra_deps=["y"])
    inner = equation_to_ade("u^2 - x = 0", ctx, dep="u", extra_deps=["u"])
    res = compose_dalg(outer, inner)
    assert poly_to_text(res.ade.poly) == "4*diff(z(x),x)^2*x - z(x)^2"
    const = equation_to_ade("u - 1 = 0", ctx, dep="u", extra_deps=["u"])
    del eliminations[:]
    with pytest.raises(EliminationFailedError, match="saturation factor"):
        compose_dalg(outer, const)
    assert len(eliminations) == 1


def _weierstrass_shift_ratio(ctx):
    # criterion 1's input and map: factors x + y and y'
    zname, R = spec_to_ratfunc("z = y/(x+y)", ctx, ["y"])
    return unary_dalg(weierstrass(ctx), R, z_name=zname)


def _compose_doubling(ctx):
    # criterion 3: factors v_1 (the outer separant at v) and y2'
    return compose_dalg(weierstrass(ctx, "y1"),
                        equation_to_ade("diff(y2(x),x) = 2", ctx))


def _bernoulli_ratio(ctx):
    # criterion 2: factors y2 (the map denominator) and x
    a1 = equation_to_ade("x*diff(y1(x),x) - (t*x + 1)*y1(x)", ctx)
    a2 = equation_to_ade("diff(y2(x),x) - y2(x) - 1", ctx)
    zname, R = spec_to_ratfunc("z = y1/y2", ctx, ["y1", "y2"])
    return arithmetic_dalg([a1, a2], R, z_name=zname)


@pytest.mark.parametrize("run", [_weierstrass_shift_ratio, _compose_doubling,
                                 _bernoulli_ratio])
def test_per_factor_saturation_matches_product(eliminations, run):
    # I : (h_1 ... h_m)^oo is reached either with one Rabinowitsch variable
    # per factor or with one for the product, so the keep-only generators
    # of the two reduced bases are the same polynomials; so is certified
    # eliminate's output
    ctx = Context()
    run(ctx)
    ((polys, elim_vars, keep_vars, factors),) = eliminations
    factors = saturation_factors(factors)
    assert len(factors) >= 2
    new = rabinowitsch_eliminate(polys, elim_vars, keep_vars, factors)
    w = ctx.diff_var(ctx.indeterminate("_w"), 0)
    product = factors[0]
    for h in factors[1:]:
        product = product * h
    old = eliminate(polys + [Poly.var(ctx, w) * product - Poly.const(ctx, 1)],
                    elim_vars | {w}, keep_vars)
    assert new
    assert sorted(map(poly_to_text, new)) == sorted(map(poly_to_text, old))
    assert eliminate(polys, elim_vars, keep_vars, saturate=factors) == new


@pytest.fixture
def certificates(monkeypatch):
    """The (factors, factors kept) of every certificate eliminate runs."""
    calls = []
    real = groebner._to_saturate

    def spy(gens, factors, config):
        kept = real(gens, factors, config)
        calls.append((factors, kept))
        return kept

    monkeypatch.setattr(groebner, "_to_saturate", spy)
    return calls


def test_certified_eliminate_matches_rabinowitsch_on_benchmark_systems(
        monkeypatch, capsys, certificates):
    # every system that the elim workload and cli-mix seed 1 eliminate from:
    # eliminate, which saturates only by the factors it cannot certify,
    # returns the basis of the reference that saturates by all of them
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from cases import cli_mix_cases, elim_cases

    runs = []
    real = closure.eliminate

    def spy(gens, elim_vars, keep_vars, config=None, saturate=()):
        out = real(gens, elim_vars, keep_vars, config, saturate=saturate)
        runs.append((out, gens, elim_vars, keep_vars, config, saturate))
        return out

    monkeypatch.setattr(closure, "eliminate", spy)
    for case in elim_cases() + cli_mix_cases(1):
        if case.argv[0] not in ("ansatz", "inverse"):
            assert cli_main(case.argv) == 0, case.id
    capsys.readouterr()
    assert len(runs) > 120
    for out, gens, elim_vars, keep_vars, config, factors in runs:
        assert out == rabinowitsch_eliminate(gens, elim_vars, keep_vars, factors, config)
    certified = sum(len(factors) - len(kept) for factors, kept in certificates)
    assert certified >= 50 and sum(len(kept) for _, kept in certificates) >= 3


@pytest.mark.parametrize("run", [_bernoulli_ratio, _compose_doubling])
def test_saturation_stays_where_it_changes_the_output(eliminations, certificates, run):
    # criterion 2's factors and criterion 3's g' are zero divisors modulo
    # their systems: the certificate keeps them, and leaving them out would
    # change the elimination ideal's basis
    run(Context())
    ((polys, elim_vars, keep_vars, factors),) = eliminations
    ((_, kept),) = certificates
    assert kept
    assert eliminate(polys, elim_vars, keep_vars) != \
        eliminate(polys, elim_vars, keep_vars, saturate=factors)
    # criterion 1's factors x + y and y' are both certified
    _weierstrass_shift_ratio(Context())
    assert certificates[-1][1] == []


def test_numeric_weierstrass_ratio_is_certified():
    # the ratio of the Weierstrass functions with invariants (2, 3) and
    # (5, 7): no output in 120 s while every factor was saturated, a 196-term
    # order-2 equation once all are certified away; one coefficient moved
    # by one unit is no longer certified
    ctx = Context()
    a1 = equation_to_ade("diff(y1(x),x)^2 = 4*y1(x)^3 - 2*y1(x) - 3", ctx)
    a2 = equation_to_ade("diff(y2(x),x)^2 = 4*y2(x)^3 - 5*y2(x) - 7", ctx)
    zname, R = spec_to_ratfunc("z = y1/y2", ctx, ["y1", "y2"])
    out = arithmetic_dalg([a1, a2], R, z_name=zname).ade
    assert (out.order, out.poly.num_terms()) == (2, 196)
    assert certified_by_substitution(out, [a1, a2], R)
    mono = sorted(out.poly.terms)[len(out.poly.terms) // 2]
    moved = normalize_ade(out.poly + Poly(ctx, {mono: 1}), dep=out.dep)
    assert not certified_by_substitution(moved, [a1, a2], R)


def test_unary_weierstrass_mobius_map():
    # formerly about 8 s with one saturation variable for the product of
    # the factors; well under a second with one per factor
    ctx = Context()
    ade = weierstrass(ctx)
    zname, R = spec_to_ratfunc("z = (y+x)/(x*y+1)", ctx, ["y"])
    res = unary_dalg(ade, R, z_name=zname)
    assert certified_by_substitution(res.ade, ade, R)


def test_arithmetic_sum_of_two_weierstrass_functions():
    # formerly over 200 s with one saturation variable for the product
    ctx = Context()
    a1 = equation_to_ade("diff(y1(x),x)^2 = 4*y1(x)^3 - 2*y1(x) - 3", ctx)
    a2 = equation_to_ade("diff(y2(x),x)^2 = 4*y2(x)^3 - 5*y2(x) - 7", ctx)
    zname, R = spec_to_ratfunc("z = y1+y2", ctx, ["y1", "y2"])
    res = arithmetic_dalg([a1, a2], R, z_name=zname)
    assert res.ade.order == 2
    assert certified_by_substitution(res.ade, [a1, a2], R)


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
    # then the term count, and the least rendered text last, in any input
    # order
    c = z1 + z0 + Poly.const(ctx, 1)
    d = z1 - z0
    assert poly_to_text(b) < poly_to_text(d)
    for gens in ([c, d, b], [d, c, b], [b, d, c]):
        assert select_output(gens, z).poly == b


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


def test_unary_degenerate_rational_in_x(eliminations):
    # no derivatives in the map: the defining equation itself comes back,
    # with no elimination
    ctx = Context()
    ade = exp_ade(ctx)
    zname, R = spec_to_ratfunc("z = x^2/(1+x)", ctx, ["y"])
    res = unary_dalg(ade, R, z_name=zname)
    assert res.ade.order == 0
    assert eliminations == []
    z = ctx.indet_id("z")
    z0 = Poly.var(ctx, ctx.diff_var(z, 0))
    x = Poly.var(ctx, ctx.indep)
    assert proportional(res.ade.poly, z0 * x + z0 - x * x)


def test_map_free_generators_are_the_output_polynomial():
    # with no dependent in the map, generators holds the output's own
    # polynomial, as after an elimination, not the raw link
    # z*den - num = -1/2*x^2 + z + 3
    ctx = Context()
    ade = exp_ade(ctx)
    zname, R = spec_to_ratfunc("z = x^2/2 - 3", ctx, ["y"])
    res = unary_dalg(ade, R, z_name=zname)
    assert render(res.ade, "text") == "x^2 - 2*z(x) - 6 = 0"
    assert res.generators == [res.ade.poly]
    assert all(type(c) is int for c in res.generators[0].terms.values())


def test_unary_map_may_name_derivatives_up_to_the_order():
    # y*y'' is above y' = y's order in both engines; y*y' is not, and both
    # engines find z' = 2z for it
    ctx = Context()
    ade = exp_ade(ctx)
    y = [RatFunc(Poly.var(ctx, ctx.diff_var(ade.dep, i))) for i in range(3)]
    with pytest.raises(ArgumentError, match="above the order of its own"):
        unary_dalg(ade, y[0] * y[2])
    with pytest.raises(ArgumentError, match="above the order of its own"):
        ansatz_search([ade], y[0] * y[2], k=1)
    res = unary_dalg(ade, y[0] * y[1])
    assert render(res.ade, "text") == "diff(z(x),x) - 2*z(x) = 0"
    assert certified_by_substitution(res.ade, ade, y[0] * y[1])
    found = ansatz_search([ade], y[0] * y[1], k=1)
    assert render(found, "text") == render(res.ade, "text")


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
    # y1' = y2' + y1 names y2 at y2's own order, as the ansatz rejects too
    b1 = equation_to_ade("diff(y1(x),x) = diff(y2(x),x) + y1(x)", ctx, dep="y1")
    b2 = equation_to_ade("diff(y2(x),x) = y1(x)", ctx)
    with pytest.raises(ArgumentError, match="not below the order of its own"):
        arithmetic_dalg([b1, b2], spec_to_ratfunc("z = y1", ctx, ["y1", "y2"])[1])


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


def test_inverse_of_exponential_is_logarithm(eliminations):
    # [DERIVED] the inverse of e^x satisfies x*z' = 1, written down with no
    # elimination
    ctx = Context()
    ade = exp_ade(ctx)
    res = inv_dalg(ade)
    z = ctx.indet_id("z")
    expect = (Poly.var(ctx, ctx.indep) * Poly.var(ctx, ctx.diff_var(z, 1))
              - Poly.const(ctx, 1))
    assert proportional(res.ade.poly, expect)
    assert eliminations == []


def test_inverse_of_third_order_input():
    # [DERIVED] y''' = y + 1 holds for y = e^x - 1, whose inverse is
    # log(1+x); the substitution reaches y'' -> D_2 and y''' -> D_3
    ctx = Context()
    res = inv_dalg(equation_to_ade("diff(y(x),x,x,x) = y(x) + 1", ctx))
    assert render(res.ade, "text") == (
        "diff(z(x),x)^5*x + diff(z(x),x)^5 - 3*diff(z(x),x,x)^2"
        " + diff(z(x),x,x,x)*diff(z(x),x) = 0")
    log1p = [Fraction(0)] + [Fraction((-1) ** (k + 1), k) for k in range(1, 14)]
    check_series(res.ade, SeriesWitness("z", log1p), 14)
    log1p[5] += 1
    assert verify_series(res.ade, SeriesWitness("z", log1p), 14) < 14 - res.ade.order


def test_inverse_requires_positive_order():
    ctx = Context()
    y = ctx.indeterminate("y")
    y0 = ctx.diff_var(y, 0)
    ade = normalize_ade(Poly.var(ctx, y0, 2) - Poly.var(ctx, ctx.indep), dep=y)
    with pytest.raises(ArgumentError):
        inv_dalg(ade)


@pytest.mark.parametrize("eq", ["x*y' = 0", "(x+y)*y'^2 = 0", "y' = 0"])
def test_inverse_rejects_constant_solutions(eq):
    # P = a(x, y)*y'^d: off the initial a every solution has y' = 0, and
    # y' -> 1/z' leaves no derivative of z in the numerator
    ctx = Context()
    with pytest.raises(ArgumentError, match="solutions are constant"):
        inv_dalg(equation_to_ade(eq, ctx))


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


@pytest.mark.parametrize("main_text, coeff_text, order", [
    # main nonlinear in y
    ("diff(y(x),x) = C(x)*y(x)^2", "diff(C(x),x) = C(x)", 2),
    # D-algebraic coefficients: a Riccati C and a Weierstrass C
    ("diff(y(x),x,x) + C(x)*y(x)", "diff(C(x),x) = C(x)^2 + x", 3),
    ("diff(y(x),x,x) + C(x)*y(x)",
     "diff(C(x),x)^2 = 4*C(x)^3 - g2*C(x) - g3", 3),
    ("diff(y(x),x) = C(x)*y(x)^2 + 1", "diff(C(x),x) = C(x)^2 + x", 2),
], ids=["nonlinear-main", "riccati-coefficient", "weierstrass-coefficient",
        "riccati-main"])
def test_ddfinite_beyond_linear_returns_certified_equation(main_text, coeff_text,
                                                           order):
    # the conversion is the coupled elimination with z = y, so it takes any
    # input of the common class, not only linear ones
    ctx = Context()
    C = equation_to_ade(coeff_text, ctx)
    main = equation_to_ade(main_text, ctx, extra_deps=["C"])
    res = ddfinite_to_dalg(main, [C])
    assert res.ade.dep == main.dep and res.ade.order == order
    y = RatFunc(Poly.var(ctx, ctx.diff_var(main.dep, 0)))
    assert certified_by_substitution(res.ade, [main, C], y)


def test_ddfinite_riccati_coefficient_series():
    # y'' + C*y = 0 with C' = C^2 + x: the output is C = -y''/y substituted
    # into the Riccati equation; the coupled system's power series solution
    # with y(0) = 1, y'(0) = 1, C(0) = 1 solves it, and is the output's own
    # series solution for the same initial coefficients
    ctx = Context()
    C = equation_to_ade("diff(C(x),x) = C(x)^2 + x", ctx)
    main = equation_to_ade("diff(y(x),x,x) + C(x)*y(x)", ctx, extra_deps=["C"])
    out = ddfinite_to_dalg(main, [C]).ade
    T = 12
    c, y = [Fraction(1)], [Fraction(1), Fraction(1)]
    for m in range(T):
        c.append((sum(c[i] * c[m - i] for i in range(m + 1)) + (m == 1)) / (m + 1))
        y.append(-sum(c[i] * y[m - i] for i in range(m + 1)) / ((m + 2) * (m + 1)))
    y = y[:T]
    assert all(r == 0 for r in at_series(out.poly, y, T - out.order).coeffs)
    assert series_solution(out, y[:out.order + 1], T) == y


@pytest.mark.parametrize("spec", ["z = y1", "z = y2"])
def test_coupled_first_order_system(spec):
    # y1' = y1*y2 names y2 below its order, and y2' = y1 + x names y1: the
    # elimination and the ansatz at k = 3 find the same equation
    ctx = Context()
    a1 = equation_to_ade("diff(y1(x),x) = y1(x)*y2(x)", ctx)
    a2 = equation_to_ade("diff(y2(x),x) = y1(x) + x", ctx)
    zname, R = spec_to_ratfunc(spec, ctx, ["y1", "y2"])
    res = arithmetic_dalg([a1, a2], R, z_name=zname)
    assert res.ade.order == 2
    assert certified_by_substitution(res.ade, [a1, a2], R)
    found = ansatz_search([a1, a2], R, k=3, z_name=zname)
    assert render(found, "text") == render(res.ade, "text")
