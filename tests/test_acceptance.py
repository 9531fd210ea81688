"""Acceptance suite for the package: ten numbered end-to-end criteria, each
printing one PASS/FAIL line with its runtime.

The reference outputs are well-known equations for the Weierstrass elliptic
function, the Bernoulli-polynomial generating function, and the Mathieu
functions.  Matching is up to a nonzero rational constant after the canonical
primitive/positive-lead normalization, except where a criterion demands exact
term-for-term equality.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from dalg import (Context, Poly, SeriesWitness, ansatz_search,
                  arithmetic_dalg, compose_dalg, ddfinite_to_dalg, diff_dalg,
                  equation_to_ade, inv_dalg, pseudo_divide, render,
                  spec_to_ratfunc, unary_dalg, verify_series)
from dalg.diffpoly import total_derivative
from dalg.groebner import IdealBasis, buchberger
from dalg.orders import GrevLex, default_order
from dalg.poly import mono_div
from dalg.render import poly_to_text

from conftest import (certified_by_substitution, make_rng, mono_cmp,
                      mono_lcm, proportional, random_poly, reduce,
                      weierstrass, z_degree)
from test_series import bernoulli_series

# results shared with the certification criteria (8 and 9); populated in
# file order by the earlier tests
RESULTS = {}


@contextmanager
def criterion(num, label, bound=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {label}")
        raise
    dt = time.monotonic() - t0
    if bound is not None and dt >= bound:
        print(f"FAIL criterion {num}: {label} ({dt:.1f}s, bound {bound}s)")
        assert dt < bound
    limit = f", {dt:.1f}s < {bound}s" if bound is not None else f", {dt:.1f}s"
    print(f"PASS criterion {num}: {label}{limit}")


def need(*keys):
    import pytest

    for k in keys:
        if k not in RESULTS:
            pytest.skip(f"prerequisite computation {k!r} did not run")


# expected outputs, written with the dependent z (y for the Mathieu case)

EQ_RATMAP = (
    "z(x)^4*(4*x^3 - g2*x + g3 + 1) + z(x)^3*(-4*x^3 + 3*g2*x - 4*g3 - 2)"
    " - 2*z(x)^2*diff(z(x),x)*x + z(x)^2*(-3*g2*x + 6*g3 + 1)"
    " + 2*x*z(x)*diff(z(x),x) + z(x)*(g2*x - 4*g3)"
    " + diff(z(x),x)^2*x^2 + g3"
)

EQ_BERNOULLI = (
    "(-t^2*x + t*x - 2*t + 1)*z(x)^2 + (2*t*x - x + 2)*diff(z(x),x)*z(x)"
    " - 2*x*diff(z(x),x)^2 + x*diff(z(x),x,x)*z(x)"
)

EQ_DOUBLED = "diff(z(x),x,x) - 24*z(x)^2 + 2*g2"

EQ_WP_D1 = (
    "-1728*z(x)^4 + 64*g2^3 - 192*g2*diff(z(x),x)^2 - 3456*g3*z(x)^2"
    " + 128*diff(z(x),x)^3 - 1728*g3^2"
)

EQ_WP_D2 = (
    "16*g2^5 + 64*g2^4*z(x) + 16*g2^3*z(x)^2 - 160*g2^2*z(x)^3"
    " - 64*g2*z(x)^4 + 128*z(x)^5 - 432*g2^2*g3^2 - 1728*g2*g3^2*z(x)"
    " - 72*g2*g3*diff(z(x),x)^2 - 1728*g3^2*z(x)^2"
    " - 144*g3*z(x)*diff(z(x),x)^2 - 3*diff(z(x),x)^4"
)

EQ_WP_INV = "1 + (-4*x^3 + g2*x + g3)*diff(z(x),x)^2"

EQ_MATHIEU = (
    "4*a*y(x)^3 + 4*y(x)^2*diff(y(x),x,x) + y(x)^2*diff(y(x),x,x,x,x)"
    " - 2*diff(y(x),x,x,x)*y(x)*diff(y(x),x) - diff(y(x),x,x)^2*y(x)"
    " + 2*diff(y(x),x)^2*diff(y(x),x,x)"
)

# criterion 7 at k=2 and k=3 as rendered by render(out, "text"); the
# search picks one equation among many, so these pin its exact output
EQ_ANSATZ_K2_TEXT = (
    "48*z(x)^2*x^5 - 64*diff(z(x),x)^2*x^4 + 32*diff(z(x),x,x)*z(x)*x^4"
    " + 24*z(x)^2*x^3*g2 - 32*diff(z(x),x)*z(x)*x^3"
    " - 8*diff(z(x),x,x)*x^4 + 16*diff(z(x),x)^2*x^2*g2"
    " - 8*diff(z(x),x,x)*z(x)*x^2*g2 - 24*z(x)*x^3*g2 + 3*z(x)^2*x*g2^2"
    " - 96*z(x)^2*x^2*g3 - 16*diff(z(x),x)*x^3"
    " - 8*diff(z(x),x)*z(x)*x*g2 + 6*diff(z(x),x,x)*x^2*g2 - 4*x^3*g2"
    " - 6*z(x)*x*g2^2 - 16*diff(z(x),x)^2*x*g3"
    " + 8*diff(z(x),x,x)*z(x)*x*g3 + 144*z(x)*x^2*g3"
    " - 16*diff(z(x),x)^2*x + 8*diff(z(x),x,x)*z(x)*x - 8*z(x)^2*g2"
    " + 12*diff(z(x),x)*x*g2 + 3*x*g2^2 + 16*diff(z(x),x)*z(x)*g3"
    " - 8*diff(z(x),x,x)*x*g3 - 48*x^2*g3 + 16*diff(z(x),x)*z(x)"
    " - 8*diff(z(x),x,x)*x + 12*z(x)*g2 - 16*diff(z(x),x)*g3"
    " - 16*diff(z(x),x) - 4*g2 = 0"
)

EQ_ANSATZ_K3_TEXT = (
    "16*z(x)^3*x^3 - 12*z(x)^2*x^3 - 4*z(x)^3*x*g2 + 9*z(x)^2*x*g2"
    " + 4*z(x)^3*g3 + 4*z(x)^3 - 8*diff(z(x),x)*z(x)*x"
    " + 2*diff(z(x),x,x)*x^2 - 6*z(x)*x*g2 - 12*z(x)^2*g3 - 4*z(x)^2"
    " + 4*diff(z(x),x)*x + x*g2 + 12*z(x)*g3 - 4*g3 = 0"
)


def test_criterion_01_unary_rational_map():
    with criterion(1, "unary_dalg reproduces the Weierstrass z=y/(x+y) "
                      "equation exactly", 30):
        ctx = Context()
        ade = weierstrass(ctx)
        zname, R = spec_to_ratfunc("z = y/(x+y)", ctx, ["y"])
        res = unary_dalg(ade, R, z_name=zname)
        expected = equation_to_ade(EQ_RATMAP, ctx, dep="z")
        assert res.ade.poly == expected.poly
        assert res.ade.order == 1
        RESULTS["unary"] = (ctx, res, expected)


def test_criterion_02_arith_bernoulli_ratio():
    with criterion(2, "arithmetic_dalg reproduces the Bernoulli "
                      "generating-function equation", 30):
        ctx = Context()
        a1 = equation_to_ade("x*diff(y1(x),x) - (t*x + 1)*y1(x)", ctx)
        a2 = equation_to_ade("diff(y2(x),x) - y2(x) - 1", ctx)
        zname, R = spec_to_ratfunc("z = y1/y2", ctx, ["y1", "y2"])
        res = arithmetic_dalg([a1, a2], R, z_name=zname)
        expected = equation_to_ade(EQ_BERNOULLI, ctx, dep="z")
        assert proportional(res.ade.poly, expected.poly)
        assert res.ade.order == 2
        RESULTS["arith"] = (ctx, res, expected)


def test_criterion_03_compose_doubling():
    with criterion(3, "compose_dalg(Weierstrass, y2'=2) reproduces "
                      "z'' - 24z^2 + 2g2", 30):
        ctx = Context()
        outer = weierstrass(ctx, "y1")
        inner = equation_to_ade("diff(y2(x),x) = 2", ctx)
        res = compose_dalg(outer, inner)
        expected = equation_to_ade(EQ_DOUBLED, ctx, dep="z")
        assert proportional(res.ade.poly, expected.poly)
        RESULTS["compose"] = (ctx, res, expected)


def test_criterion_04_derivatives_of_weierstrass():
    with criterion(4, "diff_dalg reproduces the wp' equation plus the "
                      "hand identity, and the wp'' equation", 120):
        ctx = Context()
        ade = weierstrass(ctx, "y1")
        t0 = time.monotonic()
        d1 = diff_dalg(ade, 1)
        assert time.monotonic() - t0 < 60
        expected1 = equation_to_ade(EQ_WP_D1, ctx, dep="z")
        assert proportional(d1.ade.poly, expected1.poly)

        # hand identity: 27(z^2+g3)^2 - (2z'^3 - 3g2 z'^2 + g2^3), scaled
        # by -64, expands to the first-derivative equation term for term
        z_id = ctx.indet_id("z")
        z0 = Poly.var(ctx, ctx.diff_var(z_id, 0))
        z1 = Poly.var(ctx, ctx.diff_var(z_id, 1))
        g2 = Poly.var(ctx, ctx.param("g2"))
        g3 = Poly.var(ctx, ctx.param("g3"))
        hand = ((z0 ** 2 + g3) ** 2).scale(27) - (
            (z1 ** 3).scale(2) - g2 * z1 ** 2 * 3 + g2 ** 3)
        raw = ((z0 ** 4).scale(-1728) + (g2 ** 3).scale(64)
               - g2 * z1 ** 2 * 192 - g3 * z0 ** 2 * 3456
               + (z1 ** 3).scale(128) - (g3 ** 2).scale(1728))
        assert hand.scale(-64) == raw
        assert proportional(d1.ade.poly, hand)

        ctx2 = Context()
        ade2 = weierstrass(ctx2, "y1")
        t0 = time.monotonic()
        d2 = diff_dalg(ade2, 2)
        assert time.monotonic() - t0 < 60
        expected2 = equation_to_ade(EQ_WP_D2, ctx2, dep="z")
        assert proportional(d2.ade.poly, expected2.poly)
        RESULTS["diff1"] = (ctx, d1, expected1)
        RESULTS["diff2"] = (ctx2, d2, expected2)


def test_criterion_05_functional_inverse():
    with criterion(5, "inv_dalg reproduces 1 + (-4x^3 + g2 x + g3) z'^2 "
                      "explicitly", 1):
        ctx = Context()
        ade = weierstrass(ctx, "y1")
        res = inv_dalg(ade)
        expected = equation_to_ade(EQ_WP_INV, ctx, dep="z")
        assert proportional(res.ade.poly, expected.poly)
        RESULTS["inverse"] = (ctx, res, expected)


def test_criterion_06_mathieu_ddfinite():
    with criterion(6, "ddfinite_to_dalg on the Mathieu equation reproduces "
                      "the quartic-order output term for term", 60):
        ctx = Context()
        main = equation_to_ade("diff(y(x),x,x) + (a - 2*q*C)*y(x)", ctx,
                               dep="y", extra_deps=["y", "C"])
        cos2 = equation_to_ade("diff(C(x),x,x) + 4*C(x)", ctx)
        res = ddfinite_to_dalg(main, [cos2])
        expected = equation_to_ade(EQ_MATHIEU, ctx, dep="y")
        assert res.ade.poly == expected.poly

        # independent hand derivation of the same polynomial
        y_id = ctx.indet_id("y")
        y = [Poly.var(ctx, ctx.diff_var(y_id, i)) for i in range(5)]
        a = Poly.var(ctx, ctx.param("a"))
        hand = (y[4] * y[0] ** 2 - y[2] ** 2 * y[0]
                - y[3] * y[1] * y[0] * 2 + y[1] ** 2 * y[2] * 2
                + y[2] * y[0] ** 2 * 4 + a * y[0] ** 3 * 4)
        assert hand == expected.poly
        RESULTS["mathieu"] = (ctx, res, expected)


def test_criterion_07_ansatz_search_family():
    with criterion(7, "ansatz search finds order-2 quadratic (k=2), order-2 "
                      "cubic (k=3), and the full equation at k=4", 360):
        for k, check in ((2, "quad"), (3, "cubic"), (4, "exact")):
            ctx = Context()
            ade = weierstrass(ctx)
            zname, R = spec_to_ratfunc("z = y/(x+y)", ctx, ["y"])
            t0 = time.monotonic()
            out = ansatz_search([ade], R, k=k, z_name=zname)
            assert time.monotonic() - t0 < 120
            z_id = ctx.indet_id("z")
            if check == "quad":
                assert out.order == 2 and z_degree(out.poly, z_id) == 2
                assert render(out, "text") == EQ_ANSATZ_K2_TEXT
                RESULTS["ansatz2"] = (ctx, out, ade, R)
            elif check == "cubic":
                assert out.order == 2 and z_degree(out.poly, z_id) == 3
                assert render(out, "text") == EQ_ANSATZ_K3_TEXT
                RESULTS["ansatz3"] = (ctx, out, ade, R)
            else:
                expected = equation_to_ade(EQ_RATMAP, ctx, dep="z")
                assert proportional(out.poly, expected.poly)
                RESULTS["ansatz4"] = (ctx, out, ade, R)


def _keep_basis(res, *extra):
    """Groebner basis of the keep-block elimination ideal.

    The keep-only members of a reduced basis under the block order form a
    reduced basis of the elimination ideal under the inner keep order, which
    is graded reverse lexicographic on the kept variables.
    """
    ctx = res.ade.ctx
    vars_ = set()
    for g in res.generators:
        vars_ |= g.variables()
    for p in extra:
        vars_ |= p.variables()
    order = GrevLex(sorted(vars_, key=ctx.rank_key))
    return IdealBasis(res.generators, order)


def test_criterion_08_certification_suite():
    need("unary", "arith", "compose", "diff1", "diff2", "inverse",
         "ansatz2", "ansatz3")
    with criterion(8, "series oracle (T=12) and ideal-membership "
                      "certification of every produced equation"):
        T = 12
        # Bernoulli generating function at t = 1/2 satisfies the ratio
        # equation; the residual must vanish to precision T - order
        _, res, _ = RESULTS["arith"]
        coeffs = bernoulli_series(Fraction(1, 2), T).coeffs
        wit = SeriesWitness("z", coeffs, {"t": Fraction(1, 2)})
        assert verify_series(res.ade, wit, T) >= T - res.ade.order

        # exponential-family witness for a trivial unary closure
        ctx = Context()
        a = equation_to_ade("diff(y(x),x) = y(x)", ctx)
        zname, R = spec_to_ratfunc("z = y^2", ctx, ["y"])
        sq = unary_dalg(a, R, z_name=zname)
        from dalg import TruncSeries
        wit = SeriesWitness("z", TruncSeries.exponential(2, T).coeffs)
        assert verify_series(sq.ade, wit, T) >= T - sq.ade.order

        # Weierstrass family: the reference polynomial reduces to zero
        # modulo the keep-block basis of the eliminated system (membership),
        # and the produced output is proportional to it (the converse)
        for key in ("unary", "compose", "diff1", "diff2", "inverse"):
            _, res, expected = RESULTS[key]
            basis = _keep_basis(res, expected.poly)
            assert reduce(expected.poly, basis).is_zero(), key
            assert any(proportional(g, expected.poly) or
                       proportional(res.ade.poly, expected.poly)
                       for g in res.generators), key

        # ansatz outputs: substituting the closure values of z = y/(x+y)
        # must give a numerator that the Weierstrass equation pseudo-reduces
        # to zero
        for key in ("ansatz2", "ansatz3"):
            ctx, out, ade, R = RESULTS[key]
            assert certified_by_substitution(out, ade, R), key


def _spoly(f, g, order):
    (lmf, lcf) = f.leading(order)
    (lmg, lcg) = g.leading(order)
    L = mono_lcm(lmf, lmg)
    mf = Poly(f.ctx, {mono_div(L, lmf): Fraction(1) / lcf})
    mg = Poly(g.ctx, {mono_div(L, lmg): Fraction(1) / lcg})
    return mf * f - mg * g


def _confluent(polys, ctx):
    basis = buchberger(polys, default_order(ctx))
    gens = basis.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not reduce(_spoly(gens[i], gens[j], basis.order),
                          basis).is_zero():
                return False
    return True


def test_criterion_09_property_suites():
    need("unary", "compose", "diff1")
    with criterion(9, "derivation, pseudo-division, confluence, order-axiom, "
                      "and round-trip property suites"):
        rng = make_rng(20260824)

        # total derivative: Leibniz and linearity on 1000 random polynomials
        ctx = Context()
        y = ctx.indeterminate("y")
        vars_ = [ctx.indep, ctx.diff_var(y, 0), ctx.diff_var(y, 1),
                 ctx.param("a")]
        for _ in range(500):
            p = random_poly(ctx, vars_, rng)
            q = random_poly(ctx, vars_, rng)
            assert (total_derivative(p * q)
                    == total_derivative(p) * q + p * total_derivative(q))
            assert (total_derivative(p + q)
                    == total_derivative(p) + total_derivative(q))

        # pseudo-division identity on 500 random pairs
        lead = ctx.diff_var(y, 1)
        for _ in range(500):
            f = random_poly(ctx, vars_, rng)
            g = random_poly(ctx, vars_, rng)
            if g.degree(lead) == 0:
                continue
            q, r, e = pseudo_divide(f, g, lead)
            lc = g.coeff_in(lead, g.degree(lead))
            assert f * lc ** e == q * g + r
            assert r.degree(lead) < g.degree(lead)

        # Buchberger confluence: the acceptance systems and 20 random ideals
        for key in ("unary", "compose", "diff1"):
            _, res, _ = RESULTS[key]
            assert _confluent(res.generators, res.ade.ctx), key
        for seed in range(20):
            c2 = Context()
            vs = [c2.param(n) for n in "abcd"]
            polys = [p for p in (random_poly(c2, vs, make_rng(seed * 7 + i))
                                 for i in range(3)) if not p.is_zero()]
            if polys:
                assert _confluent(polys, c2), seed

        # monomial-order axioms on random monomials
        from dalg.poly import mono_mul
        order = default_order(ctx)
        monos = [next(iter(random_poly(ctx, vars_, rng).terms))
                 for _ in range(60)]
        for m in monos:
            for n in monos:
                c = mono_cmp(order, m, n)
                assert c == -mono_cmp(order, n, m)
                for w in monos[:10]:
                    assert mono_cmp(order, mono_mul(m, w),
                                    mono_mul(n, w)) == c
            assert mono_cmp(order, m, ()) >= 0

        # parse/render round trip for every produced equation
        produced = [RESULTS[k][1].ade if hasattr(RESULTS[k][1], "ade")
                    else RESULTS[k][1]
                    for k in ("unary", "arith", "compose", "diff1", "diff2",
                              "inverse", "mathieu", "ansatz2", "ansatz3",
                              "ansatz4") if k in RESULTS]
        for ade in produced:
            text = render(ade, "text")
            ctx2 = Context()
            dep = ade.dep_name
            again = equation_to_ade(text[:-4], ctx2, dep=dep,
                                    extra_deps=[dep])
            assert poly_to_text(again.poly) == poly_to_text(ade.poly)


def test_criterion_10_resource_cap_abort():
    with criterion(10, "a deliberately explosive elimination aborts with "
                       "exit code 4 under the configured caps", 60):
        cmd = [sys.executable, "-m", "dalg.cli", "unary",
               "--ade", "diff(y1(x),x)^2 = 4*y1(x)^3 - g2*y1(x) - g3",
               "--spec", "z = y1/(x+y1)", "--max-degree", "6"]
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        assert r.returncode == 4
        assert "resource cap" in r.stderr
