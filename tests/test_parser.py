"""Equation parsing, lowering, and canonical rendering round trips."""

import json
import random
from fractions import Fraction

import pytest

from dalg import Context, Poly, RatFunc, equation_to_ade, normalize_ade, render, spec_to_ratfunc
from dalg.errors import DalgError, DivisionByZeroError, ParseError
from dalg.parser import (Applied, _walk, applied_names, lower, parse_equation,
                         parse_rational_spec)
from dalg.render import poly_to_text

from conftest import proportional, reference_lower, reference_walk, weierstrass


def test_parse_maple_diff_and_primes_agree():
    ctx1 = Context()
    a = equation_to_ade("diff(y(x),x,x) = y(x)", ctx1)
    ctx2 = Context()
    b = equation_to_ade("y'' = y", ctx2, dep="y")
    assert poly_to_text(a.poly) == poly_to_text(b.poly)


def test_parse_precedence_and_parentheses():
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x) = 2*y(x)^3 + (1+x)*y(x)", ctx)
    y = ctx.indet_id("y")
    y0 = Poly.var(ctx, ctx.diff_var(y, 0))
    y1 = Poly.var(ctx, ctx.diff_var(y, 1))
    x = Poly.var(ctx, ctx.indep)
    expect = y0 ** 3 * 2 + y0 + x * y0 - y1
    assert proportional(ade.poly, expect)


def test_parse_division_clears_denominators():
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x) = y(x)/(x+1)", ctx)
    y = ctx.indet_id("y")
    y0 = Poly.var(ctx, ctx.diff_var(y, 0))
    y1 = Poly.var(ctx, ctx.diff_var(y, 1))
    x = Poly.var(ctx, ctx.indep)
    expect = x * y1 + y1 - y0
    assert proportional(ade.poly, expect)


def test_unapplied_names_become_parameters():
    ctx = Context()
    ade = weierstrass(ctx)
    names = {v.name for v in ade.poly.variables()}
    assert {"g2", "g3"} <= names
    assert ctx.param("g2").kind == "param"


def test_missing_rhs_means_zero():
    ctx = Context()
    ade = equation_to_ade("diff(y(x),x) - y(x)", ctx)
    y = ctx.indet_id("y")
    expect = (Poly.var(ctx, ctx.diff_var(y, 1))
              - Poly.var(ctx, ctx.diff_var(y, 0)))
    assert proportional(ade.poly, expect)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_equation("y' = 2 +")
    assert info.value.line == 1
    assert info.value.column == 9
    with pytest.raises(ParseError) as info:
        parse_equation("y' = $")
    assert info.value.column == 6
    with pytest.raises(ParseError):
        parse_equation("diff(y(x)) = 1")
    with pytest.raises(ParseError):
        parse_equation("diff(y(x),x,t) = 1")


def test_parse_error_prints_a_position_only_when_it_has_one():
    # a syntax error points at its column, counted from 1; an error with no
    # source position says nothing of one
    with pytest.raises(ParseError) as info:
        parse_equation("y' = y )")
    assert str(info.value) == "unexpected trailing input ')' (line 1, column 8)"
    assert (info.value.line, info.value.column) == (1, 8)
    with pytest.raises(ParseError) as info:
        equation_to_ade("diff(y(x),x) = diff(w(x),x)", Context())
    assert str(info.value) == ("cannot infer the dependent variable; "
                               "differentiated names: ['w', 'y']")
    assert (info.value.line, info.value.column) == (None, None)


def test_primes_after_an_applied_name():
    # y(x)' and y(x)'' are derivatives, as diff(y(x),x) and diff(y(x),x,x) are
    for text, same in [("y(x)' = y(x)", "diff(y(x),x) = y(x)"),
                       ("y(x)'' + y(x)", "diff(y(x),x,x) + y(x)")]:
        node = parse_equation(text)
        assert [(n.name, n.arg, n.order) for n in _walk(node) if type(n) is Applied] == \
            [(n.name, n.arg, n.order) for n in _walk(parse_equation(same))
             if type(n) is Applied]
        assert render(equation_to_ade(text, Context()), "text") == \
            render(equation_to_ade(same, Context()), "text")


def test_non_ascii_digits_are_parse_errors():
    # str.isdigit takes these, int() does not: superscript two, Arabic-Indic three
    for text, column in [("y' = y^\u00b2", 8), ("y' = y^\u0663", 8), ("y' = \u00b2", 6)]:
        with pytest.raises(ParseError) as info:
            parse_equation(text)
        assert info.value.column == column


def test_rational_spec():
    name, node = parse_rational_spec("z = y/(x+y)")
    assert name == "z"
    with pytest.raises(ParseError):
        parse_rational_spec("z = y'")
    with pytest.raises(ParseError):
        parse_rational_spec("y/(x+y)")
    ctx = Context()
    zname, R = spec_to_ratfunc("z = 1/(1+y)", ctx, ["y"])
    assert zname == "z"
    assert R.num == Poly.const(ctx, 1)


def test_dependent_inference():
    ctx = Context()
    with pytest.raises(ParseError):
        equation_to_ade("diff(y(x),x) = diff(w(x),x)", ctx)


def test_text_render_round_trip():
    ctx = Context()
    ade = weierstrass(ctx)
    text = render(ade, "text")
    assert text.endswith(" = 0")
    ctx2 = Context()
    again = equation_to_ade(text[:-4], ctx2, dep="y")
    assert poly_to_text(again.poly) == poly_to_text(ade.poly)


def test_text_render_is_canonical():
    ctx = Context()
    a = equation_to_ade("y'' - y = 0", ctx, dep="y")
    ctx2 = Context()
    b = equation_to_ade("-y + y'' = 0", ctx2, dep="y")
    assert poly_to_text(a.poly) == poly_to_text(b.poly) == "diff(y(x),x,x) - y(x)"


def test_json_render():
    ctx = Context()
    ade = equation_to_ade("y'' = a*y", ctx, dep="y")
    doc = json.loads(render(ade, "json"))
    assert doc["schema"] == "dalg/1"
    assert doc["dep"] == "y"
    assert doc["order"] == 2
    # total degree of the polynomial; the a*y term counts the parameter
    assert doc["degree"] == 2
    coeffs = {c["coeff"] for c in doc["terms"]}
    assert coeffs <= {"1", "-1"}
    orders = {f["order"] for t in doc["terms"] for f in t["monomial"]
              if "order" in f}
    assert orders == {0, 2}


def _typed_terms(p):
    return [(mono, type(c), c) for mono, c in p.terms.items()]


def _outcome(fn):
    """fn()'s result, or the type and message of the dalg error it raises."""
    try:
        return fn()
    except DalgError as exc:
        return type(exc), str(exc)


LEAVES = ["0", "1", "2", "3", "x", "y", "a", "b", "y'", "diff(y(x),x)", "w(x)", "w"]


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(LEAVES)
    kind = rng.randrange(7)
    if kind == 0:
        return f"-{_random_expr(rng, depth - 1)}"
    if kind == 1:
        return f"({_random_expr(rng, depth - 1)})^{rng.randrange(4)}"
    left, right = _random_expr(rng, depth - 1), _random_expr(rng, depth - 1)
    if rng.random() < 0.5:
        left, right = f"({left})", f"({right})"
    return f"{left}{'+-*//'[kind - 2]}{right}"   # '/' twice as often


LOWERING_CASES = ["y/2 + x/3", "(y^2-1)/(y-1)", "1/(1/y)", "-(a/b)", "(y/x)^3", "0^0",
                  "y/(1/2) - x/3*a", "(y^2-1)/(y-1) + x", "y/(x-x)", "y/0", "(1/y)/0",
                  "w(x)/(y+1) - w/(2*b)"]


def test_lowering_matches_ratfunc_at_every_node():
    # the Poly lowering against tests/conftest.py's RatFunc at every node:
    # the same num and den term for term (order and coefficient type
    # included), the same variables registered in the same order, the same
    # tree walk, and the same error; then the same equation through
    # equation_to_ade, whose sides are subtracted as Polys when both are
    rng = random.Random(23)
    texts = LOWERING_CASES + [_random_expr(rng, rng.randint(1, 4)) for _ in range(400)]
    kinds = set()
    for text in texts:
        node = parse_equation(text).lhs
        assert [id(n) for n in _walk(node)] == [id(n) for n in reference_walk(node)], text
        assert applied_names(node) == list(dict.fromkeys(
            n.name for n in reference_walk(node) if isinstance(n, Applied))), text
        ctx1, ctx2 = Context(), Context()
        got = _outcome(lambda: lower(node, ctx1, ["y"]))
        want = _outcome(lambda: reference_lower(node, ctx2, ["y"]))
        assert ctx1.variables == ctx2.variables, text
        if isinstance(want, tuple):
            assert got == want, text
            kinds.add(want[0])
            continue
        kinds.add(type(got))
        got = RatFunc.of(got)
        assert _typed_terms(got.num) == _typed_terms(want.num), text
        assert _typed_terms(got.den) == _typed_terms(want.den), text
    assert kinds >= {Poly, RatFunc, DivisionByZeroError}

    for _ in range(200):
        text = f"{_random_expr(rng, 3)} = {_random_expr(rng, 3)}"
        node = parse_equation(text)
        ctx1, ctx2 = Context(), Context()
        got = _outcome(lambda: equation_to_ade(node, ctx1, dep="y", extra_deps=["y"]))
        deps = {n.name for n in reference_walk(node) if isinstance(n, Applied)}

        def reference():
            lhs = reference_lower(node.lhs, ctx2, deps | {"y"})
            rhs = reference_lower(node.rhs, ctx2, deps | {"y"})
            return normalize_ade((lhs - rhs).num, dep=ctx2.indeterminate("y"))

        want = _outcome(reference)
        if isinstance(want, tuple):
            assert got == want, text
        else:
            assert _typed_terms(got.poly) == _typed_terms(want.poly), text
            assert (got.order, got.leader, got.leader_degree) == \
                (want.order, want.leader, want.leader_degree), text


def test_lowering_stays_polynomial_until_a_division_by_a_non_constant():
    ctx = Context()
    p = lower(parse_equation("y/2 + x/3").lhs, ctx, ["y"])
    assert type(p) is Poly
    assert sorted(p.terms.values()) == [Fraction(1, 3), Fraction(1, 2)]
    q = lower(parse_equation("(y^2-1)/(y-1)").lhs, ctx, ["y"])
    assert type(q) is RatFunc and q.den == Poly.const(ctx, 1)
    assert lower(parse_equation("0^0").lhs, ctx) == Poly.const(ctx, 1)
    with pytest.raises(DivisionByZeroError):
        lower(parse_equation("y/0").lhs, ctx, ["y"])
    with pytest.raises(DivisionByZeroError):
        equation_to_ade("y' = y/0", Context())
