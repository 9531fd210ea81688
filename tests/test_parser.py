"""Equation parsing, lowering, and canonical rendering round trips."""

import json

import pytest

from dalg import Context, Poly, equation_to_ade, render, spec_to_ratfunc
from dalg.errors import ParseError
from dalg.parser import parse_equation, parse_rational_spec
from dalg.render import poly_to_text

from conftest import proportional, weierstrass


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
