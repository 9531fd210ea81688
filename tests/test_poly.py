"""Polynomial ring basics: monomial helpers, arithmetic, pseudo-division,
content normalization, exact division, and gcd."""

from fractions import Fraction

import pytest
import sympy

import dalg.poly
from dalg import (Context, Poly, RatFunc, ansatz_search, equation_to_ade, pseudo_divide,
                  spec_to_ratfunc)
from dalg.ansatz import _Packing
from dalg.errors import ArgumentError
from dalg.groebner import buchberger
from dalg.orders import GrevLex
from dalg.poly import (content_primitive, exact_div, mono_degree, mono_div,
                       mono_mul, over_lcm, poly_gcd, primitive_part,
                       substitute_fractions, try_exact_divide)

from conftest import (make_rng, mono_divides, mono_lcm, random_poly,
                      weierstrass)


def setup_vars():
    ctx = Context()
    y = ctx.indeterminate("y")
    xs = [ctx.indep, ctx.diff_var(y, 0), ctx.diff_var(y, 1), ctx.param("a")]
    return ctx, xs


def test_mono_helpers():
    # [TRIVIAL] hand-checked exponent arithmetic
    a = ((0, 2), (1, 1))
    b = ((1, 1), (2, 3))
    assert mono_mul(a, b) == ((0, 2), (1, 2), (2, 3))
    assert mono_div(mono_mul(a, b), b) == a
    assert mono_div(a, b) is None
    assert mono_divides(a, mono_mul(a, b))
    assert not mono_divides(b, a)
    assert mono_lcm(a, b) == ((0, 2), (1, 1), (2, 3))
    assert mono_degree(a) == 3
    assert mono_mul((), a) == a


def test_ring_axioms_random():
    ctx, xs = setup_vars()
    rng = make_rng(101)
    for _ in range(200):
        f = random_poly(ctx, xs, rng)
        g = random_poly(ctx, xs, rng)
        h = random_poly(ctx, xs, rng)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert f - f == Poly(ctx)
        assert f * Poly.const(ctx, 1) == f
        assert f * Poly(ctx) == Poly(ctx)


def test_pow_and_scale():
    ctx, xs = setup_vars()
    x = Poly.var(ctx, ctx.indep)
    p = x + Poly.const(ctx, 1)
    # [TRIVIAL] (x+1)^3 = x^3 + 3x^2 + 3x + 1
    cube = p ** 3
    assert cube.coeff_in(ctx.indep, 2) == Poly.const(ctx, 3)
    assert cube.total_degree() == 3
    assert p ** 0 == Poly.const(ctx, 1)
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p


def test_degree_views():
    ctx, xs = setup_vars()
    y0 = xs[1]
    p = Poly.var(ctx, ctx.indep, 2) * Poly.var(ctx, y0) + Poly.const(ctx, 5)
    assert p.degree(ctx.indep) == 2
    assert p.degree(y0) == 1
    assert p.total_degree() == 3
    assert p.num_terms() == 2
    uni = p.as_univariate(y0)
    assert uni[0] == Poly.const(ctx, 5)
    assert uni[1] == Poly.var(ctx, ctx.indep, 2)
    assert p.coeff_in(y0, 1) == Poly.var(ctx, ctx.indep, 2)


def test_partial_derivative():
    ctx, xs = setup_vars()
    x, y0 = ctx.indep, xs[1]
    p = Poly.var(ctx, x, 3) * Poly.var(ctx, y0, 2) + Poly.var(ctx, x)
    # [TRIVIAL] d/dx (x^3 y^2 + x) = 3x^2 y^2 + 1
    dx = p.partial_derivative(x)
    assert dx == (Poly.var(ctx, x, 2) * Poly.var(ctx, y0, 2)).scale(3) + Poly.const(ctx, 1)
    # [TRIVIAL] d/dy (x^3 y^2 + x) = 2 x^3 y
    dy = p.partial_derivative(y0)
    assert dy == (Poly.var(ctx, x, 3) * Poly.var(ctx, y0)).scale(2)


def test_substitute():
    ctx, xs = setup_vars()
    x, y0 = ctx.indep, xs[1]
    p = Poly.var(ctx, y0, 2) + Poly.var(ctx, x)
    q = p.substitute({y0: Poly.var(ctx, x) + Poly.const(ctx, 1)})
    # [TRIVIAL] y -> x+1 in y^2 + x gives x^2 + 3x + 1
    expect = (Poly.var(ctx, x, 2) + Poly.var(ctx, x).scale(3)
              + Poly.const(ctx, 1))
    assert q == expect


def test_substitute_fractions_unit_path_matches_general_path():
    # with every denominator 1, substitute_fractions sums the products of
    # the grouped terms and takes no lcm; the same values over a constant
    # or a polynomial denominator (n*c over c, n*h over h) go through
    # over_lcm, which must give the same quotient
    ctx, xs = setup_vars()
    rng = make_rng(91)
    one = Poly.const(ctx, 1)
    for _ in range(60):
        p = random_poly(ctx, xs, rng)
        values = {v.index: random_poly(ctx, xs, rng, max_terms=3, max_deg=2)
                  for v in rng.sample(xs, rng.randint(1, 3))}
        num, den = substitute_fractions(p, {i: (n, one) for i, n in values.items()})
        assert den == one and _canonical(num)
        assert _ref(num) == _ref_substitute(_ref(p), {i: _ref(n) for i, n in values.items()})
        c = Poly.const(ctx, rng.choice([2, -3, Fraction(1, 2)]))
        assert substitute_fractions(p, {i: (n * c, c) for i, n in values.items()}) == (num, one)
        h = random_poly(ctx, xs, rng, max_terms=2, max_deg=2) + Poly.var(ctx, xs[0])
        if h.is_zero():
            continue
        general, common = substitute_fractions(p, {i: (n * h, h) for i, n in values.items()})
        assert general == num * common


def test_over_lcm_gcd_fallback(monkeypatch):
    # neither of (x+1)(x+2) and (x+1)(x+3) divides the other, so the lcm
    # grows by a gcd: on Polys and on the packed ring of the ansatz's exact
    # pass, which agree term for term
    ctx = Context()
    y = ctx.indeterminate("y")
    x, y0 = Poly.var(ctx, ctx.indep), Poly.var(ctx, ctx.diff_var(y, 0))
    one = Poly.const(ctx, 1)
    pairs = [(y0, (x + one) * (x + one.scale(2))),
             (x * y0 + one.scale(5), (x + one) * (x + one.scale(3)))]
    gcds = []
    real_gcd = dalg.poly.poly_gcd
    monkeypatch.setattr(dalg.poly, "poly_gcd", lambda f, g: gcds.append(1) or real_gcd(f, g))
    nums, common = over_lcm(pairs, one)
    assert gcds == [1]
    assert common == (x + one) * (x + one.scale(2)) * (x + one.scale(3))
    for n, (num, den) in zip(nums, pairs):
        assert n * den == num * common
    # the second pair added to the first one's result: the same lcm and
    # numerators, as the miss certificate carries them from order to order
    first, first_common = over_lcm(pairs[:1], one)
    assert over_lcm(pairs[1:], first_common, nums=first) == (nums, common)

    ade = equation_to_ade("diff(y(x),x) = y(x)", ctx)
    ring = _Packing([ade], RatFunc(x))
    monkeypatch.setattr(ring, "gcd", lambda f, g: gcds.append(1) or _Packing.gcd(ring, f, g))
    gcds.clear()
    packed, packed_common = over_lcm(
        [(ring.encode(num), ring.encode(den)) for num, den in pairs], ([0], [1]), ring)
    assert gcds == [1]
    assert ring.decode(packed_common).terms == common.terms
    assert [ring.decode(n).terms for n in packed] == [n.terms for n in nums]


def test_pseudo_divide_identity_random():
    # criterion 9 property: lc^power * f == q*g + r with deg_v(r) < deg_v(g)
    ctx, xs = setup_vars()
    rng = make_rng(77)
    leader = xs[2]
    checked = 0
    while checked < 500:
        f = random_poly(ctx, xs, rng, max_terms=6, max_deg=4)
        g = random_poly(ctx, xs, rng, max_terms=4, max_deg=3)
        if g.degree(leader) == 0:
            continue
        q, r, power = pseudo_divide(f, g, leader)
        lc = g.coeff_in(leader, g.degree(leader))
        assert lc ** power * f == q * g + r
        assert r.degree(leader) < g.degree(leader)
        checked += 1


def test_pseudo_divide_rejects_free_divisor():
    ctx, xs = setup_vars()
    with pytest.raises(ArgumentError):
        pseudo_divide(Poly.var(ctx, xs[2]), Poly.const(ctx, 3), xs[2])


def test_content_primitive():
    ctx, xs = setup_vars()
    x = ctx.indep
    p = Poly.var(ctx, x).scale(Fraction(4, 3)) + Poly.const(ctx, Fraction(2, 3))
    c, prim = content_primitive(p)
    # [TRIVIAL] content 2/3, primitive part 2x + 1
    assert c == Fraction(2, 3)
    assert prim == Poly.var(ctx, x).scale(2) + Poly.const(ctx, 1)
    # sign convention: positive leading coefficient
    c2, prim2 = content_primitive(-p)
    assert c2 == -Fraction(2, 3)
    assert prim2 == prim


def test_try_exact_divide():
    ctx, xs = setup_vars()
    x, y0 = ctx.indep, xs[1]
    f = Poly.var(ctx, x, 2) - Poly.var(ctx, y0, 2)
    g = Poly.var(ctx, x) - Poly.var(ctx, y0)
    q = try_exact_divide(f, g)
    assert q == Poly.var(ctx, x) + Poly.var(ctx, y0)
    assert try_exact_divide(g, f) is None
    assert try_exact_divide(Poly(ctx), g) == Poly(ctx)


def test_poly_gcd_basics():
    ctx, xs = setup_vars()
    x, y0 = ctx.indep, xs[1]
    f = Poly.var(ctx, x, 2) - Poly.var(ctx, y0, 2)     # (x-y)(x+y)
    g = (Poly.var(ctx, x) - Poly.var(ctx, y0)) ** 2    # (x-y)^2
    # primitive form has a positive lead under the derivatives-first order
    assert poly_gcd(f, g) == Poly.var(ctx, y0) - Poly.var(ctx, x)
    assert poly_gcd(f, Poly(ctx)) == content_primitive(f)[1]
    assert poly_gcd(Poly(ctx), Poly(ctx)).is_zero()
    assert poly_gcd(f, Poly.const(ctx, 7)) == Poly.const(ctx, 1)


def test_poly_gcd_random():
    # gcd(c*f, c*g) is divisible by the primitive part of c
    ctx, xs = setup_vars()
    rng = make_rng(13)
    for _ in range(60):
        c = random_poly(ctx, xs, rng, max_terms=2, max_deg=2)
        f = random_poly(ctx, xs, rng, max_terms=3, max_deg=2)
        g = random_poly(ctx, xs, rng, max_terms=3, max_deg=2)
        if c.is_zero() or f.is_zero() or g.is_zero():
            continue
        d = poly_gcd(c * f, c * g)
        assert try_exact_divide(c * f, d) is not None
        assert try_exact_divide(c * g, d) is not None
        assert try_exact_divide(d, content_primitive(c)[1]) is not None


def _gcd_pairs(ctx, xs):
    """Pairs (c*f, c*g) in x, y, y' and a parameter whose gcd is c times
    gcd(f, g): c a bare variable, a power of a linear form or y'*(x+y),
    with int and with Fraction coefficients."""
    x, y0, y1, a = (Poly.var(ctx, v) for v in xs)
    # the integer content of an image carries y'*(x+y): an evaluation
    # that drops it finds only part of the gcd
    shared = y1 * (x + y0)
    pairs = [(shared * (x * y1 + y0 ** 2 + 3), shared.scale(2) * (x + y0) ** 3)]
    rng = make_rng(47)
    for i in range(16):
        linear = sum((v.scale(rng.randint(-3, 3)) for v in (x, y0, y1, a)),
                     Poly.const(ctx, rng.randint(-2, 2)))
        for c in (Poly.var(ctx, rng.choice(xs)), linear ** rng.randint(2, 4), shared):
            f = random_poly(ctx, xs, rng, max_terms=4, max_deg=3)
            g = random_poly(ctx, xs, rng, max_terms=4, max_deg=3)
            if f.is_zero() or g.is_zero():
                continue
            if i % 2:
                f, g = primitive_part(f), primitive_part(g)
            pairs.append((c * f, c * g))
    return pairs


def _sympy_gcd(f, g, xs):
    """sympy's gcd of f and g in the variables xs, made primitive with a
    positive lead."""
    syms = sympy.symbols(f"s0:{len(xs)}")
    place = {v.index: i for i, v in enumerate(xs)}

    def to_sympy(p):
        terms = {}
        for mono, c in p.terms.items():
            exps = [0] * len(xs)
            for idx, e in mono:
                exps[place[idx]] = e
            terms[tuple(exps)] = sympy.Rational(c.numerator, c.denominator)
        return sympy.Poly.from_dict(terms, *syms, domain="QQ")

    h = to_sympy(f).gcd(to_sympy(g))
    return primitive_part(Poly(f.ctx, {
        tuple(sorted((xs[i].index, e) for i, e in enumerate(exps) if e)):
            Fraction(int(c.p), int(c.q))
        for exps, c in h.terms()}))


def test_poly_gcd_matches_sympy_and_prs(monkeypatch):
    # [DERIVED] the heuristic gcd, sympy.gcd and the primitive PRS agree
    # term for term on the canonical (primitive, positive lead) gcd
    ctx, xs = setup_vars()
    pairs = _gcd_pairs(ctx, xs)
    ours = [poly_gcd(f, g) for f, g in pairs]
    theirs = [_sympy_gcd(f, g, xs) for f, g in pairs]
    monkeypatch.setattr(dalg.poly, "_heuristic_gcd", lambda f, g: None)
    prs = [poly_gcd(f, g) for f, g in pairs]
    assert ours == theirs
    assert ours == prs
    x, y0, y1 = (Poly.var(ctx, v) for v in xs[:3])
    assert ours[0] == primitive_part(y1 * (x + y0))


def test_float_coefficients_rejected():
    ctx, xs = setup_vars()
    with pytest.raises(ArgumentError):
        Poly(ctx, {(): 0.5})
    with pytest.raises(ArgumentError):
        Poly.const(ctx, 0.1)
    with pytest.raises(ArgumentError):
        Poly.var(ctx, xs[0]).scale(0.5)
    with pytest.raises(ArgumentError):
        Poly.var(ctx, xs[0]) * 0.5


def test_exact_div():
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(-7, 2) == Fraction(-7, 2)
    assert exact_div(Fraction(4, 3), Fraction(2, 3)) == 2
    assert type(exact_div(Fraction(4, 3), Fraction(2, 3))) is int
    assert exact_div(1, Fraction(2, 3)) == Fraction(3, 2)


# -- the coefficient representation: int when integral, else Fraction -------

def _canonical(p) -> bool:
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
               for c in p.terms.values())


def _ref(p) -> dict:
    """Fraction-only copy of p's terms, the reference representation."""
    return {m: Fraction(c) for m, c in p.terms.items()}


def _ref_clean(d) -> dict:
    return {m: c for m, c in d.items() if c}


def _ref_add(a, b, sign=1) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return _ref_clean(out)


def _ref_mul(a, b) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = mono_mul(ma, mb)
            out[m] = out.get(m, Fraction(0)) + ca * cb
    return _ref_clean(out)


def _ref_pow(a, e) -> dict:
    out = {(): Fraction(1)}
    for _ in range(e):
        out = _ref_mul(out, a)
    return out


def _ref_var(v, e=1) -> dict:
    return {((v.index, e),) if e else (): Fraction(1)}


def _ref_substitute(a, bindings) -> dict:
    out: dict = {}
    for m, c in a.items():
        term = {(): c}
        for idx, e in m:
            term = _ref_mul(term, _ref_pow(bindings[idx], e) if idx in bindings
                            else {((idx, e),): Fraction(1)})
        out = _ref_add(out, term)
    return out


def _ref_derivative(a, v) -> dict:
    out: dict = {}
    for m, c in a.items():
        exps = dict(m)
        e = exps.pop(v.index, 0)
        if e > 1:
            exps[v.index] = e - 1
        if e:
            out = _ref_add(out, {tuple(sorted(exps.items())): c * e})
    return out


def _check(result, expected_ref):
    assert _canonical(result), result.terms
    assert _ref(result) == expected_ref


def test_representation_invariant_random():
    # every operation keeps integral coefficients as int and the rest as
    # non-integral Fractions, and agrees with Fraction-only arithmetic
    ctx, xs = setup_vars()
    rng = make_rng(2024)
    x, y0, y1 = xs[0], xs[1], xs[2]
    for _ in range(120):
        f = random_poly(ctx, xs, rng)
        g = random_poly(ctx, xs, rng)
        F, G = _ref(f), _ref(g)
        _check(f, F)
        _check(f + g, _ref_add(F, G))
        _check(f - g, _ref_add(F, G, -1))
        _check(f * g, _ref_mul(F, G))
        _check(f ** 3, _ref_pow(F, 3))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        _check(f.scale(c), _ref_clean({m: v * c for m, v in F.items()}))
        if g.is_zero():
            continue
        _check(try_exact_divide(f * g, g), F)
        if g.degree(y1):
            q, r, power = pseudo_divide(f, g, y1)
            lc = _ref(g.coeff_in(y1, g.degree(y1)))
            assert _canonical(q) and _canonical(r)
            assert _ref_mul(_ref_pow(lc, power), F) == _ref_add(
                _ref_mul(_ref(q), G), _ref(r))
        if not f.is_zero():
            content, prim = content_primitive(f)
            assert type(content) in (int, Fraction) and _canonical(prim)
            assert all(type(v) is int for v in prim.terms.values())
            assert _ref_clean({m: v * content for m, v in _ref(prim).items()}) == F
            d = poly_gcd(f * g, g)
            assert all(type(v) is int for v in d.terms.values())
            assert _ref_mul(_ref(try_exact_divide(g, d)), _ref(d)) == G
        h = Poly.var(ctx, x) + Poly.const(ctx, Fraction(1, 2))
        _check(f.substitute({y0: g, x: h}),
               _ref_substitute(F, {y0.index: G, x.index: _ref(h)}))
        _check(f.partial_derivative(y0), _ref_derivative(F, y0))
        total: dict = {}
        for k, coeff in f.as_univariate(y0).items():
            assert not coeff.has_var(y0) and _canonical(coeff)
            total = _ref_add(total, _ref_mul(_ref(coeff), _ref_var(y0, k)))
        assert total == F


def test_integer_coefficients_end_to_end():
    # criterion 7 at k=3 and a Groebner basis of rational inputs carry only
    # int coefficients
    ctx = Context()
    ade = weierstrass(ctx)
    zname, R = spec_to_ratfunc("z = y/(x+y)", ctx, ["y"])
    out = ansatz_search([ade], R, k=3, z_name=zname)
    assert all(type(c) is int for c in out.poly.terms.values())
    ctx, xs = setup_vars()
    rng = make_rng(5)
    gens = [random_poly(ctx, xs[:3], rng, max_terms=3, max_deg=2) for _ in range(3)]
    assert any(type(c) is Fraction for g in gens for c in g.terms.values())
    basis = buchberger(gens, GrevLex(xs[:3]))
    assert basis.generators
    assert all(type(c) is int for g in basis.generators for c in g.terms.values())
