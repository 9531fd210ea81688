"""Groebner bases: cross-checks against an independent implementation,
confluence, determinism, elimination, certificates, and resource caps."""

from fractions import Fraction

import pytest
import sympy

from dalg import Context, GBConfig, Poly, groebner
from dalg.errors import ArgumentError, ResourceCapError
from dalg.groebner import (IdealBasis, _Kernel, _substitute_solved, _to_saturate,
                           buchberger, eliminate, elimination_order)
from dalg.orders import Block, GrevLex, Lex, MonomialOrder
from dalg.poly import try_exact_divide

from conftest import (buchberger_with_certificates, make_rng, mono_divides,
                      proportional, rabinowitsch_eliminate, random_poly, reduce)


def fresh_vars(n=4):
    ctx = Context()
    y = ctx.indeterminate("y")
    vs = [ctx.diff_var(y, i) for i in range(n - 1)] + [ctx.indep]
    return ctx, vs


def to_sympy(p, vs, syms):
    expr = 0
    table = {v.index: s for v, s in zip(vs, syms)}
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for idx, e in mono:
            term *= table[idx] ** e
        expr += term
    return sympy.expand(expr)


def from_sympy(expr, ctx, vs, syms):
    table = {s: v for v, s in zip(vs, syms)}
    poly = sympy.Poly(expr, *syms)
    terms = {}
    for mono, c in poly.terms():
        m = tuple(sorted((vs[i].index, e) for i, e in enumerate(mono) if e))
        terms[m] = Fraction(int(sympy.numer(c)), int(sympy.denom(c)))
    return Poly(ctx, terms)


def sympy_basis(exprs, ctx, vs, syms, order):
    """A sympy basis as Polys, sorted by leading monomial under order."""
    converted = [from_sympy(e, ctx, vs, syms) for e in exprs]
    return sorted(converted, key=lambda p: order.key(p.leading(order)[0]))


def test_groebner_matches_sympy_random():
    # criterion 9: 20 random ideals in <= 4 variables, degree <= 3,
    # [DERIVED] reduced bases cross-checked against sympy.groebner
    rng = make_rng(2024)
    for trial in range(20):
        ctx, vs = fresh_vars(4)
        syms = sympy.symbols("s0 s1 s2 s3")
        gens = []
        while len(gens) < rng.randint(2, 3):
            p = random_poly(ctx, vs, rng, max_terms=3, max_deg=3)
            if not p.is_zero():
                gens.append(p)
        order = GrevLex(vs)
        mine = buchberger(gens, order)
        theirs = sympy.groebner([to_sympy(g, vs, syms) for g in gens],
                                *syms, order="grevlex")
        converted = sympy_basis(theirs.exprs, ctx, vs, syms, order)
        assert len(mine.generators) == len(converted), f"trial {trial}"
        for a, b in zip(mine.generators, converted):
            assert proportional(a, b), f"trial {trial}"


def test_groebner_lex_and_nested_blocks_match_sympy():
    # lex, and the same order written as nested single-variable blocks,
    # pack their rows differently; both must give sympy's lex basis
    rng = make_rng(2025)
    nontrivial = 0
    for trial in range(20):
        ctx, vs = fresh_vars(4)
        syms = sympy.symbols("s0 s1 s2 s3")
        gens = []
        while len(gens) < 2:
            p = random_poly(ctx, vs, rng, max_terms=3, max_deg=3)
            if not p.is_zero():
                gens.append(p)
        theirs = sympy.groebner([to_sympy(g, vs, syms) for g in gens],
                                *syms, order="lex")
        nested = Block(GrevLex(vs[:1]),
                       Block(GrevLex(vs[1:2]), Block(GrevLex(vs[2:3]), GrevLex(vs[3:]))))
        for order in (Lex(vs), nested):
            mine = buchberger(gens, order)
            converted = sympy_basis(theirs.exprs, ctx, vs, syms, order)
            assert len(mine.generators) == len(converted), f"trial {trial}"
            for a, b in zip(mine.generators, converted):
                assert proportional(a, b), f"trial {trial}"
        nontrivial += len(theirs.exprs) > 1
    assert nontrivial >= 10


def test_eliminate_matches_sympy():
    # the keep-only part of the block-order basis is the reduced grevlex
    # basis of the elimination ideal: sympy's lex basis, cut to the kept
    # variables and reduced again under grevlex
    rng = make_rng(77)
    nontrivial = 0
    for trial in range(20):
        ctx, vs = fresh_vars(4)
        syms = sympy.symbols("s0 s1 s2 s3")
        n_elim = 1 + trial % 2
        gens = []
        while len(gens) < n_elim + 1:
            p = random_poly(ctx, vs, rng, max_terms=3, max_deg=3)
            if not p.is_zero():
                gens.append(p)
        kept = eliminate(gens, set(vs[:n_elim]), set(vs[n_elim:]))
        lex = sympy.groebner([to_sympy(g, vs, syms) for g in gens],
                             *syms, order="lex")
        keep_syms = syms[n_elim:]
        cut = [e for e in lex.exprs if e.free_symbols <= set(keep_syms)]
        ref = sympy.groebner(cut, *keep_syms, order="grevlex").exprs if cut else []
        # the keep block is grevlex in rank order, which matches keep_syms
        order = GrevLex(sorted(vs[n_elim:], key=ctx.rank_key))
        converted = sympy_basis(ref, ctx, vs, syms, order)
        assert len(kept) == len(converted), f"trial {trial}"
        for a, b in zip(kept, converted):
            assert proportional(a, b), f"trial {trial}"
        nontrivial += any(not g.is_constant() for g in kept)
    assert nontrivial >= 10


def test_exponent_overflow_never_gives_a_wrong_basis():
    # An exponent field holds values below 2**bits with 2**bits > 2 *
    # max_degree (127 at the default cap of 60).  Whatever the cap, a
    # monomial that does not fit must raise, not wrap into the next field.
    ctx, vs = fresh_vars(3)
    a, b, c = (Poly.var(ctx, v) for v in vs)
    syms = sympy.symbols("s0 s1 s2")
    grevlex = GrevLex(vs)
    cases = []
    for gens in ([a ** 130 - b * c, b ** 2 - a * c],
                 [a ** 40 * b - c ** 3, b ** 45 - a ** 2, a * c ** 2 - b]):
        theirs = sympy.groebner([to_sympy(g, vs, syms) for g in gens],
                                *syms, order="grevlex")
        cases.append((gens, grevlex, sympy_basis(theirs.exprs, ctx, vs, syms, grevlex)))
    # Under an elimination order the normal form of the input a^8 - c
    # reduces by a - b^9 first and walks through b^9 a^7, b^18 a^6, ...,
    # b^72 before b^9 - b^7 (the normal form of a - b^7) brings it back to
    # degree 8.  The basis stays under every cap tried, but b^72 overflows
    # the fields of the small caps.  The reference basis is checked against
    # the independent rational-arithmetic Buchberger.
    block = Block(GrevLex(vs[:1]), GrevLex(vs[1:]))
    gens = [a - b ** 9, a - b ** 7, a ** 8 - c]
    expected = buchberger(gens, block, GBConfig(max_degree=400))
    independent = IdealBasis(buchberger_with_certificates(gens, block)[0], block)
    assert all(reduce(g, independent).is_zero() for g in expected.generators)
    assert all(reduce(g, expected).is_zero() for g in independent.generators)
    assert max(g.total_degree() for g in expected.generators) <= 8
    cases.append((gens, block, expected.generators))
    for gens, order, expected in cases:
        outcomes = []
        for cap in (3, 10, 40, 60, 64, 100, 130, 400):
            try:
                mine = buchberger(gens, order, GBConfig(max_degree=cap))
            except ResourceCapError:
                outcomes.append("cap")
                continue
            assert len(mine.generators) == len(expected), f"cap {cap}"
            for p, q in zip(mine.generators, expected):
                assert proportional(p, q), f"cap {cap}"
            outcomes.append("ok")
        assert outcomes[-1] == "ok"
        assert outcomes[0] == "cap"


def test_confluence_random_combinations():
    # every ideal element must reduce to zero modulo the basis
    rng = make_rng(31)
    ctx, vs = fresh_vars(4)
    gens = [random_poly(ctx, vs, rng, max_terms=3, max_deg=3) for _ in range(3)]
    gens = [g for g in gens if not g.is_zero()]
    basis = buchberger(gens, GrevLex(vs))
    for _ in range(25):
        combo = Poly(ctx)
        for g in gens:
            combo = combo + random_poly(ctx, vs, rng, max_terms=2, max_deg=2) * g
        assert reduce(combo, basis).is_zero()


def test_reduce_is_normal_form():
    ctx, vs = fresh_vars(3)
    order = GrevLex(vs)
    gens = [Poly.var(ctx, vs[0], 2) - Poly.var(ctx, vs[1]),
            Poly.var(ctx, vs[1], 2) - Poly.var(ctx, vs[2])]
    basis = buchberger(gens, order)
    f = Poly.var(ctx, vs[0], 5)
    r = reduce(f, basis)
    # remainder has no term divisible by a leading monomial
    lms = [g.leading(order)[0] for g in basis.generators]
    for m in r.terms:
        assert not any(mono_divides(lm, m) for lm in lms)
    # f - r is in the ideal
    assert reduce(f - r, basis).is_zero()


def test_determinism():
    rng1, rng2 = make_rng(9), make_rng(9)
    ctx1, vs1 = fresh_vars(4)
    ctx2, vs2 = fresh_vars(4)
    gens1 = [random_poly(ctx1, vs1, rng1, 4, 3) for _ in range(3)]
    gens2 = [random_poly(ctx2, vs2, rng2, 4, 3) for _ in range(3)]
    b1 = buchberger([g for g in gens1 if not g.is_zero()], GrevLex(vs1))
    b2 = buchberger([g for g in gens2 if not g.is_zero()], GrevLex(vs2))
    assert [p.terms for p in b1.generators] == [p.terms for p in b2.generators]


def test_unit_ideal():
    ctx, vs = fresh_vars(2)
    one = Poly.const(ctx, 1)
    basis = buchberger([Poly.var(ctx, vs[0]), one], GrevLex(vs))
    assert [g for g in basis.generators] == [one]


def test_one_generator_skips_the_kernel(monkeypatch):
    # one nonzero generator is its own reduced basis: buchberger returns it
    # without building a kernel, term for term, in the same order and with
    # the same coefficient types as the kernel path, reached here by
    # listing the generator twice; under GrevLex, Lex and block orders,
    # with keep_vars that keep it or drop it, and with the same degree cap
    import dalg.groebner as groebner
    kernels = []
    real_kernel = groebner._Kernel

    def counting_kernel(*args):
        kernels.append(args)
        return real_kernel(*args)

    monkeypatch.setattr(groebner, "_Kernel", counting_kernel)
    rng = make_rng(37)

    def typed(basis):
        return [[(m, type(c), c) for m, c in g.terms.items()] for g in basis.generators]

    kept = dropped = 0
    for trial in range(36):
        ctx, vs = fresh_vars(4)
        shuffled = rng.sample(vs, len(vs))
        order = (GrevLex(shuffled), Lex(shuffled),
                 elimination_order(ctx, shuffled[:2], shuffled[2:]))[trial % 3]
        keep = set(shuffled[2:]) if trial % 6 == 5 else None
        # every other generator under keep_vars lies in the kept variables
        over = shuffled[2:] if trial % 12 == 11 else vs
        g = random_poly(ctx, over, rng, max_terms=5, max_deg=4)
        if g.is_zero():
            continue
        del kernels[:]
        single = buchberger([Poly(ctx), g], order, keep_vars=keep)
        assert not kernels
        full = buchberger([g, g], order, keep_vars=keep)
        assert kernels
        assert typed(single) == typed(full), f"trial {trial}"
        if keep is not None:
            kept += bool(single.generators)
            dropped += not single.generators
        cap = GBConfig(max_degree=g.total_degree() - 1)
        for gens in ([g], [g, g]):
            with pytest.raises(ResourceCapError, match=f"exceeded cap {cap.max_degree}$"):
                buchberger(gens, order, cap)
    assert kept and dropped
    # an order whose key ties two monomials of the generator leaves the tie
    # to the kernel
    ctx, vs = fresh_vars(2)
    tie = MonomialOrder([vs])
    g = Poly.var(ctx, vs[0]) - Poly.var(ctx, vs[1])
    del kernels[:]
    assert typed(buchberger([g], tie)) == typed(buchberger([g, g], tie))
    assert kernels
    # a nonzero constant is the unit ideal
    ctx, vs = fresh_vars(2)
    assert buchberger([Poly.const(ctx, Fraction(-2, 3))], GrevLex(vs)).generators == [
        Poly.const(ctx, 1)]


def test_eliminate_is_the_keep_only_part_of_buchberger():
    # eliminate finishes only the minimal elements whose leading monomials
    # are free of the eliminated variables; they are the keep-only elements
    # of the full reduced basis, term for term and in the same order, under
    # any order of the eliminated block (some of these draws leave kept
    # elements whose tails the pair loop did not reduce)
    rng = make_rng(5)
    nontrivial = 0
    for trial in range(30):
        ctx, vs = fresh_vars(4 + trial % 3)
        n_elim = 1 + trial % 3
        shuffled = rng.sample(vs, len(vs))
        elim, keep = set(shuffled[:n_elim]), set(shuffled[n_elim:])
        first = rng.sample(shuffled[:n_elim], rng.randint(0, n_elim))
        gens = []
        while len(gens) < n_elim + 2:
            p = random_poly(ctx, vs, rng, max_terms=4, max_deg=3)
            if not p.is_zero():
                gens.append(p)
        full = buchberger(gens, elimination_order(ctx, elim, keep, first))
        expect = [g for g in full.generators if g.variables() <= keep]
        assert eliminate(gens, elim, keep) == expect, f"trial {trial}"
        nontrivial += any(not g.is_constant() for g in expect)
    assert nontrivial >= 10
    # the unit ideal keeps [1]; an ideal that meets the keep block only in
    # zero keeps nothing
    ctx, (u, v, a, x) = fresh_vars(4)
    U, V, A = (Poly.var(ctx, w) for w in (u, v, a))
    one = Poly.const(ctx, 1)
    assert eliminate([U * A - one, U], {u}, {a, x}) == [one]
    assert eliminate([U * V - A, V - U * U], {u, v}, {a, x}) == []


def test_eliminate_substitutes_solved_variables():
    # planted generators c*v + r with v eliminated, c a nonzero constant and
    # v not in r: eliminate substitutes v = -r/c before Buchberger runs,
    # which leaves the elimination ideal and its reduced basis unchanged, so
    # it returns the keep-only elements of the full reduced basis of the
    # unsubstituted system, term for term and in the same order
    rng = make_rng(19)
    ctx, vs = fresh_vars(6)
    one = Poly.const(ctx, 1)

    def var(v):
        return Poly.var(ctx, v)

    def draw(over, terms=3):
        return random_poly(ctx, over, rng, max_terms=terms, max_deg=2)

    def check(gens, elim, keep, first=(), planted=()):
        full = buchberger(gens, elimination_order(ctx, elim, keep, first))
        expect = [g for g in full.generators if g.variables() <= keep]
        assert eliminate(gens, elim, keep) == expect
        assert set(planted) <= _substitute_solved(gens, elim)[2]
        return expect

    nontrivial = 0
    for trial in range(24):
        kind = trial % 4
        shuffled = rng.sample(vs, len(vs))
        n_elim = 3 if kind == 2 else 2 + trial // 4 % 2
        elim, keep = shuffled[:n_elim], shuffled[n_elim:]
        v, u = elim[0], elim[1]
        c = rng.choice([1, -1, 2, -3, Fraction(2, 3)])
        if kind == 0:
            # unit and non-unit constant coefficients
            gens = [var(v).scale(c) + draw(keep), draw(vs), draw(vs)]
            planted = [v]
        elif kind == 1:
            # a chain: substituting v makes u's coefficient the constant c
            x = keep[0]
            gens = [var(v) - var(x) - one.scale(c),
                    (var(v) - var(x)) * var(u) + draw([v, *keep]),
                    draw([u, *keep])]
            planted = [v, u]
        elif kind == 2:
            # a saturation variable w (led by first) whose factor v - x
            # becomes the constant c; given as a factor to saturate by, it
            # is rewritten the same way and dropped
            x, w = keep[0], elim[-1]
            rest = [var(v).scale(2) - var(x).scale(2) - one.scale(2 * c),
                    draw([v, u, *keep]), draw([u, *keep])]
            gens = [var(w) * (var(v) - var(x)) - one, *rest]
            expect = check(gens, set(elim), set(keep), first=[w], planted=[v, w])
            assert eliminate(rest, set(elim) - {w}, set(keep),
                             saturate=[var(v) - var(x)]) == expect
            continue
        else:
            # v, then u, substituted into the remaining draws
            gens = [var(v) - draw(keep), var(u).scale(c) - draw([v, *keep]),
                    draw(vs, 4), draw(vs)]
            planted = [v, u]
        expect = check(gens, set(elim), set(keep), planted=planted)
        nontrivial += any(not g.is_constant() for g in expect)
    assert nontrivial >= 6
    # a system that substitution consumes entirely: the zero elimination
    # ideal; and one that collapses to a nonzero constant: the unit ideal
    y, y1, y2, x = vs[0], vs[1], vs[2], vs[-1]
    r = var(x) * var(x) - one.scale(3)
    consumed = [var(y) - r, var(y1).scale(3) - var(y) * var(x) + one]
    assert check(consumed, {y, y1}, {y2, x}, planted=[y, y1]) == []
    collapsed = [var(y) - r, var(y) - r - one.scale(5), var(y1) * var(y2) - var(x)]
    assert check(collapsed, {y, y1}, {y2, x}, planted=[y]) == [one]


def test_eliminate_edge_inputs():
    ctx, (u, v, a, x) = fresh_vars(4)
    U, V, A = (Poly.var(ctx, w) for w in (u, v, a))
    with pytest.raises(ArgumentError, match="empty generator list"):
        eliminate([], {u}, {a})
    with pytest.raises(ArgumentError, match="all generators are zero"):
        eliminate([Poly(ctx), Poly(ctx)], {u}, {a})
    # v = a*x, then u = v + 1: nothing is left, and the elimination ideal
    # is zero
    assert eliminate([V - A * Poly.var(ctx, x), U - V - Poly.const(ctx, 1)],
                     {u, v}, {a, x}) == []


def test_certified_eliminate_matches_rabinowitsch_on_random_systems(monkeypatch):
    # eliminate drops a factor only where it certifies it as a
    # non-zero-divisor modulo I, so it returns the Rabinowitsch reference's
    # basis term for term: on generic draws, where a factor divides a
    # generator (a zero divisor, unless it is a unit modulo I), and where
    # I = (x*f, x*g, h) is not a complete intersection
    rng = make_rng(23)
    seen = {"certified": 0, "kept": 0, "saturation changes the output": 0}
    real = groebner._to_saturate

    def spy(gens, factors, config):
        kept = real(gens, factors, config)
        seen["certified"] += len(factors) - len(kept)
        seen["kept"] += len(kept)
        return kept

    monkeypatch.setattr(groebner, "_to_saturate", spy)
    for trial in range(36):
        ctx, vs = fresh_vars(5)
        shuffled = rng.sample(vs, len(vs))
        elim, keep = set(shuffled[:2]), set(shuffled[2:])

        def draw():
            while (p := random_poly(ctx, vs, rng, max_terms=3, max_deg=2)).is_constant():
                pass
            return p

        hs = [draw() for _ in range(1 + trial % 2)]
        if trial % 3 == 0:
            gens = [draw(), draw(), draw()]
        elif trial % 3 == 1:
            gens = [draw() * hs[0], draw(), draw()]
        else:
            x = Poly.var(ctx, shuffled[rng.randrange(5)])
            gens = [x * draw(), x * draw(), draw()]
        expect = rabinowitsch_eliminate(gens, elim, keep, hs)
        assert eliminate(gens, elim, keep, saturate=hs) == expect, f"trial {trial}"
        seen["saturation changes the output"] += eliminate(gens, elim, keep) != expect
    assert min(seen.values()) >= 5, seen


def test_certificate_refuses_a_zero_divisor_of_a_non_complete_intersection():
    # I = (x^2, x*y) = (x) cap (x^2, y) is not a complete intersection, and
    # y is a zero divisor on it: y*x is in I, x is not.  I + (y) has
    # codimension 2, no more than the 2 generators, so y is not certified,
    # and saturating by it leaves (x).  x - 1 is a unit modulo the radical
    # (x), hence a non-zero-divisor, and I + (x - 1) is the unit ideal
    # (codimension above any m): certified, though I is still no complete
    # intersection
    ctx, (u, v, x_, _) = fresh_vars(4)
    x, y, one = Poly.var(ctx, u), Poly.var(ctx, v), Poly.const(ctx, 1)
    gens = [x * x, x * y]
    assert _to_saturate(gens, [y, x - one], GBConfig()) == [y]
    assert eliminate(gens, set(), {u, v}, saturate=[y]) == [x]
    assert eliminate(gens, set(), {u, v}, saturate=[x - one]) == [x * x, x * y]
    for h in (y, x - one):
        assert eliminate(gens, set(), {u, v}, saturate=[h]) == \
            rabinowitsch_eliminate(gens, set(), {u, v}, [h])
    # a factor that vanishes modulo I after substitution saturates to the
    # unit ideal; a cap hit in a certificate run keeps every factor
    w = Poly.var(ctx, x_)
    assert eliminate([w - x, x * y], {x_}, {u, v}, saturate=[w - x]) == [one]
    parabola, h = [x * x - y], y + one
    assert _to_saturate(parabola, [h], GBConfig()) == []
    assert _to_saturate(parabola, [h], GBConfig(max_degree=1)) == [h]


def test_elimination_hand_example():
    # [DERIVED] eliminating u from {u^2 - a, u^3 - b} leaves a^3 - b^2
    ctx = Context()
    y = ctx.indeterminate("y")
    u = ctx.diff_var(y, 0)
    a, b = ctx.param("a"), ctx.param("b")
    gens = [Poly.var(ctx, u, 2) - Poly.var(ctx, a),
            Poly.var(ctx, u, 3) - Poly.var(ctx, b)]
    kept = eliminate(gens, {u}, {a, b})
    expect = Poly.var(ctx, a, 3) - Poly.var(ctx, b, 2)
    assert len(kept) == 1
    assert proportional(kept[0], expect)


def test_eliminate_validates_partition():
    ctx = Context()
    y = ctx.indeterminate("y")
    u = ctx.diff_var(y, 0)
    a = ctx.param("a")
    gens = [Poly.var(ctx, u) - Poly.var(ctx, a)]
    with pytest.raises(ArgumentError):
        eliminate(gens, {u, a}, {a})
    with pytest.raises(ArgumentError):
        eliminate(gens, {u}, set())
    # the factors to saturate by are covered by the partition too
    with pytest.raises(ArgumentError):
        eliminate(gens, {u}, {a}, saturate=[Poly.var(ctx, ctx.param("b"))])


def test_certificates():
    ctx, vs = fresh_vars(3)
    order = GrevLex(vs)
    gens = [Poly.var(ctx, vs[0], 2) - Poly.var(ctx, vs[1]),
            Poly.var(ctx, vs[0]) * Poly.var(ctx, vs[1]) - Poly.var(ctx, vs[2])]
    basis, certs = buchberger_with_certificates(gens, order)
    assert basis
    for g, cert in zip(basis, certs):
        acc = Poly(ctx)
        for c, gen in zip(cert, gens):
            acc = acc + c * gen
        assert acc == g


def test_resource_caps():
    ctx, vs = fresh_vars(4)
    rng = make_rng(8)
    gens = [random_poly(ctx, vs, rng, 5, 3) for _ in range(3)]
    with pytest.raises(ResourceCapError):
        buchberger(gens, GrevLex(vs), GBConfig(max_degree=4, max_basis=5000))
    with pytest.raises(ResourceCapError):
        buchberger(gens, GrevLex(vs), GBConfig(max_degree=60, max_basis=4))


def test_elimination_order_blocks():
    ctx = Context()
    y = ctx.indeterminate("y")
    u = ctx.diff_var(y, 0)
    a = ctx.param("a")
    order = elimination_order(ctx, {u}, {a, ctx.indep})
    # u dominates any keep-only monomial
    assert order.key(((u.index, 1),)) > order.key(((a.index, 9),))


def test_kernel_product_and_exact_quotient():
    # after decode, the packed product is Poly.__mul__ and the packed exact
    # quotient is try_exact_divide, down to a divisor whose leading
    # coefficient is a Fraction or negative; a divisor that does not divide
    # is reported as None, never as a quotient
    ctx, vs = fresh_vars(4)
    rng = make_rng(17)
    K = _Kernel(GrevLex(vs), 12, vs)

    def packed(p):
        return K.sort(K.encode(p))

    def unpacked(p):
        return Poly(ctx, dict(zip(map(K.decode, p[0]), p[1])))

    leads = [Fraction(-3, 4), Fraction(5, 2), -2, -1, 1, 3]
    misses = 0
    for trial in range(60):
        f = random_poly(ctx, vs, rng, max_terms=4, max_deg=3)
        g = random_poly(ctx, vs, rng, max_terms=3, max_deg=2 if trial % 4 else 0)
        if g.is_zero():
            continue
        g = g.scale(Fraction(leads[trial % len(leads)]) / packed(g)[1][0])
        assert unpacked(K.sort(K.product(packed(f), packed(g)))) == f * g
        h = f * g
        if trial % 3 == 0:
            h = h + random_poly(ctx, vs, rng, max_terms=2, max_deg=3)
        want = try_exact_divide(h, g)
        got = K.quotient(K.encode(h), packed(g))
        if want is None:
            assert got is None
            misses += 1
        else:
            assert unpacked(got) == want
    assert misses > 0


def test_kernel_sort_applies_its_modulus():
    # with a modulus q, sort returns residues mod q and drops every term
    # that is 0 mod q; without one it drops only the terms that cancelled
    # to 0 and keeps every coefficient, Fractions too, as it is
    ctx, vs = fresh_vars(2)
    a, b = vs
    q = 7
    K, Kq = _Kernel(GrevLex(vs), 12, vs), _Kernel(GrevLex(vs), 12, vs, q)
    assert Kq.unit == K.unit
    ua, ub = K.unit[a.index], K.unit[b.index]
    terms = {2 * ua: 14, ua + ub: 21, ua: 15, ub: -3, 0: 0, 2 * ub: Fraction(1, 2)}
    monos = sorted([2 * ua, ua + ub, ua, ub, 2 * ub], reverse=True)
    assert K.sort(dict(terms)) == (monos, [terms[m] for m in monos])
    del terms[2 * ub]
    kept = [m for m in monos if m in (ua, ub)]
    assert Kq.sort(dict(terms)) == (kept, [{ua: 1, ub: 4}[m] for m in kept])
    assert Kq.sort({ua: q, ub: -q}) == ([], [])
    assert K.sort({ua: q, ub: 0}) == ([ua], [q])


def test_kernel_product_overflow_boundary():
    # under a graded order the leading monomials' degrees decide: a product
    # whose degree reaches 2**bits overflows a field and raises, one of
    # degree 2**bits - 1 fits, whatever the lower terms
    ctx, vs = fresh_vars(3)
    a, b, x = vs
    K = _Kernel(GrevLex(vs), 7, vs)
    top = K.mask + 1        # 2**bits

    def packed(p):
        return K.sort(K.encode(p))

    def mono(e):
        # a monomial of degree e over all three variables
        return Poly.var(ctx, a, e // 3) * Poly.var(ctx, b, e // 3) * Poly.var(ctx, x, e - 2 * (e // 3))

    f = packed(mono(top // 2) + Poly.var(ctx, x))
    for g, fits in [(mono(top // 2 - 1) + Poly.const(ctx, 3), True),
                    (mono(top // 2) - Poly.var(ctx, a, 2), False)]:
        g = packed(g)
        assert K.degree(f[0][0]) + K.degree(g[0][0]) == top - fits
        if fits:
            out = K.product(f, g)
            assert max(map(K.degree, out)) == top - 1
        else:
            with pytest.raises(ResourceCapError):
                K.product(f, g)
    # an empty factor makes an empty product, with nothing to check
    assert K.product(f, ([], [])) == {}
