"""Monomial order axioms and the block elimination property."""

from dalg import Block, Context, GrevLex, Lex, default_order
from dalg.poly import mono_mul

from conftest import EQ, GT, LT, make_rng, mono_cmp


def setup_vars():
    ctx = Context()
    y = ctx.indeterminate("y")
    return ctx, [ctx.diff_var(y, 1), ctx.diff_var(y, 0), ctx.indep]


def random_mono(vars_, rng, max_deg=4):
    mono = []
    for v in vars_:
        e = rng.randint(0, max_deg)
        if e:
            mono.append((v.index, e))
    return tuple(sorted(mono))


def test_lex_hand_examples():
    ctx, vs = setup_vars()
    y1, y0, x = vs
    lex = Lex(vs)
    # [TRIVIAL] y' beats any power of lower variables under lex
    assert mono_cmp(lex, ((y1.index, 1),), ((y0.index, 5), (x.index, 5))) == GT
    assert mono_cmp(lex, ((y0.index, 1),), ((x.index, 9),)) == GT
    assert mono_cmp(lex, (), ((x.index, 1),)) == LT


def test_grevlex_hand_examples():
    ctx, vs = setup_vars()
    y1, y0, x = vs
    gr = GrevLex(vs)
    # [TRIVIAL] graded first: degree 3 beats degree 2
    assert mono_cmp(gr, ((x.index, 3),), ((y1.index, 2),)) == GT
    # [TRIVIAL] same degree: smaller power of the last variable wins
    a = ((y1.index, 1), (y0.index, 1))   # y'*y
    b = ((y1.index, 1), (x.index, 1))    # y'*x
    assert mono_cmp(gr, a, b) == GT
    assert mono_cmp(gr, a, a) == EQ


def test_order_axioms_random():
    # criterion 9 property: totality, multiplicativity, 1 minimal
    ctx, vs = setup_vars()
    rng = make_rng(5)
    orders = [Lex(vs), GrevLex(vs), Block(GrevLex(vs[:1]), GrevLex(vs[1:]))]
    for order in orders:
        for _ in range(300):
            a = random_mono(vs, rng)
            b = random_mono(vs, rng)
            c = random_mono(vs, rng)
            cab = mono_cmp(order, a, b)
            assert cab == -mono_cmp(order, b, a)
            if a != b:
                assert cab != EQ or order.key(a) == order.key(b)
            # multiplicative: comparisons survive multiplication by c
            assert mono_cmp(order, mono_mul(a, c), mono_mul(b, c)) == cab
            # 1 is minimal
            assert mono_cmp(order, a, ()) in (EQ, GT)


def test_block_elimination_property():
    # any monomial touching the high block beats every low-only monomial
    ctx, vs = setup_vars()
    y1, y0, x = vs
    block = Block(GrevLex([y1]), GrevLex([y0, x]))
    high = ((y1.index, 1),)
    for low in [(), ((y0.index, 7),), ((y0.index, 3), (x.index, 9))]:
        assert mono_cmp(block, high, low) == GT


def test_default_order_tracks_new_vars():
    ctx = Context()
    y = ctx.indeterminate("y")
    ctx.diff_var(y, 0)
    o1 = default_order(ctx)
    assert default_order(ctx) is o1
    ctx.diff_var(y, 1)
    o2 = default_order(ctx)
    assert o2 is not o1
    assert len(o2.vars_desc) == len(o1.vars_desc) + 1
