"""Shared helpers for the test suite: proportionality matching, random
polynomial generation, and the standard Weierstrass fixture."""

import random
from fractions import Fraction

from dalg import Context, Poly, equation_to_ade


LT, EQ, GT = -1, 0, 1


def mono_cmp(order, a, b):
    """Compare two monomials under an order; returns LT, EQ, or GT."""
    ka, kb = order.key(a), order.key(b)
    return (ka > kb) - (ka < kb)


def proportional(p, q):
    """True when p == c*q for a nonzero rational constant c."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    if set(p.terms) != set(q.terms):
        return False
    mono = next(iter(p.terms))
    c = p.terms[mono] / q.terms[mono]
    return all(p.terms[m] == c * q.terms[m] for m in q.terms)


def z_degree(p, z_id):
    """Degree of p in the derivatives of one indeterminate."""
    from dalg.context import DIFF

    best = 0
    for mono in p.terms:
        d = sum(e for idx, e in mono
                if (v := p.ctx.var_by_index(idx)).kind == DIFF and v.indet == z_id)
        best = max(best, d)
    return best


def weierstrass(ctx, name="y"):
    """The Weierstrass equation (y')^2 = 4y^3 - g2*y - g3."""
    return equation_to_ade(
        f"diff({name}(x),x)^2 = 4*{name}(x)^3 - g2*{name}(x) - g3", ctx,
        extra_deps=[name],
    )


def random_poly(ctx, vars_, rng, max_terms=5, max_deg=3):
    """Sparse random polynomial in the given variables."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = []
        budget = rng.randint(0, max_deg)
        for v in rng.sample(vars_, k=min(len(vars_), rng.randint(1, 3))):
            if budget <= 0:
                break
            e = rng.randint(1, budget)
            budget -= e
            mono.append((v.index, e))
        mono = tuple(sorted(dict(mono).items()))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if coeff:
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Poly(ctx, terms)


def make_rng(seed):
    return random.Random(seed)
