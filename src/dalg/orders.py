"""Monomial orders: lex, graded reverse lex, and block elimination orders.

A monomial is a sorted tuple of (variable index, positive exponent) pairs;
see :mod:`dalg.poly`.  An order turns a monomial into a sort key, so
``max(monomials, key=order.key)`` picks the leading monomial.  All orders
here are total, multiplicative, and have 1 as the minimal element.

Each order also lists its ``rows``: nonnegative linear forms in the
exponents, each given as the variables whose exponents it sums, such that
comparing the row values lexicographically, first row first, is the order.
The Groebner kernel packs these values into one integer per monomial.
"""

from __future__ import annotations


class MonomialOrder:
    def key(self, mono):
        raise NotImplementedError

    def rows(self) -> list:
        """The order as linear forms: a list of variable lists, most
        significant first; a row's value is its variables' exponent sum."""
        raise NotImplementedError


class Lex(MonomialOrder):
    """Pure lexicographic order; ``vars_desc`` lists variables largest first."""

    def __init__(self, vars_desc):
        self.vars_desc = list(vars_desc)
        self._pos = {v.index: i for i, v in enumerate(self.vars_desc)}
        self._cache: dict = {}

    def key(self, mono):
        k = self._cache.get(mono)
        if k is not None:
            return k
        exps = [0] * len(self.vars_desc)
        for idx, e in mono:
            pos = self._pos.get(idx)
            if pos is not None:
                exps[pos] = e
        k = self._cache[mono] = tuple(exps)
        return k

    def rows(self) -> list:
        return [[v] for v in self.vars_desc]


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order over the listed variables.

    Variables outside the list are ignored, which is what the block order
    needs; standalone use should list every variable.
    """

    def __init__(self, vars_desc):
        self.vars_desc = list(vars_desc)
        self._pos = {v.index: i for i, v in enumerate(self.vars_desc)}
        self._cache: dict = {}

    def key(self, mono):
        k = self._cache.get(mono)
        if k is not None:
            return k
        exps = [0] * len(self.vars_desc)
        deg = 0
        for idx, e in mono:
            pos = self._pos.get(idx)
            if pos is not None:
                exps[pos] = e
                deg += e
        k = self._cache[mono] = (deg, tuple(-e for e in reversed(exps)))
        return k

    def rows(self) -> list:
        # prefix sums S_n = deg, S_{n-1}, ..., S_1 with S_j = e_1 + ... + e_j
        # compare exactly like (deg, -e_n, ..., -e_1)
        n = len(self.vars_desc)
        return [self.vars_desc[:j] for j in range(n, 0, -1)]


class Block(MonomialOrder):
    """Elimination order: the high block dominates, ties break by the low block."""

    def __init__(self, high: MonomialOrder, low: MonomialOrder):
        self.high = high
        self.low = low
        self._cache: dict = {}

    def key(self, mono):
        k = self._cache.get(mono)
        if k is None:
            k = self._cache[mono] = (self.high.key(mono), self.low.key(mono))
        return k

    def rows(self) -> list:
        return self.high.rows() + self.low.rows()


def default_order(ctx) -> GrevLex:
    """GrevLex over all variables currently in the context, derivatives first.

    Cached on the context and rebuilt whenever a new variable appears, so
    hot loops share one instance and its key memo."""
    cached = getattr(ctx, "_default_order", None)
    n = len(ctx.variables)
    if cached is not None and cached[0] == n:
        return cached[1]
    order = GrevLex(ctx.ranked_vars())
    ctx._default_order = (n, order)
    return order
