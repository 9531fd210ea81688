"""Monomial orders: lex, graded reverse lex, and block elimination orders.

A monomial is a sorted tuple of (variable index, positive exponent) pairs;
see :mod:`dalg.poly`.  An order is its ``rows``: nonnegative linear forms
in the exponents, each given as the variables whose exponents it sums, such
that comparing the row values lexicographically, first row first, is the
order (Robbiano's matrix description of term orders).  ``key`` is the tuple
of row values, so ``max(monomials, key=order.key)`` picks the leading
monomial, and the Groebner kernel packs the same values into one integer
per monomial.  All orders here are total on the variables their rows
cover, multiplicative, and have 1 as the minimal element.
"""

from __future__ import annotations


class MonomialOrder:
    """The order given by its rows, a list of variable lists, most
    significant first; a row's value is its variables' exponent sum."""

    def __init__(self, rows):
        self._rows = [list(row) for row in rows]
        self._rows_of: dict = {}    # variable index -> the rows it is in
        for r, row in enumerate(self._rows):
            for v in row:
                self._rows_of.setdefault(v.index, []).append(r)
        # keyed again and again by leading-term searches; lives as long as
        # the order object
        self._cache: dict = {}

    def rows(self) -> list:
        return self._rows

    def key(self, mono):
        k = self._cache.get(mono)
        if k is None:
            values = [0] * len(self._rows)
            for idx, e in mono:
                for r in self._rows_of.get(idx, ()):
                    values[r] += e
            k = self._cache[mono] = tuple(values)
        return k


class Lex(MonomialOrder):
    """Pure lexicographic order over the variables, listed largest first."""

    def __init__(self, vars_desc):
        super().__init__([v] for v in vars_desc)


class GrevLex(MonomialOrder):
    """Graded reverse lexicographic order over the listed variables.

    Variables outside the list are ignored, which is what the block order
    needs; standalone use should list every variable.  The rows are the
    prefix sums S_n = deg, S_{n-1}, ..., S_1 with S_j = e_1 + ... + e_j,
    which compare exactly like (deg, -e_n, ..., -e_1).
    """

    def __init__(self, vars_desc):
        # the rows are built only when asked for: the key needs only each
        # variable's position, and the default order, rebuilt whenever a
        # variable is registered, is mostly only keyed
        self._vars = list(vars_desc)
        self._position = {v.index: j for j, v in enumerate(self._vars)}
        self._rows = None
        self._cache = {}

    def rows(self) -> list:
        if self._rows is None:
            self._rows = [self._vars[:j] for j in range(len(self._vars), 0, -1)]
        return self._rows

    def key(self, mono):
        k = self._cache.get(mono)
        if k is None:
            exps = [0] * len(self._vars)
            for idx, e in mono:
                j = self._position.get(idx)
                if j is not None:
                    exps[j] += e
            total, values = sum(exps), []
            for e in reversed(exps):    # S_n, ..., S_1
                values.append(total)
                total -= e
            k = self._cache[mono] = tuple(values)
        return k


class Block(MonomialOrder):
    """Elimination order: the high block dominates, ties break by the low block."""

    def __init__(self, high: MonomialOrder, low: MonomialOrder):
        super().__init__(high.rows() + low.rows())


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
