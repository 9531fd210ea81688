"""Buchberger's algorithm with pair criteria and block elimination orders,
on a kernel of packed monomials that also runs the ansatz's linear solve.

In the kernel a monomial is one packed int.  Its fixed-width fields hold,
from the most significant down, the order's rows
(:meth:`~dalg.orders.MonomialOrder.rows`), the total degree, and one
exponent per variable; so int comparison is the monomial order, a product
is a sum, and a guard bit on top of every field makes divisibility one
subtraction and turns any field overflow into a
:class:`ResourceCapError`.  The field width comes from a degree bound: the
Groebner caps here, the Bareiss degree bound in
:func:`dalg.ansatz.solve_linear_ratfunc`.  A polynomial is a list of
packed monomials in descending order with their exact coefficients, and
both the normal form and the exact quotient pop leading terms from a heap
of the work polynomial's monomials (lazy deletion; Monagan & Pearce, JSC
2011) and cancel them with one routine, :meth:`_Kernel.subtract`.

Buchberger works on primitive integer polynomials (an input enters as its
primitive part, and the output keeps the kernel's integer coefficients).
S-pairs are discarded by the Gebauer-Moeller criteria and selected by the
sugar strategy: smallest sugar, then smallest lcm (Giovini, Mora, Niesi,
Robbiano & Traverso, ISSAC 1991).  The pair loop only top-reduces an
S-polynomial: the first irreducible term ends its normal form, which
fixes the leading monomial that the pair criteria and the divisor search
read, and leaves the tail as it stands.  One finish then
minimalises the basis and fully reduces the elements asked for:
:func:`buchberger` all of them, :func:`eliminate` only those whose leading
monomial is free of the eliminated variables, which under the block order
are its whole output and are reduced only by each other.  Hard caps on
intermediate total degree and basis size turn runaway eliminations into a
:class:`ResourceCapError` instead of unbounded growth.

Before the order is built, :func:`eliminate` substitutes away every
eliminated variable v that a generator g = c*v + r solves for, with c a
nonzero constant and v not in r: v = -r/c goes into the other generators
and g is dropped, until no generator qualifies (a saturation variable
qualifies once its factor has become a constant).  This cannot change the
output.  Write I for the ideal of the generators, X for all variables and
K for the kept ones.  k[X]/(g) is isomorphic to k[X without v] by
v -> -r/c; the isomorphism maps I onto the ideal of the substituted
generators (a constant multiple c^e of each, which keeps them integral,
generates the same ideal) and fixes k[K], so the intersection of I with
k[K] is unchanged.  The keep-only elements of a reduced basis under the
block order are the reduced basis of that intersection under the keep
block's order, which is unique (the elimination theorem, Cox, Little &
O'Shea, *Ideals, Varieties, and Algorithms*, ch. 3).  So :func:`eliminate`
returns the same list, term for term and in the same order, from a
smaller system.

This is the package's only Groebner engine; the independent references
the tests check it against (a plain normal form and a certificate-tracking
Buchberger) live in ``tests/conftest.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import gcd

from .context import same_context
from .errors import ArgumentError, ResourceCapError
from .orders import Block, GrevLex, MonomialOrder
from .poly import Poly, content_primitive, exact_div


@dataclass
class GBConfig:
    """Resource caps for one Groebner computation."""

    max_degree: int = 60       # max total degree of any intermediate polynomial
    max_basis: int = 5000      # max number of basis elements plus queued pairs


@dataclass
class IdealBasis:
    """A (reduced) Groebner basis; generators are primitive with positive lead."""

    generators: list
    order: MonomialOrder


def _degree_error(cap: int) -> ResourceCapError:
    return ResourceCapError(f"intermediate degree exceeded cap {cap}")


class _Kernel:
    """Packed monomials of one computation and the operations on them.

    A polynomial is a pair (monomials in descending order, exact
    coefficients), so the leading term is at index 0.  Fields are
    ``bits + 1`` wide, with ``2**bits`` above twice ``max_degree``: every
    field value is at most the monomial's total degree, so the lcm or the
    product of two monomials of degree at most ``max_degree`` always fits,
    and a guard bit is set exactly when a total degree reaches
    ``2**bits``.
    """

    def __init__(self, order: MonomialOrder, max_degree: int, variables):
        self.max_degree = max_degree
        rows = order.rows()
        vars_ = list(dict.fromkeys(v for row in rows for v in row))
        vars_ += sorted(set(variables) - set(vars_), key=lambda v: v.index)
        bits = (2 * max(max_degree, 1)).bit_length()
        width = bits + 1
        n, fields = len(vars_), len(vars_) + 1 + len(rows)
        self.mask = (1 << bits) - 1
        self.guard = sum(1 << (k * width + bits) for k in range(fields))
        self.deg_shift = n * width
        unit = {v.index: (1 << (k * width)) + (1 << self.deg_shift)
                for k, v in enumerate(vars_)}
        for r, row in enumerate(rows):
            for v in row:
                unit[v.index] += 1 << ((fields - 1 - r) * width)
        self.unit = unit
        # (variable index, exponent shift, unit) by variable index
        self.fields = sorted((v.index, k * width, unit[v.index])
                             for k, v in enumerate(vars_))

    def degree_error(self):
        return _degree_error(self.max_degree)

    def encode(self, p: Poly) -> dict:
        """Packed monomial -> coefficient of p."""
        unit, out = self.unit, {}
        for mono, c in p.terms.items():
            if sum(e for _, e in mono) > self.mask:
                raise self.degree_error()
            out[sum(e * unit[idx] for idx, e in mono)] = c
        return out

    @staticmethod
    def sort(terms: dict):
        """Packed terms as a polynomial, monomials descending."""
        monos = sorted(terms, reverse=True)
        return monos, [terms[m] for m in monos]

    def decode(self, m) -> tuple:
        mask = self.mask
        return tuple((idx, e) for idx, shift, _ in self.fields
                     if (e := (m >> shift) & mask))

    def degree(self, m) -> int:
        return (m >> self.deg_shift) & self.mask

    def divides(self, b, a) -> bool:
        """b | a: no field of a minus b borrows from its guard bit."""
        G = self.guard
        return ((a | G) - b) & G == G

    def lcm(self, a, b):
        mask, out = self.mask, 0
        for _, shift, unit in self.fields:
            ea, eb = (a >> shift) & mask, (b >> shift) & mask
            out += (ea if ea > eb else eb) * unit
        return out

    def subtract(self, work: dict, heap: list, poly, shift, mult):
        """work -= mult * x^shift * (poly minus its leading term).  Only a
        monomial new to work is checked for overflow and goes on the heap;
        a coefficient that cancels stays in work as 0 (its heap entry is
        still there, and the pop skips it)."""
        G = self.guard
        monos, coefs = poly
        get = work.get
        for k in range(1, len(monos)):
            m = monos[k] + shift
            c = get(m)
            if c is None:
                if m & G:
                    raise self.degree_error()
                work[m] = -coefs[k] * mult
                heappush(heap, -m)
            else:
                work[m] = c - coefs[k] * mult

    def product(self, f, g, work=None) -> dict:
        """work + f*g as packed terms (a new dict when work is None), where
        a product of monomials is their sum; a coefficient may cancel to 0
        and stay in the dict."""
        if work is None:
            work = {}
        if (max(map(self.degree, f[0]), default=0)
                + max(map(self.degree, g[0]), default=0) > self.mask):
            raise self.degree_error()
        get = work.get
        g_terms = list(zip(*g))
        for mf, cf in zip(*f):
            for mg, cg in g_terms:
                m = mf + mg
                work[m] = get(m, 0) + cf * cg
        return work

    def quotient(self, work: dict, g):
        """The exact quotient of the packed terms ``work`` (the dict is
        consumed) by the polynomial g, or None when g does not divide them:
        the remainder's leading monomial is popped from a heap and, when
        g's leading monomial divides it, cancelled by one :meth:`subtract`
        (exact rational coefficients)."""
        G = self.guard
        lm, lc = g[0][0], g[1][0]
        heap = [-m for m in work]
        heapify(heap)
        out_m, out_c = [], []
        while heap:
            m = -heappop(heap)
            c = work.pop(m, 0)
            if not c:  # cancelled after it was pushed
                continue
            if ((m | G) - lm) & G != G:
                return None
            t, q = m - lm, exact_div(c, lc)
            out_m.append(t)
            out_c.append(q)
            # every new monomial is below m, so m is never pushed again
            self.subtract(work, heap, g, t, q)
        return out_m, out_c

    def spoly(self, f, g, L):
        """The S-polynomial of f and g, whose lcm is L, as (work, heap)."""
        d = gcd(f[1][0], g[1][0])
        work, heap = {}, []
        self.subtract(work, heap, f, L - f[0][0], -(g[1][0] // d))
        self.subtract(work, heap, g, L - g[0][0], f[1][0] // d)
        return work, heap

    def normal_form(self, work: dict, basis, lms, heap=None, top=False):
        """Fraction-free normal form of the packed terms ``work`` (the dict
        is consumed; ``heap`` holds its negated monomials, if the caller has
        them) by the basis: a primitive polynomial with positive leading
        coefficient, or None for zero.  With ``top`` only the leading term
        is reduced: the first irreducible term ends the reduction and the
        rest of work is the remainder's tail, as it stands."""
        G = self.guard
        if heap is None:
            heap = [-m for m in work]
            heapify(heap)
        out_m, out_c, stamps, scales = [], [], [], []
        while heap:
            m = -heappop(heap)
            c = work.pop(m, 0)
            if not c:  # cancelled after it was pushed
                continue
            mg = m | G
            for i, b in enumerate(lms):
                if (mg - b) & G == G:
                    break
            else:
                if top:
                    # every monomial left in work is below m; the rescales
                    # so far are already in it
                    tail = sorted((t for t, ct in work.items() if ct), reverse=True)
                    out_m, out_c, scales = [m, *tail], [c, *map(work.get, tail)], []
                    break
                out_m.append(m)
                out_c.append(c)
                stamps.append(len(scales))
                continue
            g = basis[i]
            d = gcd(c, g[1][0])
            scale = g[1][0] // d
            if scale != 1:
                work = {mm: cc * scale for mm, cc in work.items()}
                scales.append(scale)
            # every new monomial is below m, so m is never pushed again
            self.subtract(work, heap, g, m - g[0][0], c // d)
        if not out_m:
            return None
        if scales:
            # a term moved to the remainder owes every later rescale
            owed = [1]
            for scale in reversed(scales):
                owed.append(owed[-1] * scale)
            out_c = [c * owed[len(scales) - t] for c, t in zip(out_c, stamps)]
        g = gcd(*out_c)
        if out_c[0] < 0:
            g = -g
        if g != 1:
            out_c = [c // g for c in out_c]
        return out_m, out_c


def buchberger(gens, order: MonomialOrder, config: GBConfig | None = None,
               keep_vars=None) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic for fixed inputs and order.  The unit ideal yields the
    basis {1}.  With ``keep_vars``, the last block of a block order, only
    the reduced-basis elements in those variables are finished and
    returned: the basis of the elimination ideal, [] when it is zero.
    One nonzero generator is its own reduced basis, up to its content and
    sign, and skips the kernel when the order tells its monomials apart.
    """
    if not gens:
        raise ArgumentError("empty generator list")
    ctx = same_context(*gens)
    config = config or GBConfig()
    nonzero = [p for p in gens if not p.is_zero()]
    if len(nonzero) == 1:
        g = nonzero[0]
        # the kernel compares the order's rows first, so where order.key
        # separates g's monomials the two orders agree on them
        if len({order.key(m) for m in g.terms}) == len(g.terms):
            return IdealBasis(_one_generator(g, order, config, keep_vars), order)
    K = _Kernel(order, config.max_degree, set().union(*(g.variables() for g in gens)))

    def check_caps(f, n_items):
        if n_items > config.max_basis:
            raise ResourceCapError(
                f"basis/pair count exceeded cap {config.max_basis}"
            )
        if f and max(K.degree(m) for m in f[0]) > config.max_degree:
            raise K.degree_error()

    G: list = []      # (monomials descending, coefficients)
    lms: list = []
    sugar: list = []
    pairs: set = set()   # (sugar, lcm, i, j); the smallest is selected next

    def update(f, s):
        """Gebauer-Moeller update of the pair set with the new element f of
        sugar s."""
        lmf = f[0][0]
        s = max(s, max(K.degree(m) for m in f[0]))
        lcm_f = [K.lcm(b, lmf) for b in lms]
        kept = set()
        for pair in pairs:
            _, L, i, j = pair
            if not K.divides(lmf, L) or L == lcm_f[i] or L == lcm_f[j]:
                kept.add(pair)
        t = len(G)
        by_lcm: dict = {}
        for i, L in enumerate(lcm_f):
            by_lcm.setdefault(L, []).append(i)
        minimal = []
        for L in sorted(by_lcm):
            if all(not K.divides(M, L) for M in minimal):
                minimal.append(L)
        deg_f = K.degree(lmf)
        for L in minimal:
            if not any(L == lms[i] + lmf for i in by_lcm[L]):
                i = min(by_lcm[L])
                dL = K.degree(L)
                kept.add((max(sugar[i] + dL - K.degree(lms[i]), s + dL - deg_f),
                          L, i, t))
        G.append(f)
        lms.append(lmf)
        sugar.append(s)
        return kept

    inputs = sorted((K.encode(content_primitive(p)[1]) for p in nonzero), key=max)
    for terms in inputs:
        s = max(K.degree(m) for m in terms)
        f = K.normal_form(terms, G, lms)
        if f:
            check_caps(f, len(G) + len(pairs))
            pairs = update(f, s)
    if not G:
        raise ArgumentError("all generators are zero")

    while pairs:
        check_caps(None, len(G) + len(pairs))
        pair = min(pairs)
        pairs.discard(pair)
        s, L, i, j = pair
        work, heap = K.spoly(G[i], G[j], L)
        f = K.normal_form(work, G, lms, heap, top=True)
        if f:
            check_caps(f, len(G))
            pairs = update(f, s)

    # minimalise, keeping only the elements whose leading monomials are in
    # keep_vars (all of them without keep_vars), and fully reduce each kept
    # element by the others.  The block order ranks every monomial outside
    # keep_vars above all monomials in them, so a kept element is wholly in
    # keep_vars, and no dropped element can divide any of its terms.
    drop = 0    # the packed exponent fields of the variables not kept
    if keep_vars is not None:
        keep_idx = {v.index for v in keep_vars}
        drop = sum(K.mask << shift for idx, shift, _ in K.fields
                   if idx not in keep_idx)
    kept, klms = [], []
    for i in sorted(range(len(G)), key=lms.__getitem__):
        if not lms[i] & drop and all(not K.divides(b, lms[i]) for b in klms):
            kept.append(G[i])
            klms.append(lms[i])
    out = []
    for i, (monos, coefs) in enumerate(kept):
        r = K.normal_form(dict(zip(monos, coefs)), kept[:i] + kept[i + 1:],
                          klms[:i] + klms[i + 1:])
        out.append(Poly(ctx, dict(zip(map(K.decode, r[0]), r[1]))))
    return IdealBasis(out, order)


def _one_generator(g: Poly, order: MonomialOrder, config: GBConfig, keep_vars) -> list:
    """What the kernel path of :func:`buchberger` returns for the single
    nonzero generator g, whose monomials have distinct order keys: the
    primitive part with positive leading coefficient, terms in descending
    order, or [] when its leading monomial has a variable outside
    keep_vars."""
    if g.total_degree() > config.max_degree:
        raise _degree_error(config.max_degree)
    terms = sorted(content_primitive(g)[1].terms.items(),
                   key=lambda t: order.key(t[0]), reverse=True)
    if keep_vars is not None:
        keep_idx = {v.index for v in keep_vars}
        if any(idx not in keep_idx for idx, _ in terms[0][0]):
            return []
    sign = 1 if terms[0][1] > 0 else -1
    return [Poly(g.ctx, {m: sign * c for m, c in terms})]


def elimination_order(ctx, elim_vars, keep_vars, first=()) -> MonomialOrder:
    """Block order with the eliminated variables dominating; GrevLex inside.
    The eliminated variables listed in ``first`` are the largest, in the
    given order; the others follow in canonical rank."""
    high = [*first, *sorted(set(elim_vars) - set(first), key=ctx.rank_key)]
    low = sorted(keep_vars, key=ctx.rank_key)
    return Block(GrevLex(high), GrevLex(low))


def _solved_variable(g: Poly, elim_idx: dict):
    """(v, c) for a term c*v of g with v eliminated and c a nonzero
    constant, v occurring in no other term of g; the largest such v in
    canonical rank, or None."""
    count: dict = {}
    for mono in g.terms:
        for idx, _ in mono:
            count[idx] = count.get(idx, 0) + 1
    found = [(elim_idx[mono[0][0]], c) for mono, c in g.terms.items()
             if len(mono) == 1 and mono[0][1] == 1 and mono[0][0] in elim_idx
             and count[mono[0][0]] == 1]
    return min(found, key=lambda vc: g.ctx.rank_key(vc[0]), default=None)


def _substitute_solved(gens, elim_vars):
    """Substitute away, one after another, the eliminated variables that a
    generator solves for with a constant coefficient: for g = c*v + r, put
    v = -r/c into the other generators and drop g.  With g's sign chosen
    so that c > 0, a generator h of degree e in v becomes c^e * h(-r/c):
    the substitution v = -r into the sum of its terms h_k*v^k rescaled by
    c^(e-k), so integer coefficients stay integers.  Returns the nonzero generators left and the variables
    substituted."""
    gens = [g for g in gens if not g.is_zero()]
    elim_idx = {v.index: v for v in elim_vars}
    solved = set()
    while True:
        for k, g in enumerate(gens):
            if (hit := _solved_variable(g, elim_idx)) is not None:
                break
        else:
            return gens, solved
        v, c = hit
        del elim_idx[v.index]
        solved.add(v)
        lead, sign, c = ((v.index, 1),), (-1 if c > 0 else 1), abs(c)
        value = Poly(g.ctx, {m: sign * cm for m, cm in g.terms.items() if m != lead})
        rest = []
        for h in gens[:k] + gens[k + 1:]:
            if h.has_var(v):
                if c != 1:
                    e = h.degree(v)
                    h = Poly(h.ctx, {m: cm * c ** (e - dict(m).get(v.index, 0))
                                     for m, cm in h.terms.items()})
                h = h.substitute({v: value})
            if not h.is_zero():
                rest.append(h)
        gens = rest


def eliminate(gens, elim_vars, keep_vars, config: GBConfig | None = None,
              first=()):
    """Keep-only generators of the reduced Groebner basis under a block order.

    Returns every reduced-basis element whose variables lie in keep_vars,
    the only ones that :func:`buchberger` finishes:
    [1] for the unit ideal, and [] when the elimination ideal is zero.
    ``first`` lists eliminated variables to rank above all the others.
    Every eliminated variable that a generator solves for with a constant
    coefficient is substituted away first (:func:`_substitute_solved`),
    which changes neither the elimination ideal nor its reduced basis.
    """
    if not gens:
        raise ArgumentError("empty generator list")
    ctx = same_context(*gens)
    elim_vars, keep_vars = set(elim_vars), set(keep_vars)
    if elim_vars & keep_vars:
        raise ArgumentError("eliminate and keep variable sets overlap")
    if not set(first) <= elim_vars:
        raise ArgumentError("leading variables must be eliminated")
    seen = set().union(*(g.variables() for g in gens))
    if not seen <= elim_vars | keep_vars:
        missing = seen - elim_vars - keep_vars
        raise ArgumentError(f"variables not covered by the partition: {missing}")
    if all(g.is_zero() for g in gens):
        raise ArgumentError("all generators are zero")
    gens, solved = _substitute_solved(gens, elim_vars)
    if not gens:
        return []
    order = elimination_order(ctx, elim_vars - solved, keep_vars,
                              [v for v in first if v not in solved])
    return buchberger(gens, order, config, keep_vars).generators
