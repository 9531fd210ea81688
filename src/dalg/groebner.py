"""Buchberger's algorithm with pair criteria and block elimination orders.

The kernel works on integer-cleared polynomials (rationals are cleared at
the boundary and restored as primitive parts) in which a monomial is one
packed int.  Its fixed-width fields hold, from the most significant down,
the order's rows (:meth:`~dalg.orders.MonomialOrder.rows`), the total
degree, and one exponent per variable; so int comparison is the monomial
order, a product is a sum, and a guard bit on top of every field makes
divisibility one subtraction and turns any field overflow into a
:class:`ResourceCapError`.  The normal form pops leading terms from a heap
of the work polynomial's monomials (lazy deletion; Monagan & Pearce, JSC
2011).  S-pairs are discarded by the Gebauer-Moeller criteria and selected
by the sugar strategy: smallest sugar, then smallest lcm (Giovini, Mora,
Niesi, Robbiano & Traverso, ISSAC 1991).  Hard caps on intermediate total
degree and basis size turn runaway eliminations into a
:class:`ResourceCapError` instead of unbounded growth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .context import same_context
from .errors import ArgumentError, ResourceCapError
from .orders import Block, GrevLex, MonomialOrder
from .poly import Poly, mono_div, mono_lcm


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


class _Kernel:
    """Packed monomials of one computation and the operations on them.

    A polynomial is a pair (monomials in descending order, integer
    coefficients), so the leading term is at index 0.  Fields are
    ``bits + 1`` wide, with ``2**bits`` above twice the degree cap: every
    field value is at most the monomial's total degree, so the lcm or the
    product of two monomials under the cap always fits, and a guard bit
    is set exactly when a total degree reaches ``2**bits``.
    """

    def __init__(self, order: MonomialOrder, config: GBConfig, variables):
        self.config = config
        rows = order.rows()
        vars_ = list(dict.fromkeys(v for row in rows for v in row))
        vars_ += sorted(set(variables) - set(vars_), key=lambda v: v.index)
        bits = (2 * max(config.max_degree, 1)).bit_length()
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
        return ResourceCapError(
            f"intermediate degree exceeded cap {self.config.max_degree}")

    def encode(self, p: Poly) -> dict:
        """Packed monomial -> integer coefficient, denominators cleared and
        content removed."""
        den = lcm(*(c.denominator for c in p.terms.values()))
        terms = {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}
        g = gcd(*terms.values())
        unit, out = self.unit, {}
        for mono, c in terms.items():
            if sum(e for _, e in mono) > self.mask:
                raise self.degree_error()
            out[sum(e * unit[idx] for idx, e in mono)] = c // g
        return out

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

    def check_caps(self, poly, n_items):
        if n_items > self.config.max_basis:
            raise ResourceCapError(
                f"basis/pair count exceeded cap {self.config.max_basis}"
            )
        if poly and max(self.degree(m) for m in poly[0]) > self.config.max_degree:
            raise self.degree_error()

    def subtract(self, work: dict, heap: list, poly, shift, mult):
        """work -= mult * x^shift * (poly minus its leading term); monomials
        new to work go on the heap."""
        G = self.guard
        monos, coefs = poly
        for k in range(1, len(monos)):
            m = monos[k] + shift
            if m & G:
                raise self.degree_error()
            c = work.get(m)
            if c is None:
                work[m] = -coefs[k] * mult
                heappush(heap, -m)
            else:
                c -= coefs[k] * mult
                if c:
                    work[m] = c
                else:
                    del work[m]

    def spoly(self, f, g, L):
        """The S-polynomial of f and g, whose lcm is L, as (work, heap)."""
        d = gcd(f[1][0], g[1][0])
        work, heap = {}, []
        self.subtract(work, heap, f, L - f[0][0], -(g[1][0] // d))
        self.subtract(work, heap, g, L - g[0][0], f[1][0] // d)
        return work, heap

    def normal_form(self, work: dict, basis, lms, heap=None):
        """Full fraction-free normal form of the packed terms ``work`` (the
        dict is consumed; ``heap`` holds its negated monomials, if the
        caller has them) by the basis: a primitive polynomial with positive
        leading coefficient, or None for zero."""
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


def buchberger(gens, order: MonomialOrder, config: GBConfig | None = None) -> IdealBasis:
    """Reduced Groebner basis of the ideal generated by gens.

    Deterministic for fixed inputs and order.  The unit ideal yields the
    basis {1}.
    """
    if not gens:
        raise ArgumentError("empty generator list")
    ctx = same_context(*gens)
    config = config or GBConfig()
    K = _Kernel(order, config, set().union(*(g.variables() for g in gens)))

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

    inputs = sorted((K.encode(p) for p in gens if not p.is_zero()), key=max)
    for terms in inputs:
        s = max(K.degree(m) for m in terms)
        f = K.normal_form(terms, G, lms)
        if f:
            K.check_caps(f, len(G) + len(pairs))
            pairs = update(f, s)
    if not G:
        raise ArgumentError("all generators are zero")

    while pairs:
        K.check_caps(None, len(G) + len(pairs))
        pair = min(pairs)
        pairs.discard(pair)
        s, L, i, j = pair
        work, heap = K.spoly(G[i], G[j], L)
        f = K.normal_form(work, G, lms, heap)
        if f:
            K.check_caps(f, len(G))
            pairs = update(f, s)

    # minimalize
    minimal_idx = []
    for i in sorted(range(len(G)), key=lms.__getitem__):
        if all(not K.divides(lms[j], lms[i]) for j in minimal_idx):
            minimal_idx.append(i)
    Gmin = [G[i] for i in minimal_idx]
    lmin = [lms[i] for i in minimal_idx]

    # interreduce
    reduced = []
    for i, (monos, coefs) in enumerate(Gmin):
        r = K.normal_form(dict(zip(monos, coefs)), Gmin[:i] + Gmin[i + 1:],
                          lmin[:i] + lmin[i + 1:])
        if r:
            reduced.append(r)
    reduced.sort(key=lambda r: r[0][0])

    out = [Poly(ctx, {K.decode(m): Fraction(c) for m, c in zip(*r)})
           for r in reduced]
    return IdealBasis(out, order)


def reduce(f: Poly, basis: IdealBasis) -> Poly:
    """Normal form of f modulo the basis: no term divisible by any leading
    monomial remains, and f minus the result lies in the ideal."""
    if not basis.generators:
        return f
    same_context(f, *basis.generators)
    order = basis.order
    leads = [g.leading(order) for g in basis.generators]
    out = Poly(f.ctx)
    work = f
    while not work.is_zero():
        m, c = work.leading(order)
        hit = None
        for g, (lmg, lcg) in zip(basis.generators, leads):
            q = mono_div(m, lmg)
            if q is not None:
                hit = (g, q, lcg)
                break
        if hit is None:
            t = Poly(f.ctx, {m: c})
            out = out + t
            work = work - t
            continue
        g, q, lcg = hit
        work = work - Poly(f.ctx, {q: c / lcg}) * g
    return out


def elimination_order(ctx, elim_vars, keep_vars) -> Block:
    """Block order with the eliminated variables dominating; GrevLex inside."""
    high = sorted(elim_vars, key=ctx.rank_key)
    low = sorted(keep_vars, key=ctx.rank_key)
    return Block(GrevLex(high), GrevLex(low))


def eliminate(gens, elim_vars, keep_vars, config: GBConfig | None = None):
    """Keep-only generators of the reduced Groebner basis under a block order.

    Returns every reduced-basis element whose variables lie in keep_vars;
    the list may be empty, which signals the caller's prolongation retry.
    """
    ctx = same_context(*gens)
    elim_vars, keep_vars = set(elim_vars), set(keep_vars)
    if elim_vars & keep_vars:
        raise ArgumentError("eliminate and keep variable sets overlap")
    seen = set().union(*(g.variables() for g in gens))
    if not seen <= elim_vars | keep_vars:
        missing = seen - elim_vars - keep_vars
        raise ArgumentError(f"variables not covered by the partition: {missing}")
    order = elimination_order(ctx, elim_vars, keep_vars)
    basis = buchberger(gens, order, config)
    return [g for g in basis.generators if g.variables() <= keep_vars]


def buchberger_with_certificates(gens, order: MonomialOrder):
    """Plain rational-arithmetic Buchberger that tracks each basis element as
    an explicit polynomial combination of the inputs.

    Intended for small instances only (test-suite ideal-membership checks).
    Returns (basis_polys, certificates) where certificates[i] is the list of
    cofactors c_j with basis[i] == sum_j c_j * gens[j].
    """
    ctx = same_context(*gens)
    one = Poly.const(ctx, 1)
    zero = Poly(ctx)
    G = []
    certs = []
    for i, g in enumerate(gens):
        if not g.is_zero():
            G.append(g)
            certs.append([one if j == i else zero for j in range(len(gens))])

    def reduce_tracked(f, cert):
        changed = True
        while changed and not f.is_zero():
            changed = False
            m, c = f.leading(order)
            for g, gc in zip(G, certs):
                lmg, lcg = g.leading(order)
                q = mono_div(m, lmg)
                if q is not None:
                    mult = Poly(ctx, {q: c / lcg})
                    f = f - mult * g
                    cert = [a - mult * b for a, b in zip(cert, gc)]
                    changed = True
                    break
        return f, cert

    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop(0)
        fi, fj = G[i], G[j]
        (lmi, lci), (lmj, lcj) = fi.leading(order), fj.leading(order)
        L = mono_lcm(lmi, lmj)
        mi = Poly(ctx, {mono_div(L, lmi): Fraction(1) / lci})
        mj = Poly(ctx, {mono_div(L, lmj): Fraction(1) / lcj})
        s = mi * fi - mj * fj
        cert = [mi * a - mj * b for a, b in zip(certs[i], certs[j])]
        s, cert = reduce_tracked(s, cert)
        if not s.is_zero():
            pairs += [(k, len(G)) for k in range(len(G))]
            G.append(s)
            certs.append(cert)
    return G, certs
