"""Degree-bounded search for equations satisfied by a rational expression.

Instead of elimination, pick a leading monomial in the derivatives of the
target function F, attach unknown rational-function coefficients to every
smaller monomial (plus a constant slot), rewrite all derivatives of F in
terms of the first n_j derivatives of each input dependent, and require the
numerator to vanish identically.  That is a linear system for the unknown
coefficients with polynomial entries, built from its columns: one
polynomial per slot, the slot's value over the common denominator of all
slots, pseudo-reduced by the input equations.  The lead's column is the
constant, and the unknowns are never variables of the polynomial ring.  The
system is solved exactly by a Bareiss fraction-free forward pass, where
each row step divides exactly by the previous pivot instead of taking a
gcd, and Cramer back-substitution, which writes every unknown i as N_i/d
over the last pivot d.  The solve runs on the Groebner kernel's packed
monomials (:class:`dalg.groebner._Kernel`), with the field width taken
from the Bareiss degree bound, the sum over the rows of each row's largest
entry degree; only N and d are decoded back to :class:`Poly`.  The
equation is d*z_lead + sum N_i*m_i, divided once by
g = gcd(d, N_0, ..., N_k); no row and no unknown is reduced on the way.
A power of z that divides every term is then divided out: it is the
spurious branch z = 0 that a lead of degree exactly k brings when an
equation of lower degree exists.

Most candidates fail, so failures are proven before the exact pass, by
one certificate per derivative order r.  With L the lcm of the
denominators of z, ..., z^(r), the slot of a monomial m = prod
(z^(i))^(e_i) of degree |m| <= k gets the column
L^(k-|m|) * prod (num_i*L/den_i)^(e_i), and the constant slot L^k: every
slot's value times L^k.  Each base element (L and the num_i*L/den_i) and
each input is scaled to integer coefficients and mapped to F_q[Y],
q = 2^31 - 1, where Y are the input dependents' derivatives and x and each
parameter go to a power of 7.  The columns are built in enumeration order,
only when the search reaches them, reduced by the inputs' images after
every product, and kept in an incremental echelon form.  A candidate's
exact columns are the slot values times its own common denominator c,
pseudo-reduced, and L^k/c is the same polynomial for all of them, so a
linear relation among them is one among these columns too.  So when the
columns of the constant and of m_0, ..., m_i are linearly independent at
the point, some maximal minor is nonzero there, hence a nonzero
polynomial (Schwartz, J. ACM 1980), and the candidate with lead m_i is
inconsistent: it is skipped.  At the first dependency every later
candidate of the order takes the exact pass.  An initial whose image
depends on Y is not inverted: each column carries its exponent of that
initial, and the columns are lifted to a common exponent, which again
multiplies all of them by one nonzero polynomial.  The image of a column
is that of the exact reduced column because a reduced form modulo the
inputs is unique once their initials are units, which holds over the
field of fractions of the non-leaders when no initial vanishes mod q.
If one does, the certificate works mod q = 2^31 - 19 instead, and if it
vanishes there too, every candidate takes the exact pass.  Order 0 needs
no certificate when the map names input dependents only below their
orders (:func:`_transcendental`).  So the equation found is the same
either way.  z^(r) itself is derived only when
the search reaches order r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm

from .closure import _check_inputs, _output_id
from .context import DIFF
from .diffpoly import RatFunc, normalize_ade
from .errors import AnsatzNotFoundError, ArgumentError
from .groebner import _Kernel
from .orders import GrevLex
from .poly import Poly, mono_div, over_lcm, poly_gcd, try_exact_divide

_PRIMES = (2 ** 31 - 1, 2 ** 31 - 19)  # the miss certificate's prime, then its fallback
_BITS = 15      # exponent bits of a packed monomial in the miss certificate


def enumerate_delta(k: int, r: int) -> list:
    """All monomials of degree 1..k in z, ..., z^(r) as exponent tuples
    (entry i is the power of z^(i)), lowest first: by total degree, then
    graded lexicographic with z^(r) > ... > z."""
    if k < 1 or r < 0:
        raise ArgumentError("need degree bound >= 1 and derivative order >= 0")
    out = []
    for deg in range(1, k + 1):
        for combo in combinations_with_replacement(range(r + 1), deg):
            exps = [0] * (r + 1)
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    out.sort(key=lambda m: (sum(m), m[::-1]))
    return out


def derivative_closure(R: RatFunc, ades, r: int) -> list:
    """z, z', ..., z^(r) as rational functions of x, parameters, and the
    first n_j derivatives of each input dependent.  Each value is the
    previous one's :meth:`RatFunc.derivative`, which replaces every input's
    y_j^(n_j+1) by its linear prolongation in one polynomial step, so the
    inputs and R must be of the class that
    :func:`dalg.closure._check_inputs` checks."""
    ades = list(ades)
    _check_inputs(ades, R)
    vals = [R]
    for _ in range(r):
        vals.append(vals[-1].derivative(ades))
    return vals


@dataclass
class LinearSystem:
    """Rows sum(coeffs[i] * C_i) + constant = 0 with polynomial entries."""

    unknowns: list          # the slot monomials of z, in column order
    rows: list              # list of (list[Poly], Poly)


def solve_linear_ratfunc(system: LinearSystem):
    """Fraction-free (Bareiss) elimination with Cramer back-substitution.

    Each step pivots on the nonzero entry of lowest (total degree, terms,
    row, column) among the unused rows and columns, and replaces every other
    unused row by (pivot*row - row[col]*pivot_row) / previous pivot.  By
    Sylvester's identity that division is exact: after k steps every entry
    of an unused row is a (k+1)-minor of the input matrix, so no gcd is
    taken at all.  With d the last pivot, Cramer's rule makes each pivoted
    unknown N_i/d with a polynomial N_i, found last pivot first by exact
    division by its own pivot; free unknowns get N_i = 0.  Returns the pair
    (N, d), left unreduced, or None as soon as a row reads 0 = nonzero
    constant.

    The rows are encoded once into the Groebner kernel's packed monomials
    under GrevLex, whose leading monomial carries the total degree, and only
    N and d are decoded.  Every entry, pivot and numerator is a minor of
    [A|b], of degree at most the sum over the rows of each row's largest
    entry degree; the fields are sized for a product of two of them."""
    if not system.rows:
        raise ArgumentError("empty linear system")
    ncols = len(system.unknowns)
    ctx = system.rows[0][1].ctx
    entries = [[*coeffs, const] for coeffs, const in system.rows]
    variables = set().union(*(p.variables() for row in entries for p in row))
    bound = sum(max(p.total_degree() for p in row) for row in entries)
    K = _Kernel(GrevLex(sorted(variables, key=lambda v: v.index)), bound, variables)
    rows = [[K.sort(K.encode(p)) for p in row] for row in entries]

    def divide(work, g):
        q = K.quotient(work, g)
        if q is None:
            raise RuntimeError("internal error: Bareiss division is not exact")
        return q

    zero = ([], [])
    pivots: list = []           # (pivot row, column) in selection order
    free_cols = list(range(ncols))
    prev = ([0], [1])           # the previous pivot; d once elimination ends
    while True:
        # an unused row that is zero in every free column reads 0 = constant;
        # it stays so, so the system is inconsistent as soon as one appears
        if any(row[ncols][0] and not any(row[c][0] for c in free_cols)
               for row in rows):
            return None
        best = None
        for ri, row in enumerate(rows):
            for ci in free_cols:
                monos = row[ci][0]
                if monos:
                    cand = (K.degree(monos[0]), len(monos), ri, ci)
                    if best is None or cand < best:
                        best = cand
        if best is None:
            break
        _, _, ri, ci = best
        prow = rows.pop(ri)
        pivot = prow[ci]
        free_cols.remove(ci)
        # a pivoted column is zero in every unused row, so only the free
        # columns and the constant change
        for row in rows:
            monos, coefs = row[ci]
            factor = (monos, [-c for c in coefs])
            for c in (*free_cols, ncols):
                work = K.product(pivot, row[c])
                row[c] = divide(K.product(factor, prow[c], work), prev)
            row[ci] = zero
        pivots.append((prow, ci))
        prev = pivot

    nums: dict = {}
    for prow, ci in reversed(pivots):
        work = K.product(prow[ncols], prev)
        for cj, n in nums.items():
            K.product(prow[cj], n, work)
        monos, coefs = divide(work, prow[ci])
        nums[ci] = (monos, [-c for c in coefs])

    def decode(p) -> Poly:
        return Poly(ctx, dict(zip(map(K.decode, p[0]), p[1])))

    return [decode(nums.get(ci, zero)) for ci in range(ncols)], decode(prev)


def assemble_and_solve(ades, leading, earlier, closure_vals, value_cache: dict,
                       z_name: str = "z"):
    """Try the ansatz with the given leading monomial (coefficient one) and
    unknowns on the earlier monomials plus a constant slot, all exponent
    tuples.  Returns the solved equation, or None when the linear system is
    inconsistent.

    The columns are the constant slot's (the common denominator), the
    earlier monomials' and last the lead's, the system's constant.  They
    are pseudo-reduced by each input in lockstep: a step takes the largest
    leader degree over all columns, multiplies every column by the input's
    initial and cancels each column's own top coefficient, which is
    pseudo-division of sum c_i*col_i term for term.  Each monomial in the
    input dependents then gives one row.  :func:`ansatz_search` calls it
    only for candidates that the miss certificate leaves unproven."""
    unknowns = [(0,) * len(leading)] + earlier
    ctx = ades[0].ctx

    def value(m):
        """(numerator, denominator) of the monomial's rational value; the
        quotient is left unreduced to keep gcd work out of the hot path."""
        key = tuple((i, e) for i, e in enumerate(m) if e)  # same for every r
        v = value_cache.get(key)
        if v is None:
            num = Poly.const(ctx, 1)
            den = Poly.const(ctx, 1)
            for i, e in key:
                num = num * closure_vals[i].num ** e
                den = den * closure_vals[i].den ** e
            v = value_cache[key] = (num, den)
        return v

    nums, common = over_lcm(ctx, [value(leading)] + [value(m) for m in earlier])
    cols = [common, *nums[1:], nums[0]]
    for ade in ades:
        leader, d = ade.leader, ade.leader_degree
        lc = ade.poly.coeff_in(leader, d)
        while (top := max(c.degree(leader) for c in cols)) >= d:
            shift = Poly.var(ctx, leader, top - d)
            cols = [lc * c - c.coeff_in(leader, top) * shift * ade.poly for c in cols]
    if all(c.is_zero() for c in cols):
        return None

    # one row per monomial in the input dependents; a column's term lands
    # in that row with the rest of its monomial
    dep_ids = {a.dep for a in ades}
    rows: dict = {}
    for j, col in enumerate(cols):
        for mono, coeff in col.terms.items():
            y_part, rest = [], []
            for idx, e in mono:
                var = ctx.var_by_index(idx)
                is_y = var.kind == DIFF and var.indet in dep_ids
                (y_part if is_y else rest).append((idx, e))
            row = rows.setdefault(tuple(y_part), [{} for _ in cols])
            row[j][tuple(rest)] = coeff

    # each row times the lcm of its denominators, so that the solve runs
    # on integers
    sys_rows = []
    for y_mono in sorted(rows):
        entries = rows[y_mono]
        den = lcm(*(c.denominator for terms in entries for c in terms.values()))
        if den != 1:
            entries = [{m: c * den for m, c in terms.items()} for terms in entries]
        row = [Poly(ctx, terms) for terms in entries]
        sys_rows.append((row[:-1], row[-1]))

    solution = solve_linear_ratfunc(LinearSystem(unknowns, sys_rows))
    if solution is None:
        return None
    sol, d = solution

    z_id = ctx.indeterminate(z_name)

    def z_poly(m) -> Poly:
        p = Poly.const(ctx, 1)
        for i, e in enumerate(m):
            if e:
                p = p * Poly.var(ctx, ctx.diff_var(z_id, i), e)
        return p

    # d*z_lead + sum N_i*m_i over g = gcd(d, N_0, ..., N_k): for each prime
    # its exponent in d/g is the largest in any reduced denominator of
    # N_i/d, so up to a constant this is the numerator of z_lead + sum
    # (N_i/d)*m_i over the lcm of those denominators (the m_i are distinct
    # monomials in z, so no factor of d/g divides it)
    g = d
    for n in sol:
        if g.is_constant():
            break
        if try_exact_divide(n, g) is None:
            g = poly_gcd(g, n)
    equation = z_poly(leading) * d
    for m, n in zip(unknowns, sol):
        equation = equation + z_poly(m) * n
    equation = try_exact_divide(equation, g)
    if equation is None:
        raise RuntimeError("internal error: gcd(d, N_0, ..., N_k) does not "
                           "divide the equation")
    # divide out z^e, the branch z = 0 (see the module docstring); a
    # monomial equation would be left without z and stays
    z0 = ctx.diff_var(z_id, 0).index
    e = min(dict(mono).get(z0, 0) for mono in equation.terms)
    if e and len(equation.terms) > 1:
        equation = Poly(ctx, {mono_div(mono, ((z0, e),)): c
                              for mono, c in equation.terms.items()})
    return normalize_ade(equation, dep=z_id)


class _Declined(Exception):
    """The miss certificate cannot be used: an input's initial vanishes
    mod q, or a packed exponent outgrows its field."""


class _PointImage:
    """The image in F_q[Y] of polynomials in x, the parameters and Y, the
    input dependents' derivatives: x and each parameter go to the point
    7^(5+index) mod q, and the inputs' images reduce.  A monomial in Y is
    one packed int, one field of _BITS bits and a guard bit per variable;
    an element is a dict monomial -> nonzero residue."""

    def __init__(self, ades, q: int):
        # Y is y_j^(i) for i <= n_j, all that the input class lets the
        # inputs, the map and its derivative values hold
        ctx = ades[0].ctx
        ys = [ctx.diff_var(a.dep, i).index for a in ades for i in range(a.order + 1)]
        self.q, self.mask = q, (1 << _BITS) - 1
        self.shift = {idx: i * (_BITS + 1) for i, idx in enumerate(ys)}
        self.guard = sum(1 << (s + _BITS) for s in self.shift.values())
        self.point: dict = {}
        # per input: (leader shift, leader degree d, minus the terms below
        # u^d, the initial, None once the input is made monic)
        self.inputs = []
        for a in ades:
            image = self.encode(a.poly)
            s, d = self.shift[a.leader.index], a.leader_degree
            initial = {m - (d << s): c for m, c in image.items() if m >> s & self.mask == d}
            tail = {m: q - c for m, c in image.items() if m >> s & self.mask != d}
            if not initial:
                raise _Declined
            if len(initial) == 1 and 0 in initial:
                inv = pow(initial[0], -1, q)
                tail, initial = {m: c * inv % q for m, c in tail.items()}, None
            self.inputs.append((s, d, tail, initial))

    def encode(self, p: Poly) -> dict:
        """The image of p scaled to integer coefficients."""
        q, shift, point = self.q, self.shift, self.point
        den = lcm(*(c.denominator for c in p.terms.values()))
        out: dict = {}
        for mono, c in p.terms.items():
            m, t = 0, c.numerator * (den // c.denominator)
            for idx, e in mono:
                s = shift.get(idx)
                if s is not None:
                    if e > self.mask:
                        raise _Declined
                    m += e << s
                else:
                    v = point.get((idx, e))
                    if v is None:
                        v = point[idx, e] = pow(7, (5 + idx) * e, q)
                    t *= v
            out[m] = (out.get(m, 0) + t) % q
        return {m: c for m, c in out.items() if c}

    def mul(self, f: dict, g: dict) -> dict:
        out: dict = {}
        get = out.get
        g_terms = list(g.items())
        for mf, cf in f.items():
            for mg, cg in g_terms:
                m = mf + mg
                out[m] = get(m, 0) + cf * cg
        if any(m & self.guard for m in out):
            raise _Declined
        q = self.q
        return {m: r for m, c in out.items() if (r := c % q)}

    def add(self, f: dict, g: dict) -> dict:
        out, q = dict(f), self.q
        for m, c in g.items():
            r = (out.get(m, 0) + c) % q
            if r:
                out[m] = r
            else:
                out.pop(m, None)
        return out

    def reduce(self, f: dict, exps: list) -> dict:
        """f pseudo-reduced by each input in turn, below degree d in its
        leader u: the top u-degree part h*u^top of f is replaced by
        h*u^(top-d) times minus the terms below u^d, after the rest is
        multiplied by the initial (exps[j] counts those multiplications)."""
        mask = self.mask
        for j, (s, d, tail, initial) in enumerate(self.inputs):
            while (top := max((m >> s & mask for m in f), default=0)) >= d:
                hi, rest, cut = {}, {}, d << s
                for m, c in f.items():
                    if m >> s & mask == top:
                        hi[m - cut] = c
                    else:
                        rest[m] = c
                if initial is not None:
                    rest = self.mul(rest, initial)
                    exps[j] += 1
                f = self.add(rest, self.mul(hi, tail))
        return f

    def initial_power(self, exps) -> dict:
        out = {0: 1}
        for (_, _, _, initial), e in zip(self.inputs, exps):
            for _ in range(e):
                out = self.mul(out, initial)
        return out


def _point_image(ades):
    """The miss certificate's image at the first of _PRIMES where no
    input's initial vanishes, or None."""
    for q in _PRIMES:
        try:
            return _PointImage(ades, q)
        except _Declined:
            pass
    return None


def _independent_prefixes(img, vals, k: int, monos: list):
    """Yield, for each monomial m_i of ``monos`` in turn, whether the
    columns of the constant slot and of m_0, ..., m_i are linearly
    independent in the image ``img`` (a :class:`_PointImage`, or None when
    the certificate declines), which proves the candidate with lead m_i a
    miss (see the module docstring).  Column i is built only when answer i
    is asked for.  After the first dependency every answer is False, as is
    every answer when the certificate declines."""
    nums, L = over_lcm(vals[0].ctx, [(v.num, v.den) for v in vals])

    def element(f: dict, exps=None):
        """f reduced, with its exponent of each initial."""
        exps = list(exps or [0] * len(img.inputs))
        return img.reduce(f, exps), exps

    def times(a, b):
        exps = [x + y for x, y in zip(a[1], b[1])]
        if len(a[0]) == 1 and 0 in a[0]:
            a, b = b, a
        if len(b[0]) == 1 and 0 in b[0]:
            # a reduced element times a constant stays reduced
            c = b[0][0]
            return {m: v * c % img.q for m, v in a[0].items()}, exps
        return element(img.mul(a[0], b[0]), exps)

    basis: list = []    # (pivot, vector scaled to 1 there), zero at earlier pivots

    def independent(v: dict) -> bool:
        """Reduce v by the basis; if it stays nonzero, add it."""
        q = img.q
        for piv, b in basis:
            c = v.get(piv)
            if c:
                for m, w in b.items():
                    r = (v.get(m, 0) - c * w) % q
                    if r:
                        v[m] = r
                    else:
                        v.pop(m, None)
        if not v:
            return False
        piv = next(iter(v))
        inv = pow(v[piv], -1, q)
        basis.append((piv, {m: c * inv % q for m, c in v.items()}))
        return True

    # the exponents of the initials that every column is lifted to
    common = [0] * len(img.inputs) if img else []

    def insert(col) -> bool:
        f, exps = col
        top = [max(a, b) for a, b in zip(common, exps)]
        if top != common:
            # lift the basis: each initial is nonzero and free of the
            # leaders, so the lifted vectors stay reduced and independent
            lift = img.initial_power([t - c for t, c in zip(top, common)])
            lifted = [img.mul(b, lift) for _, b in basis]
            basis.clear()
            common[:] = top
            for v in lifted:
                independent(v)
        if exps != common:
            f = img.mul(f, img.initial_power([c - e for c, e in zip(common, exps)]))
        return independent(dict(f))

    alive = img is not None
    try:
        if alive:
            base = [element(img.encode(n)) for n in nums]
            powers = [element({0: 1})]      # L^0, ..., L^k
            L_img = element(img.encode(L))
            for _ in range(k):
                powers.append(times(powers[-1], L_img))
            prods = {(0,) * len(vals): powers[0]}
            alive = insert(powers[k])
        for m in monos:
            if alive:
                i = next(j for j, e in enumerate(m) if e)
                prod = prods[m] = times(prods[(*m[:i], m[i] - 1, *m[i + 1:])], base[i])
                deg = sum(m)
                alive = insert(prod if deg == k else times(powers[k - deg], prod))
            yield alive
    except _Declined:
        pass
    while True:
        yield False


def _transcendental(R: RatFunc, ades) -> bool:
    """Whether R names some input dependents and only below their orders,
    which proves z^k, the one candidate of order 0, a miss: those
    derivatives are algebraically independent modulo the inputs, each of
    which is algebraic in its own leader over them, and Q(x, parameters) is
    algebraically closed in the rational functions of them, so z = R
    satisfies no nonzero polynomial over it."""
    orders = {a.dep: a.order for a in ades}
    named = [v for v in R.variables() if v.kind == DIFF]
    return bool(named) and all(v.order < orders[v.indet] for v in named)


def ansatz_search(ades, R: RatFunc, k: int = 2, order_cap=None, z_name: str = "z"):
    """Search leading monomials of degree k in enumeration order, raising the
    derivative order of the ansatz from 0 up to the cap, and return the first
    equation found.  z^(r) is derived on reaching order r, and each
    candidate that the order's miss certificate does not prove a miss takes
    the exact pass; order 0 is skipped when :func:`_transcendental` proves
    its one candidate a miss."""
    if k < 1:
        raise ArgumentError("degree bound must be at least 1")
    ades = list(ades)
    _output_id(R.num.ctx, z_name, ades)
    if order_cap is None:
        order_cap = sum(a.order for a in ades) + 1
    value_cache: dict = {}
    vals = derivative_closure(R, ades, 0)
    img = _point_image(ades)
    for r in range(order_cap + 1):
        if r:
            vals.append(derivative_closure(vals[-1], ades, 1)[1])
        elif _transcendental(R, ades):
            continue
        monos = enumerate_delta(k, r)
        independent = _independent_prefixes(img, vals, k, monos)
        for i, (leading, miss) in enumerate(zip(monos, independent)):
            if sum(leading) == k and not miss:
                found = assemble_and_solve(ades, leading, monos[:i], vals,
                                           value_cache, z_name=z_name)
                if found is not None:
                    return found
    raise AnsatzNotFoundError(k, order_cap)
