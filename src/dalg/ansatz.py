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
over the last pivot d.  The equation is d*z_lead + sum N_i*m_i divided
by g = gcd(d, N_0, ..., N_k); no row and no unknown is reduced on the
way.  When an equation of lower degree exists, a lead of degree exactly
k has a system with more than one solution, so a consistent lead m gets
one canonical equation: that of the lead m/z^e for the largest e >= 1
whose lead is consistent (the spurious branch z = 0 that the factor z^e
brings, chosen instead of divided out), or, if there is none, the
solution that is zero on every column depending on earlier columns.
The solve returns that solution for every consistent system, since it
pivots the columns in order and leaves free exactly the dependent ones
(:func:`solve_linear_ratfunc`); a system of full column rank has one
solution anyway.  The whole exact pass, from the slot values through the
rows and the solve to the division by g, runs on the Groebner kernel's
packed monomials (:class:`dalg.groebner._Kernel`), one kernel per search
(:class:`_Packing`); only the equation is decoded to :class:`Poly`.  The
miss certificate below runs on the same kernel, a second
:class:`_Packing` built mod a prime q.

Most candidates fail, so failures are proven before the exact pass, by
one certificate per derivative order r.  With L the lcm of the
denominators of z, ..., z^(r), the slot of a monomial m = prod
(z^(i))^(e_i) of degree |m| <= k gets the column L^(k-|m|) * prod
(num_i*L/den_i)^(e_i), and the constant slot L^k: every slot's value
times L^k.  Each base element (L and the num_i*L/den_i) and each input
is scaled to integer coefficients, x and each parameter go to a power of
7, and the result is packed mod q = 2^31 - 1 by the certificate's
:class:`_Packing`, built mod q: the exact pass's kernel over the
variables Y, the input dependents' derivatives, whose sort reduces every
coefficient mod q.  The columns are built in enumeration order, only
when the search reaches them, reduced by the inputs' images after every
product with the exact pass's :meth:`_Packing.reduce`, and kept in an
incremental echelon form.  An initial whose image depends on Y is not
inverted: each column carries its exponent of that initial, and the
columns are lifted to a common exponent, which multiplies all of them by
one nonzero polynomial; an input whose initial's image is a constant is
made monic instead.  The image of a column is that of the exact reduced
column because a reduced form modulo the inputs is unique once their
initials are units, which holds over the field of fractions of the
non-leaders when no initial vanishes mod q.  A candidate's exact columns
are the slot values times its own common denominator c, pseudo-reduced,
and L^k/c is the same polynomial for all of them, so a linear relation
among them is one among these columns too.  A set of columns linearly
independent at the point is independent, since some maximal minor is
nonzero there, hence a nonzero polynomial (Schwartz, J. ACM 1980).  A
column that reduces to zero is a dependency: it stays out of the echelon
form, which goes on, and since each echelon vector carries its
combination of the columns, the dependent column carries its relation
mod q, whose support names it and independent columns only.

Every lead is settled by one rule, once, when the search first needs
it.  A proven miss takes no pass.  Otherwise the answer is the lead
m/z^e's, for the largest e whose lead is consistent: its equation times
z^e shows m consistent.  Otherwise a confirmed dependency gets the exact
pass cut to its support, the constant slot always kept.  Otherwise the
lead gets the full pass.  Once every dependency before column i is
confirmed, the rank at the point is the exact rank of the columns before
i, so the independent ones among them are an exact basis, and by
Cramer's rule on a minor that is nonzero at the point, a column in their
span is in the span of their images: a column independent at the point
is independent exactly, and the candidate with lead m_i is a proven
miss.  A cut's columns are independent at the point, hence exactly, so
its system has at most one solution, the one that is zero on every
dependent column; the relation mod q is its image wherever d does not
vanish at the point, so the cut finds it unless one of its coefficients
vanishes there, and then the full pass runs.  The search confirms in
column order and only as far as it must: before it skips an independent
candidate and before it cuts a dependent one.  The certificate stops
answering where it cannot answer: from the start where an input's
initial or the constant's column vanishes mod q, at a column that
outgrows its fields (which hold degree 2^14 - 1, or the inputs' degree),
and at a dependency that even the full pass cannot confirm, an unlucky
point, whose answer and every later one are forgotten.  A lead it does
not answer just skips the miss and cut steps, so the equation found is
the same either way: the canonical equation of the first consistent
candidate.  Order 0 needs no certificate when the map names input
dependents only below their orders (:func:`_transcendental`).  z^(r)
itself is derived only when the search reaches order r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import lcm

from .closure import _check_inputs, _output_id
from .context import DIFF
from .diffpoly import RatFunc, normalize_ade
from .errors import AnsatzNotFoundError, ArgumentError, ResourceCapError
from .groebner import _Kernel
from .orders import GrevLex
from .poly import Poly, exact_div, mono_mul, over_lcm, poly_gcd

_PRIME = 2 ** 31 - 1  # the miss certificate's modulus
_NO_ANSWER = (False, None)  # a column the miss certificate does not answer
_ONE = ([0], [1])   # the packed polynomial 1 of any kernel


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
    """Rows sum(coeffs[i] * C_i) + constant = 0 whose entries are packed
    polynomials of ``kernel``."""

    unknowns: list          # the slot monomials of z, in column order
    rows: list              # list of (list of entries, entry)
    kernel: _Kernel


def solve_linear_ratfunc(system: LinearSystem):
    """Fraction-free (Bareiss) elimination with Cramer back-substitution.

    The forward pass walks the columns once, left to right.  A column that
    is zero in every unused row stays free; any other is pivoted on its
    entry of lowest (total degree, terms, row) among the unused rows, and
    every other unused row is replaced by (pivot*row - row[col]*pivot_row)
    / previous pivot.  By Sylvester's identity that division is exact:
    after k steps every entry of an unused row is a (k+1)-minor of the
    input matrix, so no gcd is taken at all.  A column stays free exactly
    when it depends on the earlier columns, so a consistent system gets the
    solution that is zero on every such column, and a system of full
    column rank its one solution.  With d the last pivot, Cramer's rule
    makes each pivoted unknown N_i/d with a polynomial N_i, found last
    pivot first by exact division by its own pivot; free unknowns get
    N_i = 0.  Returns the pair (N, d), left unreduced and packed, or None
    as soon as a row reads 0 = nonzero constant.

    The kernel's order must be graded, so that a leading monomial carries
    the total degree.  Every entry, pivot and numerator is a minor of
    [A|b], of degree at most the sum over the rows of each row's largest
    entry degree, and the loop raises :class:`ResourceCapError` when a
    product of two of them outgrows the kernel's fields."""
    if not system.rows:
        raise ArgumentError("empty linear system")
    ncols = len(system.unknowns)
    rows = [[*coeffs, const] for coeffs, const in system.rows]
    K = system.kernel

    def divide(work, g):
        if g[0] == [0]:
            # a constant divisor, as the first step's previous pivot 1 is:
            # each coefficient divided on its own, as K.quotient would
            monos, coefs = K.sort(work)
            c = g[1][0]
            return monos, coefs if c == 1 else [exact_div(v, c) for v in coefs]
        q = K.quotient(work, g)
        if q is None:
            raise RuntimeError("internal error: Bareiss division is not exact")
        return q

    zero = ([], [])
    pivots: list = []           # (pivot row, column) in column order
    prev = _ONE                 # the previous pivot; d once elimination ends
    for ci in range(ncols):
        # an unused row that is zero from column ci on reads 0 = constant;
        # it stays so, so the system is inconsistent as soon as one appears
        if any(row[ncols][0] and not any(row[c][0] for c in range(ci, ncols))
               for row in rows):
            return None
        best = min(((K.degree(row[ci][0][0]), len(row[ci][0]), ri)
                    for ri, row in enumerate(rows) if row[ci][0]), default=None)
        if best is None:
            continue
        prow = rows.pop(best[2])
        pivot = prow[ci]
        # the earlier columns are zero in every unused row, so only the
        # later columns and the constant change
        for row in rows:
            monos, coefs = row[ci]
            factor = (monos, [-c for c in coefs])
            for c in range(ci + 1, ncols + 1):
                work = K.product(pivot, row[c])
                row[c] = divide(K.product(factor, prow[c], work), prev)
            row[ci] = zero
        pivots.append((prow, ci))
        prev = pivot
    if any(row[ncols][0] for row in rows):
        return None

    nums: dict = {}
    for prow, ci in reversed(pivots):
        work = K.product(prow[ncols], prev)
        for cj, n in nums.items():
            K.product(prow[cj], n, work)
        monos, coefs = divide(work, prow[ci])
        nums[ci] = (monos, [-c for c in coefs])
    return [nums.get(ci, zero) for ci in range(ncols)], prev


_START_DEGREE = 63  # the degree the exact pass's fields hold before any widening
_CERT_DEGREE = 2 ** 14 - 1  # the degree the miss certificate's fields hold


class _Declined(Exception):
    """The miss certificate cannot be used: an input's initial vanishes
    mod q."""


class _Packing:
    """One search's kernel and what the exact pass or the miss certificate
    reads from it.

    The kernel orders Y (the y_j^(i) with i <= n_j), the inputs' variables
    and the map's by GrevLex on variable index.  Each closure value and
    each slot value is encoded or built once, and each input's leader
    field, degree, initial and polynomial once.  The fields start wide
    enough for degree _START_DEGREE, or for the inputs' degree if that is
    larger, and :meth:`widen` rebuilds them wider when a pass outgrows
    them, which a :class:`ResourceCapError` of the kernel signals; the
    search takes no caps.

    With a prime ``q`` it is the miss certificate's image: the kernel has
    the variables Y only and reduces coefficients mod q, :meth:`encode`
    sends x and each parameter to the point 7^(5+index) mod q, an input
    whose initial is a constant is made monic, and the fields hold degree
    _CERT_DEGREE, or the inputs' degree if that is larger; an overflow is
    the kernel's :class:`ResourceCapError`, and nothing widens."""

    def __init__(self, ades, R: RatFunc, q=None):
        ctx = ades[0].ctx
        self.ades, self.q = ades, q
        self.ys = {ctx.diff_var(a.dep, i) for a in ades for i in range(a.order + 1)}
        self.variables = self.ys if q else self.ys.union(
            *(a.poly.variables() for a in ades), R.variables())
        self.point: dict = {}       # (index, e) -> 7^((5+index)*e) mod q
        self.build(max(_CERT_DEGREE if q else _START_DEGREE,
                       *(a.poly.total_degree() for a in ades)))

    def build(self, max_degree: int):
        """The kernel and the inputs at fields for degree ``max_degree``;
        mod q, raises :class:`_Declined` when an initial vanishes."""
        K = self.K = _Kernel(GrevLex(sorted(self.variables, key=lambda v: v.index)),
                             max_degree, self.variables, self.q)
        field = {idx: (shift, unit) for idx, shift, unit in K.fields}
        self.closure: list = []     # (num, den) of z, z', ...
        self.slots: dict = {}       # ((i, e), ...) -> (num, den) of prod (z^(i))^e
        # per input: (leader shift, leader^d, d, initial, polynomial); mod q
        # the initial is 1 once the input is made monic
        self.inputs = []
        for a in self.ades:
            shift, unit = field[a.leader.index]
            d = a.leader_degree
            poly = self.encode(a.poly)
            # the initial: the terms of leader degree d, over leader^d
            lc = K.sort({m - d * unit: c for m, c in zip(*poly)
                         if m >> shift & K.mask == d})
            if not lc[0]:
                raise _Declined
            if self.q and lc[0] == [0]:
                inv = pow(lc[1][0], -1, self.q)
                lc, poly = _ONE, (poly[0], [c * inv % self.q for c in poly[1]])
            self.inputs.append((shift, d * unit, d, lc, poly))
        self.yfields = [field[v.index] for v in self.ys]
        self.ymask = sum(K.mask << shift for shift, _ in self.yfields)
        self.ymonos: dict = {}      # Y fields of a monomial -> that Y monomial

    def widen(self, rows):
        """Rebuild the kernel with wider fields.  When the solve of ``rows``
        outgrew them, every minor is within the Bareiss bound of those rows
        (each row's largest entry degree, summed), so one rebuild at that
        degree suffices; an overflow before the rows exist (``rows`` None)
        doubles the degree."""
        low = self.K.max_degree + 1
        if rows is None:
            self.build(2 * low - 1)
        else:
            self.build(max(low, sum(max(self.K.degree(monos[0])
                                        for monos, _ in (*coeffs, const) if monos)
                                    for coeffs, const in rows)))

    def encode(self, p: Poly):
        """p packed; mod q, the image of p scaled to integer coefficients."""
        K, q = self.K, self.q
        if q is None:
            return K.sort(K.encode(p))
        unit, point = K.unit, self.point
        den = lcm(*(c.denominator for c in p.terms.values()))
        out: dict = {}
        for mono, c in p.terms.items():
            m, t, deg = 0, c.numerator * (den // c.denominator), 0
            for idx, e in mono:
                u = unit.get(idx)
                if u is not None:
                    m += e * u
                    deg += e
                else:
                    v = point.get((idx, e))
                    if v is None:
                        v = point[idx, e] = pow(7, (5 + idx) * e, q)
                    t *= v
            if deg > K.mask:
                raise K.degree_error()
            out[m] = out.get(m, 0) + t
        return K.sort(out)

    def mul(self, f, g):
        return self.K.sort(self.K.product(f, g))

    def quotient(self, f, g):
        return self.K.quotient(dict(zip(*f)), g)

    def value(self, m, closure_vals):
        """(numerator, denominator) of the slot value of the monomial m,
        left unreduced, from the one of m with one factor fewer."""
        key = tuple((i, e) for i, e in enumerate(m) if e)  # same for every r
        v = self.slots.get(key)
        if v is None:
            if not key:
                v = (_ONE, _ONE)
            else:
                i, e = key[-1]
                num, den = self.value((*m[:i], e - 1), closure_vals)
                while len(self.closure) <= i:
                    c = closure_vals[len(self.closure)]
                    self.closure.append((self.encode(c.num), self.encode(c.den)))
                vnum, vden = self.closure[i]
                v = (self.mul(num, vnum), self.mul(den, vden))
            self.slots[key] = v
        return v

    def gcd(self, f, g):
        return self.encode(poly_gcd(self.decode(f), self.decode(g)))

    def reduce(self, cols, exps=None):
        """The columns pseudo-reduced by each input in lockstep (see
        :func:`assemble_and_solve`); the leader's exponent is its field.
        A step multiplies every column by the input's initial unless that
        is 1, and then counts one in ``exps[j]`` for input j, if given."""
        K = self.K
        mask = K.mask
        for j, (shift, cut, d, lc, poly) in enumerate(self.inputs):
            unit = lc == _ONE
            while (top := max((m >> shift & mask for c in cols for m in c[0]),
                              default=0)) >= d:
                if exps is not None and not unit:
                    exps[j] += 1
                out = []
                for monos, coefs in cols:
                    work = (dict(zip(monos, coefs)) if unit
                            else K.product(lc, (monos, coefs)))
                    # the top part h*u^top, as -h*u^(top-d)
                    hi = [(m - cut, -c) for m, c in zip(monos, coefs)
                          if m >> shift & mask == top]
                    if hi:
                        K.product(tuple(map(list, zip(*hi))), poly, work)
                    out.append(K.sort(work))
                cols = out
        return cols

    def rows(self, cols) -> list:
        """One row per monomial in Y, in the order of that monomial as a
        tuple: a column's term lands in that row with the rest of its
        monomial, and a row with a Fraction coefficient is scaled by the
        lcm of its coefficients' denominators, so that the solve runs on
        ints."""
        K, ymask, ymonos = self.K, self.ymask, self.ymonos
        mask = K.mask
        rows: dict = {}
        for j, (monos, coefs) in enumerate(cols):
            for m, c in zip(monos, coefs):
                yb = m & ymask
                y = ymonos.get(yb)
                if y is None:
                    y = ymonos[yb] = sum((yb >> shift & mask) * unit
                                         for shift, unit in self.yfields)
                row = rows.get(yb)
                if row is None:
                    row = rows[yb] = [([], []) for _ in cols]
                # m - y keeps the column's descending order within a row
                row[j][0].append(m - y)
                row[j][1].append(c)
        out = []
        for yb in sorted(rows, key=K.decode):
            entries = rows[yb]
            if any(type(c) is not int for _, coefs in entries for c in coefs):
                den = lcm(*(c.denominator for _, coefs in entries for c in coefs))
                entries = [(monos, [c.numerator * (den // c.denominator) for c in coefs])
                           for monos, coefs in entries]
            out.append((entries[:-1], entries[-1]))
        return out

    def decode(self, p, z_mono=()) -> Poly:
        return Poly(self.ades[0].ctx, {mono_mul(self.K.decode(m), z_mono): c
                                       for m, c in zip(*p)})


def assemble_and_solve(packing: _Packing, leading, earlier, closure_vals,
                       z_name: str = "z"):
    """Try the ansatz with the given leading monomial (coefficient one) and
    unknowns on the earlier monomials plus a constant slot, all exponent
    tuples.  Returns the solved equation, or None when the linear system is
    inconsistent.

    The pass runs on the packed polynomials of ``packing``, the search's
    :class:`_Packing`, and widens its fields and starts over when they
    overflow (:meth:`_Packing.widen`).  The columns are the constant
    slot's (the common denominator), the earlier monomials' and last the
    lead's, the system's constant.  They are pseudo-reduced by each input
    in lockstep: a step takes the largest leader degree over all columns,
    multiplies every column by the input's initial and cancels each
    column's own top coefficient, which is pseudo-division of
    sum c_i*col_i term for term.  Each monomial in Y then gives one row,
    and the rows go to :func:`solve_linear_ratfunc`, whose free columns
    are those that depend on earlier ones.  Of the equation
    d*z_lead + sum N_i*m_i, each part d and N_i is divided by
    g = gcd(d, N_0, ..., N_k) on its own, since the z-monomials m_i are
    distinct, and only the result is decoded.  No power of z is divided
    out: :func:`ansatz_search` chooses the lead that the branch z = 0
    would leave (see the module docstring), and calls this only for
    candidates that the miss certificate leaves unproven or that confirm
    one of its dependencies."""
    unknowns = [(0,) * len(leading)] + earlier
    while True:
        rows = None     # the rows once built; an overflow after that is the solve's
        try:
            nums, common = over_lcm([packing.value(m, closure_vals)
                                     for m in [leading, *earlier]], _ONE, packing)
            cols = packing.reduce([common, *nums[1:], nums[0]])
            if not any(monos for monos, _ in cols):
                return None
            rows = packing.rows(cols)
            solution = solve_linear_ratfunc(LinearSystem(unknowns, rows, packing.K))
            break
        except ResourceCapError:
            packing.widen(rows)
    if solution is None:
        return None
    sol, d = solution

    # d*z_lead + sum N_i*m_i over g = gcd(d, N_0, ..., N_k): for each prime
    # its exponent in d/g is the largest in any reduced denominator of
    # N_i/d, so up to a constant this is the numerator of z_lead + sum
    # (N_i/d)*m_i over the lcm of those denominators (the m_i are distinct
    # monomials in z, so no factor of d/g divides it)
    g = d
    for n in sol:
        if g[0] == [0]:
            break
        if packing.quotient(n, g) is None:
            g = packing.gcd(g, n)
    ctx = closure_vals[0].ctx
    z_id = ctx.indeterminate(z_name)
    terms: dict = {}
    for m, part in zip([leading, *unknowns], [d, *sol]):
        z_mono = tuple((ctx.diff_var(z_id, i).index, e) for i, e in enumerate(m) if e)
        if part[0]:
            if g != _ONE:
                part = packing.quotient(part, g)
            terms.update(packing.decode(part, z_mono).terms)
    return normalize_ade(Poly(ctx, terms), dep=z_id)


def _point_image(ades):
    """The miss certificate's image, a :class:`_Packing` mod _PRIME, or None
    when an input's initial vanishes mod _PRIME."""
    try:
        return _Packing(ades, None, _PRIME)
    except _Declined:
        return None


def _independent_prefixes(img, over, k: int, monos: list):
    """Yield, for each monomial m_i of ``monos`` in turn, the pair (miss,
    support), from an echelon form mod q of the columns of the constant
    slot and of m_0, m_1, ... in the image ``img`` (a :class:`_Packing`
    mod q, or None).  ``over`` holds the numerators of z, ..., z^(r) over
    L, the lcm of their denominators, and L, as :func:`over_lcm` returns
    them.  Column i is built only when answer i is asked for.

    A column independent of the earlier ones joins the echelon form, and
    support is None.  A column that reduces to zero stays out of it, and
    support lists, in increasing order, the columns with a nonzero
    coefficient in its relation mod q, 0 for the constant slot and j + 1
    for m_j; the echelon goes on.  Each echelon vector carries its
    combination of the columns as a dict, reduced along with it, and only
    independent columns enter one, so a support names m_i and independent
    columns only; a lift to a common exponent of the initials multiplies
    every column by one factor and leaves the combinations as they are.

    miss is whether the column is independent at the point.  Once every
    earlier dependency is confirmed exact, that proves the candidate with
    lead m_i a miss (see the module docstring); the caller confirms them.
    The answers stop, and the generator returns, where the certificate
    cannot answer: at once when ``img`` is None or the constant's column is
    zero mod q, and at a column that outgrows the kernel's fields."""
    if img is None:
        return
    nums, L = over

    def element(f, exps=None):
        """f reduced, with its exponent of each initial."""
        exps = list(exps or [0] * len(img.inputs))
        return img.reduce([f], exps)[0], exps

    def times(a, b):
        exps = [x + y for x, y in zip(a[1], b[1])]
        if a[0][0] == [0]:
            a, b = b, a
        if b[0][0] == [0]:
            # a reduced element times a constant stays reduced
            c, q = b[0][1][0], img.q
            return (a[0][0], [v * c % q for v in a[0][1]]), exps
        return element(img.mul(a[0], b[0]), exps)

    def initials(exps):
        """The product of each input's initial to the power exps[j]."""
        out = _ONE
        for (*_, lc, _), e in zip(img.inputs, exps):
            for _ in range(e):
                out = img.mul(out, lc)
        return out

    def subtract(v: dict, c, w: dict):
        """v -= c*w mod q, dropping the entries that vanish."""
        q = img.q
        for m, x in w.items():
            r = (v.get(m, 0) - c * x) % q
            if r:
                v[m] = r
            else:
                v.pop(m, None)

    # (pivot, vector, its combination of columns), both scaled so that the
    # vector is 1 at its pivot; each vector is zero at the earlier pivots
    basis: list = []

    def independent(v: dict, combination: dict):
        """Reduce v and its combination by the basis; if v stays nonzero,
        add it and return None, else return the combination, a relation
        among the columns."""
        for piv, b, bc in basis:
            c = v.get(piv)
            if c:
                subtract(v, c, b)
                subtract(combination, c, bc)
        if not v:
            return combination
        q = img.q
        piv = next(iter(v))
        inv = pow(v[piv], -1, q)
        basis.append((piv, {m: c * inv % q for m, c in v.items()},
                      {j: c * inv % q for j, c in combination.items()}))
        return None

    # the exponents of the initials that every column is lifted to
    common = [0] * len(img.inputs)

    def insert(col, j: int):
        """Add column j; its support if it is dependent, else None."""
        f, exps = col
        top = [max(a, b) for a, b in zip(common, exps)]
        if top != common:
            # lift the basis: each initial is nonzero and free of the
            # leaders, so the lifted vectors stay reduced and independent
            lift = initials([t - c for t, c in zip(top, common)])
            lifted = [(img.mul(img.K.sort(b), lift), bc) for _, b, bc in basis]
            basis.clear()
            common[:] = top
            for v, bc in lifted:
                independent(dict(zip(*v)), bc)
        if exps != common:
            f = img.mul(f, initials([c - e for c, e in zip(common, exps)]))
        relation = independent(dict(zip(*f)), {j: 1})
        return None if relation is None else sorted(relation)

    try:
        base = [element(img.encode(n)) for n in nums]
        powers = [element(_ONE)]        # L^0, ..., L^k
        L_img = element(img.encode(L))
        for _ in range(k):
            powers.append(times(powers[-1], L_img))
        prods = {(0,) * len(nums): powers[0]}
        if insert(powers[k], 0) is not None:
            return
        for j, m in enumerate(monos, 1):
            i = next(i for i, e in enumerate(m) if e)
            prod = prods[m] = times(prods[(*m[:i], m[i] - 1, *m[i + 1:])], base[i])
            deg = sum(m)
            support = insert(prod if deg == k else times(powers[k - deg], prod), j)
            yield support is None, support
    except ResourceCapError:
        return


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
    equation found.  z^(r) is derived on reaching order r, and order 0 is
    skipped when :func:`_transcendental` proves its one candidate a miss.

    Every lead of the order, of any degree, has one canonical answer (see
    the module docstring): its equation, or None where it is
    inconsistent, settled once, when the search first needs it, by one
    rule: a proven miss, else the lead m/z^e for the largest e whose lead
    is consistent, else a confirmed dependency's exact pass cut to its
    support, else the full pass.  The certificate's answer for a column
    holds only while every earlier dependency is exact, so before the
    search relies on it, it confirms those dependencies in column order,
    up to that column.  A dependency that even the full pass cannot
    confirm was an unlucky point: the search closes the certificate and
    forgets its answers from that column on."""
    if k < 1:
        raise ArgumentError("degree bound must be at least 1")
    ades = list(ades)
    _output_id(R.num.ctx, z_name, ades)
    if order_cap is None:
        order_cap = sum(a.order for a in ades) + 1
    vals = derivative_closure(R, ades, 0)
    img = _point_image(ades)
    # z, ..., z^(r) over the lcm of their denominators, for the certificate
    over = ([], Poly.const(R.num.ctx, 1))
    packing = None      # built at the first exact pass

    def exact(i, earlier=None):
        """The exact pass for the lead monos[i], on ``earlier`` or on every
        earlier monomial."""
        nonlocal packing
        packing = packing or _Packing(ades, R)
        if earlier is None:
            earlier = monos[:i]
        return assemble_and_solve(packing, monos[i], earlier, vals, z_name=z_name)

    def confirmed_before(i):
        """Settle the dependencies before column i in column order; whether
        the certificate still answers at i."""
        for c in range(i):
            if told[c][1] is not None:
                status(c)
        return told[i] != _NO_ANSWER

    def status(i):
        if i not in known:
            known[i] = settle(i)
        return known[i]

    def settle(i):
        if told[i][0] and confirmed_before(i):
            return None         # a proven miss
        m = monos[i]
        for e in range(min(m[0], sum(m) - 1), 0, -1):
            # the lead m/z^e for the largest consistent e: the branch z = 0
            found = status(monos.index((m[0] - e, *m[1:])))
            if found is not None:
                return found
        support = told[i][1]
        if support is not None and confirmed_before(i):
            # the unknowns on the support, whose last column is the lead's,
            # else the full pass
            found = exact(i, [monos[j - 1] for j in support[:-1] if j]) or exact(i)
            if found is None:
                # the rank mod q fell short of the exact one at column i
                answers.close()
                told[i:] = [_NO_ANSWER] * (len(told) - i)
            return found
        return exact(i)

    for r in range(order_cap + 1):
        if r:
            vals.append(derivative_closure(vals[-1], ades, 1)[1])
        over = over_lcm([(vals[r].num, vals[r].den)], over[1], nums=over[0])
        if not r and _transcendental(R, ades):
            continue
        monos = enumerate_delta(k, r)
        answers = _independent_prefixes(img, over, k, monos)
        told: list = []         # the certificate's answer for each column
        known: dict = {}        # column -> the status of its lead
        for i, leading in enumerate(monos):
            told.append(next(answers, _NO_ANSWER))
            if sum(leading) == k:
                found = status(i)
                if found is not None:
                    # settle's closure keeps the generator, and with it the
                    # echelon form, alive until the cycle collector runs
                    answers.close()
                    return found
    raise AnsatzNotFoundError(k, order_cap)
