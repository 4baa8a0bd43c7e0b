"""One exact elimination kernel over sparse rows.

A matrix is a list of rows, each a dict {column index: nonzero entry}.
Two eliminations run on that representation.

Unit-pivot elimination splits off entries that are units of the base,
taking the first row that holds a unit, at its first unit column.  It
serves strand matrices, the differentials of a resolution, which
resolution.free_resolution cancels as it resolves, and strands at a
fiber point, whose nonzero entries are all units: there the pivots take
the whole rank.  Every matrix runs on the int term dicts of _int_rows,
each with an int row scale, and a unit is an entry whose one term is a
constant.  With the pivot's constant c, a row R with entry a in the
pivot column becomes (c*R - a*P)/g, g the gcd of c and the content of a
signed like c, with scale c/g times its own, and the gcd of its content
and its scale is divided out (over GF(p) it becomes R - (a/c)*P).  Over
a base with relations each product a*q is reduced modulo them by the int
reducer of the ring's relation basis (Ring.base_basis), which works on
the int terms as they are, so entries stay in normal form and a unit
shows as one; the residual becomes Polys once, at the end.

Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) ranks a
matrix over a domain, taking pivots column by column from the first
unused row with a nonzero entry.  After k steps an entry is the
(k+1)-minor on the pivot rows and columns bordered by its own row and
column, so every division is exact and the last pivot is the determinant
of the pivot submatrix: the certifying minor of the rank.

Bareiss runs on Python ints, not on Polys.  Each entry becomes a raw
term dict {monomial: int}: over QQ every row is first multiplied by the
lcm of its denominators, over GF(p) the coefficients are residues mod
p.  Over a base with relations the raw terms are lifts to the
relation-free ring, where exact division holds.  Each monomial is
packed into one int (_packed), a field of bits per variable with a
guard bit on top, wide enough that no field overflows: a product of
monomials is an int addition, and a divisibility test is one
subtraction read off the guard bits.  The exact divisions pop terms in
plain int order, a lex order and so a monomial order; the quotient of
an exact division does not depend on the order it is computed in.
Terms are unpacked only to test a pivot modulo the relations, by the
same int reducer, and to turn a certifying minor or a determinant into
a Poly again at the end, divided by the scales of the rows it was taken
from.

A Bareiss step only rescales a row whose entry in the pivot column is
zero, by p_k / p_{k-1}.  Such rows are left alone: each row records the
step its stored values belong to, and the rescaling is folded into the
next step that does change it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod

from .errors import AlgebraError, BaseNotDomain
from .rings import Poly, _from_ints, _mul_terms


def unit_pivots(rows, ring):
    """Split off the unit entries of a matrix over ring.

    rows are sparse rows of Polys of ring: base polynomials for a strand,
    any polynomials for a differential, constants of a fiber ring for a
    strand at a point.  Returns (pivots,
    residual): pivots lists the (row, column) of each unit pivot in the
    order taken, and residual maps every row that took no pivot to its
    entries in the columns that took none, the Schur complement of the
    pivots.  No entry of the residual is a unit: over a field a matrix of
    constants has as many pivots as its rank.
    """
    p = ring.field.char
    work, scales = _int_rows(rows, p)
    pivots, residual = _unit_eliminate(work, _int_unit_col(ring.nvars), _int_pivot(ring, scales))
    # entries stay in normal form modulo the relations throughout
    return pivots, {i: {j: Poly(ring, _from_ints(p, e, scales[i]), _reduce=False)
                        for j, e in row.items()} for i, row in residual.items()}


def domain_rank(rows, ring):
    """Rank over the fraction field of a domain, with a certifying minor.

    Returns (rank, pivot_rows, pivot_cols, minor), the pivots in the
    order taken; minor is the determinant of the pivot submatrix with
    rows and columns in that order, or one for rank zero.
    """
    if not ring.base_is_domain:
        raise BaseNotDomain("generic rank needs an integral base")
    p = ring.field.char
    work, scales = _int_rows(rows, p)
    work, guard, unpack = _packed(work, ring.nvars)
    if ring.base_rel:
        reduce = ring.base_basis().reduce_terms

        def nonzero(e):
            return bool(reduce(unpack(e))[0])
    else:
        nonzero = None
    steps = list(_bareiss(work, guard, p, nonzero))
    if not steps:
        return 0, [], [], ring.one()
    # the pivot rows were scaled by their denominators
    return (len(steps), [r for r, _c, _p in steps], [c for _r, c, _p in steps],
            _to_poly(ring, unpack(steps[-1][2]), prod(scales[r] for r, _c, _p in steps)))


def domain_det(rows, ring):
    """Determinant of a square matrix given by len(rows) sparse rows."""
    n = len(rows)
    if n == 0:
        return ring.one()
    p = ring.field.char
    work, scales = _int_rows(rows, p)
    work, guard, unpack = _packed(work, ring.nvars)
    order = []
    for k, (r, c, piv) in enumerate(_bareiss(work, guard, p, None)):
        if c != k:
            return ring.zero()  # column k holds no pivot
        order.append(r)
    if len(order) < n:
        return ring.zero()
    # the last pivot is the determinant of the scaled rows in pivot order
    den = prod(scales)
    return _to_poly(ring, unpack(piv), -den if _odd(order) else den)


# -- unit-pivot elimination ---------------------------------------------------


def _unit_eliminate(rows, unit_col, pivot):
    """The loop of unit_pivots.

    unit_col(row) is the first column of a row holding a unit, or None;
    pivot(prow, j) returns update(row, k), which clears column j of row k
    with the pivot row prow.  Updates build new dicts, so the input rows
    are never changed.
    """
    rows = list(rows)
    alive = [True] * len(rows)
    by_col = {}  # column -> rows that may hold it (stale ids are skipped)
    for i, row in enumerate(rows):
        for j in row:
            by_col.setdefault(j, []).append(i)
    # every row is a candidate; a row that gains a unit is pushed again
    heap = list(range(len(rows)))
    pivots = []
    while heap:
        i = heappop(heap)
        if not alive[i]:
            continue
        prow = rows[i]
        j = unit_col(prow)
        if j is None:
            continue
        alive[i] = False
        pivots.append((i, j))
        update = pivot(prow, j)
        for k in by_col.pop(j, ()):
            row = rows[k]
            if not alive[k] or j not in row:
                continue
            new = update(row, k)
            for l in prow:
                if l in new and l not in row:
                    by_col.setdefault(l, []).append(k)
            rows[k] = new
            heappush(heap, k)
    residual = {i: row for i, row in enumerate(rows) if alive[i]}
    return pivots, residual


def _int_unit_col(nvars):
    """First column whose entry is a nonzero constant, a unit of the base."""
    one = (0,) * nvars

    def unit_col(row):
        return min((j for j, e in row.items() if len(e) == 1 and one in e), default=None)

    return unit_col


def _int_pivot(ring, scales):
    """Row update for int term dicts over any base (see above).

    scales[k] is the positive row scale of row k, whose entries are its
    int terms divided by scales[k]; updates change it in place.  A
    reduction modulo the relations that multiplies a product by some m
    scales the row by the lcm of those multipliers.
    """
    p = ring.field.char
    one = (0,) * ring.nvars
    reduce = ring.base_basis().reduce_terms if ring.base_rel else None

    def pivot(prow, j):
        c = prow[j][one]
        others = [(l, q) for l, q in prow.items() if l != j]
        if p and c != 1:
            # over GF(p) the rows take a multiple of P/c, made once
            inv = pow(c, p - 2, p)
            others = [(l, {m: v * inv % p for m, v in q.items()}) for l, q in others]

        def update(row, k):
            a = row[j]
            mult = 1
            if not p:
                # (c*R - a*P)/g, g the gcd of c and a's content signed like c
                g = gcd(c, *a.values())
                g = -g if c < 0 else g
                mult = c // g
                if g != 1:
                    a = {m: v // g for m, v in a.items()}
            prods = [(l, _mul(a, q, p)) for l, q in others]
            if reduce is not None:
                reduced = [(l, *reduce(aq)) for l, aq in prods]
                den = lcm(*(d for _l, _aq, d in reduced))
                prods = [(l, aq if d == den else _scaled(aq, den // d)) for l, aq, d in reduced]
                mult *= den
            if mult == 1:
                new = {l: e for l, e in row.items() if l != j}
            else:
                new = {l: _scaled(e, mult) for l, e in row.items() if l != j}
            for l, aq in prods:
                old = new.get(l)
                v = _sub({}, aq, p) if old is None else _sub(old, aq, p)
                if v:
                    new[l] = v
                else:
                    new.pop(l, None)
            scale = scales[k] * mult
            if scale != 1:
                g = abs(scale)
                for e in new.values():
                    g = gcd(g, *e.values())
                    if g == 1:
                        break
                if g != 1:
                    new = {l: {m: v // g for m, v in e.items()} for l, e in new.items()}
                scales[k] = scale // g
            return new

        return update

    return pivot


# -- fraction-free elimination ------------------------------------------------


def _bareiss(work, guard, p, nonzero):
    """Yield (row, column, pivot) for each fraction-free elimination step.

    work holds sparse rows of packed int term dicts (see _packed) over
    the relation-free polynomial ring, and guard is the packing's mask
    of guard bits.  A row's lead is its first column whose entry passes
    nonzero (every stored entry when nonzero is None); the next pivot is
    the smallest lead, the first row among equals.  Updated rows replace
    their slot in work; the row dicts themselves are never changed.
    """
    if nonzero is None:
        def lead(row):
            return min(row, default=None)
    else:
        def lead(row):
            return min((j for j, e in row.items() if nonzero(e)), default=None)

    heap = []
    for i, row in enumerate(work):
        c = lead(row)
        if c is not None:
            heap.append((c, i))
    heapify(heap)
    leads = {i: c for c, i in heap}  # unused rows that can still pivot
    step = [0] * len(work)  # work[i] holds the row's values after step[i] steps
    pivots = []  # pivots[s] is the pivot of step s
    while heap:
        c, r = heappop(heap)
        if leads.get(r) != c:
            continue
        del leads[r]
        k = len(pivots)
        prow = work[r]
        if step[r] < k:
            scale = pivots[k - 1]
            prow = {j: _packed_mul(e, scale, p) for j, e in prow.items()}
            if step[r]:
                div = pivots[step[r] - 1]
                prow = {j: _packed_div(e, div, guard, p) for j, e in prow.items()}
        piv = prow[c]
        yield r, c, piv
        others = [(j, q) for j, q in prow.items() if j != c]
        for i in list(leads):
            row = work[i]
            a = row.get(c)
            if a is None:
                continue
            new = {j: _packed_mul(e, piv, p) for j, e in row.items() if j != c}
            for j, q in others:
                aq = _packed_mul(a, q, p)
                old = new.get(j)
                v = _sub({}, aq, p) if old is None else _sub(old, aq, p)
                if v:
                    new[j] = v
                else:
                    new.pop(j, None)
            if step[i]:
                div = pivots[step[i] - 1]
                new = {j: _packed_div(e, div, guard, p) for j, e in new.items()}
            work[i] = new
            step[i] = k + 1
            nc = lead(new)
            if nc is None:
                del leads[i]  # zero modulo the relations from here on
            else:
                leads[i] = nc
                heappush(heap, (nc, i))
        pivots.append(piv)


def _packed(work, nvars):
    """(packed rows, guard, unpack) for rows of int term dicts.

    Each exponent tuple becomes one int: the variables that occur take a
    field of w bits each, the first variable in the highest field, so
    that adding two packed ints multiplies the monomials and the int
    order is lex.  An entry after k Bareiss steps is a minor, whose
    exponent of a variable is at most S, the sum over rows of each row's
    largest exponent; a product c*R - a*P before its exact division has
    at most 2S.  The top bit of each field is a guard bit, left clear by
    fields of w - 1 bits that hold 2S, so a borrow out of a field shows
    in guard when one monomial does not divide another (_packed_div).
    unpack(terms) turns a packed term dict back into exponent tuples.
    """
    used = sorted({i for row in work for e in row.values() for m in e
                   for i, a in enumerate(m) if a})
    bound = 2 * sum(max((m[i] for e in row.values() for m in e for i in used), default=0)
                    for row in work)
    width = bound.bit_length() + 1
    shifts = [width * k for k in reversed(range(len(used)))]
    guard = sum(1 << (s + width - 1) for s in shifts)
    mask = (1 << width) - 1
    packed = [{j: {sum(m[i] << s for i, s in zip(used, shifts)): c for m, c in e.items()}
               for j, e in row.items()} for row in work]

    def unpack(terms):
        out = {}
        for m, c in terms.items():
            exps = [0] * nvars
            for i, s in zip(used, shifts):
                exps[i] = (m >> s) & mask
            out[tuple(exps)] = c
        return out

    return packed, guard, unpack


def _packed_mul(a, b, p):
    """a * b for packed int term dicts (see _packed)."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    if p:
        return {m: v for m, c in out.items() if (v := c % p)}
    return {m: c for m, c in out.items() if c}


def _packed_div(terms, dterms, guard, p):
    """Exact quotient of two packed int term dicts, or AlgebraError.

    The largest remaining term, in the int order of the packing (a lex
    order), comes off a heap; the quotient of an exact division does not
    depend on the monomial order it is computed in.  Coefficients are
    ints whose quotients must be integers when p is 0, and ints mod p
    otherwise.
    """
    lead = max(dterms)
    a = dterms[lead]
    if p:
        inv = pow(a, p - 2, p)
    others = [(m, c) for m, c in dterms.items() if m != lead]
    rest = dict(terms)
    heap = [-m for m in rest]
    heapify(heap)
    q = {}
    while heap:
        m = -heappop(heap)
        c = rest.pop(m, None)
        if c is None:
            continue  # cancelled after it was queued
        if ((m | guard) - lead) & guard != guard:
            raise AlgebraError("inexact division")
        qm = m - lead
        if p:
            qc = c * inv % p
        else:
            qc, r = divmod(c, a)
            if r:
                raise AlgebraError("inexact division")
        q[qm] = qc
        for om, oc in others:
            nm = qm + om
            w = qc * oc
            v = rest.get(nm)
            if v is None:
                rest[nm] = -w % p if p else -w
                heappush(heap, -nm)
                continue
            v = v - w
            if p:
                v %= p
            if v:
                rest[nm] = v
            else:
                del rest[nm]
    return q


def _int_rows(rows, p):
    """(rows of int term dicts, row scales) for sparse rows of Polys.

    Over QQ each row is multiplied by the lcm of its denominators, its
    scale; over GF(p) the entries are the residues and every scale is 1.
    Over a base with relations the raw terms are lifts to the
    relation-free ring, where Bareiss' divisions are exact.
    """
    if p:
        return ([{j: {m: c.v for m, c in e.terms.items()} for j, e in row.items()}
                 for row in rows], [1] * len(rows))
    work, scales = [], []
    for row in rows:
        den = lcm(*(c.denominator for e in row.values() for c in e.terms.values()))
        work.append({j: {m: c.numerator * (den // c.denominator) for m, c in e.terms.items()}
                     for j, e in row.items()})
        scales.append(den)
    return work, scales


def _to_poly(ring, terms, den):
    """The Poly terms / den, reduced modulo the relations of ring."""
    return Poly(ring, _from_ints(ring.field.char, terms, den))


def _mul(a, b, p):
    out = _mul_terms(a, b)
    if p:
        return {m: v for m, c in out.items() if (v := c % p)}
    return out


def _sub(a, b, p):
    """a - b for int term dicts, as a new dict."""
    out = dict(a)
    for m, c in b.items():
        v = out.get(m)
        v = -c if v is None else v - c
        if p:
            v %= p
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _scaled(terms, m):
    return {t: v * m for t, v in terms.items()}


def _odd(perm):
    """Parity of a permutation of range(len(perm)), by its cycles."""
    seen = [False] * len(perm)
    odd = False
    for i in range(len(perm)):
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            if not seen[j]:
                odd = not odd
    return odd
