"""One exact elimination kernel over sparse rows.

A matrix is a list of rows, each a dict {column index: nonzero entry}.
Two eliminations run on that representation.

Unit-pivot elimination splits off entries that are units of the base,
taking the first row that holds a unit, at its first unit column.  Over
a field base every nonzero entry is a unit, and the entries are the
coefficients of constant polynomials: they are taken out once and
eliminated as plain scalars (Fraction over QQ, ints mod p over GF(p)).

Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) ranks a
matrix over a domain, taking pivots column by column from the first
unused row with a nonzero entry.  After k steps an entry is the
(k+1)-minor on the pivot rows and columns bordered by its own row and
column, so every division is exact and the last pivot is the determinant
of the pivot submatrix: the certifying minor of the rank.  Over a base
with relations the elimination runs on lifts to the relation-free ring,
where exact division holds, and tests pivots modulo the relations.

A Bareiss step only rescales a row whose entry in the pivot column is
zero, by p_k / p_{k-1}.  Such rows are left alone: each row records the
step its stored values belong to, and the rescaling is folded into the
next step that does change it.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import BaseNotDomain
from .rings import Poly, Ring


def unit_pivots(rows, ring):
    """Split off the unit entries of a matrix over the base ring.

    rows are sparse rows of base polynomials.  Returns (pivots,
    residual): pivots lists the (row, column) of each unit pivot in the
    order taken, and residual maps every row that took no pivot to its
    entries in the columns that took none, the Schur complement of the
    pivots.  No entry of the residual is a unit.
    """
    if ring.nz:
        return _unit_eliminate(rows, _poly_unit_col, _poly_pivot)
    p = ring.field.char
    if p:
        scalars = [{j: e.constant_value().v for j, e in row.items()} for row in rows]
    else:
        scalars = [{j: e.constant_value() for j, e in row.items()} for row in rows]
    pivots, residual = _unit_eliminate(scalars, _scalar_unit_col, _scalar_pivot(p))
    return pivots, {i: {j: ring.constant(v) for j, v in row.items()}
                    for i, row in residual.items()}


def field_rank(rows, field):
    """Rank of sparse rows of field elements (Fraction or ModInt)."""
    p = field.char
    if p:
        rows = [{j: v.v for j, v in row.items()} for row in rows]
    pivots, _residual = _unit_eliminate(rows, _scalar_unit_col, _scalar_pivot(p))
    return len(pivots)


def domain_rank(rows, ring):
    """Rank over the fraction field of a domain, with a certifying minor.

    Returns (rank, pivot_rows, pivot_cols, minor), the pivots in the
    order taken; minor is the determinant of the pivot submatrix with
    rows and columns in that order, or one for rank zero.
    """
    if not ring.base_is_domain:
        raise BaseNotDomain("generic rank needs an integral base")
    lift, work = _lifted(rows, ring)
    if ring.base_rel:
        def nonzero(e):
            return bool(ring._reduce_base(dict(e.terms)))
    else:
        nonzero = None
    steps = list(_bareiss(work, lift, nonzero))
    if not steps:
        return 0, [], [], ring.one()
    return (len(steps), [r for r, _c, _p in steps], [c for _r, c, _p in steps],
            _lower(steps[-1][2], ring))


def domain_det(rows, ring):
    """Determinant of a square matrix given by len(rows) sparse rows."""
    n = len(rows)
    if n == 0:
        return ring.one()
    lift, work = _lifted(rows, ring)
    order = []
    for k, (r, c, p) in enumerate(_bareiss(work, lift, None)):
        if c != k:
            return ring.zero()  # column k holds no pivot
        order.append(r)
    if len(order) < n:
        return ring.zero()
    # the last pivot is the determinant with rows in pivot order
    return _lower(-p if _odd(order) else p, ring)


# -- unit-pivot elimination ---------------------------------------------------


def _unit_eliminate(rows, unit_col, pivot):
    """Shared loop of unit_pivots and field_rank.

    unit_col(row) is the first column of a row holding a unit, or None;
    pivot(prow, j) returns the update that clears column j of a row with
    the pivot row prow.  Updates build new dicts, so the input rows are
    never changed.
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
            new = update(row)
            for l in prow:
                if l in new and l not in row:
                    by_col.setdefault(l, []).append(k)
            rows[k] = new
            heappush(heap, k)
    residual = {i: row for i, row in enumerate(rows) if alive[i]}
    return pivots, residual


def _scalar_unit_col(row):
    return min(row, default=None)


def _scalar_pivot(p):
    """Row update for scalars: Fractions when p is 0, else ints mod p."""

    def pivot(prow, j):
        inv = pow(prow[j], p - 2, p) if p else 1 / prow[j]
        others = [(l, q) for l, q in prow.items() if l != j]

        def update(row):
            f = row[j] * inv
            new = dict(row)
            del new[j]
            for l, q in others:
                v = new.get(l, 0) - f * q
                if p:
                    v %= p
                if v:
                    new[l] = v
                else:
                    new.pop(l, None)
            return new

        return update

    return pivot


def _poly_unit_col(row):
    """First column holding a nonzero constant, the units of the base."""
    units = [j for j, e in row.items() if e.constant_value() is not None]
    return min(units, default=None)


def _poly_pivot(prow, j):
    inv = prow[j].ring.field.one / prow[j].constant_value()
    others = [(l, q) for l, q in prow.items() if l != j]

    def update(row):
        scale = row[j].map_coeffs(lambda v: v * inv)
        new = dict(row)
        del new[j]
        for l, q in others:
            old = new.get(l)
            v = -(scale * q) if old is None else old - scale * q
            if v:
                new[l] = v
            else:
                new.pop(l, None)
        return new

    return update


# -- fraction-free elimination ------------------------------------------------


def _bareiss(work, lift, nonzero):
    """Yield (row, column, pivot) for each fraction-free elimination step.

    work holds sparse rows over the relation-free ring lift.  A row's
    lead is its first column whose entry passes nonzero (every stored
    entry when nonzero is None); the next pivot is the smallest lead,
    the first row among equals.  Updated rows replace their slot in work;
    the row dicts themselves are never changed.
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
    divisors = [lift.one()]  # divisors[s] is the pivot of step s - 1
    while heap:
        c, r = heappop(heap)
        if leads.get(r) != c:
            continue
        del leads[r]
        k = len(divisors) - 1
        prow = work[r]
        if step[r] < k:
            scale = divisors[k]
            prow = {j: e * scale for j, e in prow.items()}
            if step[r]:
                div = divisors[step[r]]
                prow = {j: e.exact_div(div) for j, e in prow.items()}
        p = prow[c]
        yield r, c, p
        others = [(j, q) for j, q in prow.items() if j != c]
        for i in list(leads):
            row = work[i]
            a = row.get(c)
            if a is None:
                continue
            new = {j: e * p for j, e in row.items() if j != c}
            for j, q in others:
                old = new.get(j)
                v = -(a * q) if old is None else old - a * q
                if v:
                    new[j] = v
                else:
                    new.pop(j, None)
            if step[i]:
                div = divisors[step[i]]
                new = {j: e.exact_div(div) for j, e in new.items()}
            work[i] = new
            step[i] = k + 1
            nc = lead(new)
            if nc is None:
                del leads[i]  # zero modulo the relations from here on
            else:
                leads[i] = nc
                heappush(heap, (nc, i))
        divisors.append(p)


def _lifted(rows, ring):
    """(relation-free ring, copies of rows lifted to it)."""
    if not ring.base_rel:
        return ring, list(rows)
    lift = _relation_free(ring)
    return lift, [{j: Poly(lift, dict(e.terms), _reduce=False) for j, e in row.items()}
                  for row in rows]


def _lower(e, ring):
    """A lifted element back in ring, reduced modulo the relations."""
    if ring.base_rel:
        return Poly(ring, dict(e.terms))
    return e


def _relation_free(ring):
    return Ring(ring.field, ring.names, ring.nx, ring.ny, ring.nz, ring.degrees,
                ring.psi, ring.order, [], [])


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
