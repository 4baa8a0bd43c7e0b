"""Degree strands of free modules and maps, over the parameter ring.

A strand of a free module at degree mu is the finite free module over
the base spanned by the (component, monomial) pairs of that degree; a
map of free modules restricts to a matrix with base-ring entries.  The
same machinery covers the inverse-monomial strands used for top local
cohomology, where multiplication kills any term that escapes back to
nonnegative exponents.

Strand matrices are built directly as sparse rows: each column of the
map is grouped by (component, graded part) once, and the group's base
coefficient is one Poly that every strand label of that column shares.
Every rank, reduction and minor runs on those rows through the
elimination kernel of linalg: unit pivots first, then fraction-free
elimination on what remains.  Ranks come in two flavors: at a rational
fiber point (unit pivots of the evaluated constants) and generically
over the base, with a certifying minor whose nonvanishing locus is where
the generic rank is attained.  The points where a strand's rank drops
are read off its cokernel (loci.rank_drop_locus); its minors ideals are
the reference the tests hold that locus to.
"""

from __future__ import annotations

from .errors import AlgebraError
from . import linalg


def strand_basis(module, mu):
    """Labels (component, exponents) of the monomial basis of [F]_mu."""
    ring = module.ring
    mu = ring.deg_tuple(mu)
    out = []
    for i, s in enumerate(module.shifts):
        want = tuple(a - b for a, b in zip(mu, s))
        for m in ring.monomials_of_degree(want):
            out.append((i, m))
    return out


def inverse_strand_basis(module, mu):
    """Labels for the inverse-monomial strand (negative x exponents)."""
    ring = module.ring
    mu = ring.deg_tuple(mu)
    out = []
    for i, s in enumerate(module.shifts):
        want = tuple(a - b for a, b in zip(mu, s))
        for m in ring.inverse_monomials_of_degree(want):
            out.append((i, m))
    return out


class StrandMatrix:
    """A strand of a graded map: rows and columns labeled by monomials,
    entries in the base ring (z-only polynomials of the ambient ring).

    The matrix is stored as sparse rows: data[i] maps a column index to
    the nonzero entry of row i there.  Every elimination runs on these
    rows through the one kernel of linalg; ``entries`` is a dense view
    built on request.
    """

    __slots__ = ("ring", "rows", "cols", "data", "_reduction", "_generic_rank", "_minors")

    def __init__(self, ring, rows, cols, data):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data
        self._reduction = None
        self._generic_rank = None
        self._minors = {}

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.cols)

    @property
    def entries(self):
        """Dense rows of base polynomials (read-only, rebuilt per call)."""
        zero = self.ring.zero()
        return [[row.get(j, zero) for j in range(self.ncols)] for row in self.data]

    def reduced(self):
        """Clear unit entries: (smaller StrandMatrix, pivot count).

        A nonzero constant entry is a unit of the base, so elementary
        row and column operations split it off; these stay invertible
        at every fiber.  By Fitting's lemma the size-s minors of the
        original generate the same ideal as the size-(s - pivots)
        minors of the reduction, and every evaluated rank drops by
        exactly pivots.
        """
        if self._reduction is not None:
            return self._reduction
        pivots, residual = linalg.unit_pivots(self.data, self.ring)
        used = {j for _i, j in pivots}
        keep = [j for j in range(self.ncols) if j not in used]
        index = {j: k for k, j in enumerate(keep)}
        red = StrandMatrix(
            self.ring,
            [self.rows[i] for i in residual],
            [self.cols[j] for j in keep],
            [{index[j]: p for j, p in row.items()} for row in residual.values()])
        red._reduction = (red, 0)
        self._reduction = (red, len(pivots))
        return self._reduction

    def rank_at(self, point):
        """Rank of the strand at a rational fiber point.  Evaluated there,
        its nonzero entries are constants of the fiber ring, all units, so
        the unit pivots take the whole rank."""
        red, piv = self.reduced()
        if piv:
            return piv + red.rank_at(point)
        if not point.is_rational:
            raise AlgebraError("generic points have no scalar values")
        rows = [{j: v for j, p in row.items() if not (v := point.evaluate(p)).is_zero()}
                for row in self.data]
        return len(linalg.unit_pivots(rows, self.ring.fiber_ring())[0])

    def generic_rank(self):
        """(rank over Frac(base), certifying minor) for a domain base.

        Computed once per strand, like the reduction: the strand route
        and the loci that pair the same strands read it again for free.
        """
        if self._generic_rank is None:
            rank, minor = 0, self.ring.one()
            red, piv = self.reduced() if self.rows and self.cols else (self, 0)
            if red.rows and red.cols:
                rank, _r, _c, minor = linalg.domain_rank(red.data, self.ring)
            self._generic_rank = (rank + piv, minor)
        return self._generic_rank

    def minors_ideal(self, size):
        """Generators of the ideal of size x size minors, as base polys.

        The tests' reference for loci.rank_drop_locus, which no command
        reaches.  Memoized per size.  The minors of the unit-free
        reduction stand for those of the strand (see reduced).  Over a
        domain base none is nonzero above the generic rank, and a square
        reduction of full generic rank has one minor, the certifying
        minor of generic_rank, up to sign; any other size is enumerated
        one minor at a time, so the count of submatrices is capped.
        """
        if size <= 0:
            return [self.ring.one()]
        if size > min(self.nrows, self.ncols):
            return []
        out = self._minors.get(size)
        if out is None:
            out = self._minors[size] = self._minors_of_size(size)
        return out

    def _minors_of_size(self, size):
        from itertools import combinations
        from math import comb

        red, piv = self.reduced()
        size -= piv
        if size <= 0:
            return [self.ring.one()]
        if size > min(red.nrows, red.ncols):
            return []
        if self.ring.base_is_domain:
            rank, minor = self.generic_rank()
            if size > rank - piv:
                return []
            if size == red.nrows == red.ncols:
                return [minor]
        if comb(red.nrows, size) * comb(red.ncols, size) > 200000:
            raise AlgebraError(
                "minor enumeration too large (%d x %d strand, size %d); "
                "use a smaller degree window" % (red.nrows, red.ncols, size))
        out = []
        for rset in combinations(red.data, size):
            for cset in combinations(range(red.ncols), size):
                sub = [{k: row[j] for k, j in enumerate(cset) if j in row} for row in rset]
                d = linalg.domain_det(sub, self.ring)
                if not d.is_zero():
                    out.append(d)
        return out


def strand_matrix(fmap, mu):
    """The matrix of [fmap]_mu over the base ring, monomial bases."""
    ring = fmap.ring
    rows = strand_basis(fmap.target, mu)
    cols = strand_basis(fmap.source, mu)
    ng = ring.ngraded
    pad = (0,) * ring.nz

    def image(g, m):
        return tuple(g[k] + m[k] for k in range(ng)) + pad

    return _strand_of(fmap, rows, cols, image)


def inverse_strand_matrix(fmap, rows, cols):
    """Strand of the map induced on top local cohomology of free modules.

    rows and cols are the inverse_strand_basis labels of the target and
    the source at one degree, which the caller shares between the two
    strands that border a module.  Basis labels carry negative x
    exponents; multiplying by a monomial adds exponents and kills the
    term if any x exponent becomes >= 0.
    """
    ring = fmap.ring
    nx = ring.nx
    ng = ring.ngraded
    pad = (0,) * ring.nz

    def image(g, m):
        new = tuple(g[k] + m[k] for k in range(ng))
        if nx and max(new[:nx]) >= 0:
            return None  # escaped the inverse range: dies in cohomology
        return new + pad

    return _strand_of(fmap, rows, cols, image)


def _strand_of(fmap, rows, cols, image):
    """Sparse rows of a strand: column (j, m) of the strand holds, at row
    label (i, image(g, m)), the base coefficient of column j of fmap at
    (component i, graded part g), the sum of its terms c * z^f there;
    parts with no image are dropped.  Each column of fmap is grouped by
    (component, graded part) once, and a group's coefficient is one Poly
    shared by every label of that column."""
    from .rings import Poly

    ring = fmap.ring
    ng = ring.ngraded
    zpad = (0,) * ng
    row_index = {lab: k for k, lab in enumerate(rows)}
    groups = {}  # column of fmap -> [(component, graded part, coefficient)]
    data = [{} for _ in rows]
    for cidx, (j, m) in enumerate(cols):
        group = groups.get(j)
        if group is None:
            acc = {}
            for (i, e), c in fmap.cols[j].data.items():
                acc.setdefault((i, e[:ng]), {})[zpad + e[ng:]] = c
            group = groups[j] = [(i, g, Poly(ring, zterms)) for (i, g), zterms in acc.items()]
        for i, g, coeff in group:
            xy = image(g, m)
            if xy is None:
                continue
            ridx = row_index.get((i, xy))
            if ridx is None:
                raise AlgebraError("map is not homogeneous across the strand")
            if coeff.terms:
                data[ridx][cidx] = coeff
    return StrandMatrix(ring, rows, cols, data)


def scalar_rank(rows, ring):
    """Rank of a dense matrix over the coefficient field of ring: the
    unit pivots of its entries as constants of the fiber ring."""
    fring = ring.fiber_ring()
    rows = [{j: fring.constant(v) for j, v in enumerate(row) if v} for row in rows]
    return len(linalg.unit_pivots(rows, fring)[0])


def presentation_strand_dim(pres, mu, point=None):
    """dim over the fiber of [M]_mu for a presented module.

    point is a rational fiber point; with point=None the base must be a
    domain and the result is the dimension over the generic fiber,
    returned as (dim, certificate).
    """
    sm = strand_matrix(pres.relations, mu)
    total = sm.nrows
    if point is not None:
        return total - sm.rank_at(point)
    rank, minor = sm.generic_rank()
    return total - rank, minor
