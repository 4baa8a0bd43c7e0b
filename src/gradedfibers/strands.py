"""Degree strands of free modules and maps, over the parameter ring.

A strand of a free module at degree mu is the finite free module over
the base spanned by the (component, monomial) pairs of that degree; a
map of free modules restricts to a matrix with base-ring entries.  The
same machinery covers the inverse-monomial strands used for top local
cohomology, where multiplication kills any term that escapes back to
nonnegative exponents.

Strand matrices are built directly as sparse rows, and every rank,
reduction and minor runs on those rows through the elimination kernel
of linalg: unit pivots first, then fraction-free elimination on what
remains.  Ranks come in two flavors: at a fiber point (exact linear
algebra over the residue field, or over the residue domain for a
generic point) and generically over the base, with a certifying minor
whose nonvanishing locus is where the generic rank is attained.
"""

from __future__ import annotations

from .errors import AlgebraError
from . import groebner, linalg


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

    __slots__ = ("ring", "rows", "cols", "data", "_reduction")

    def __init__(self, ring, rows, cols, data):
        self.ring = ring
        self.rows = rows
        self.cols = cols
        self.data = data
        self._reduction = None

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

    def evaluate(self, point):
        """Scalar matrix at a rational point of the base."""
        zero = self.ring.field.zero
        return [[point.evaluate_scalar(row[j]) if j in row else zero
                 for j in range(self.ncols)] for row in self.data]

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
        """Rank of the strand at a fiber point (rational or generic)."""
        red, piv = self.reduced()
        if piv:
            return piv + red.rank_at(point)
        if point.is_rational:
            rows = [{j: v for j, p in row.items() if (v := point.evaluate_scalar(p))}
                    for row in self.data]
            return linalg.field_rank(rows, self.ring.field)
        if not self.rows or not self.cols:
            return 0
        ring = point.residue_ring
        rows = [{j: q for j, p in row.items() if not (q := point.evaluate_poly(p)).is_zero()}
                for row in self.data]
        return linalg.domain_rank(rows, ring)[0]

    def generic_rank(self):
        """(rank over Frac(base), certifying minor) for a domain base."""
        if not self.rows or not self.cols:
            return 0, self.ring.one()
        red, piv = self.reduced()
        if piv:
            rank, minor = red.generic_rank()
            return rank + piv, minor
        rank, _r, _c, minor = linalg.domain_rank(self.data, self.ring)
        return rank, minor

    def minors_ideal(self, size):
        """Generators of the ideal of size x size minors, as base polys."""
        from itertools import combinations
        from math import comb

        if size <= 0:
            return [self.ring.one()]
        if size > min(self.nrows, self.ncols):
            return []
        red, piv = self.reduced()
        if piv:
            return red.minors_ideal(size - piv)
        ring = self.ring
        if ring.nz == 1 and not ring.base_rel:
            return self._pid_minors(size)
        if comb(self.nrows, size) * comb(self.ncols, size) > 200000:
            raise AlgebraError(
                "minor enumeration too large (%d x %d strand, size %d); "
                "use a smaller degree window" % (self.nrows, self.ncols, size))
        out = []
        for rset in combinations(self.data, size):
            for cset in combinations(range(self.ncols), size):
                sub = [{k: row[j] for k, j in enumerate(cset) if j in row} for row in rset]
                d = linalg.domain_det(sub, ring)
                if not d.is_zero():
                    out.append(d)
        return out

    def _pid_minors(self, size):
        """Minors ideal over a univariate polynomial base.

        That base is a principal ideal domain, so unimodular row and
        column operations diagonalize the strand and the size-s minors
        ideal is generated by the gcd of the s-fold products of the
        diagonal.  No minor is ever enumerated.
        """
        ring = self.ring
        field = ring.field
        zslot = ring.ngraded
        rows = [{j: _ucoeffs(p, zslot) for j, p in row.items()} for row in self.data]
        diag = _smith_diagonal(rows, field)
        if len(diag) < size:
            return []
        # gcd over all size-subsets of products, by one pass of the
        # subset-product dp; None stands for the zero polynomial
        best = [None] * (size + 1)
        best[0] = [field.one]
        for d in diag:
            for m in range(size, 0, -1):
                if best[m - 1] is None:
                    continue
                cand = _umul(best[m - 1], d, field)
                best[m] = cand if best[m] is None else _ugcd(best[m], cand, field)
        g = best[size]
        if g is None:
            return []
        if len(g) == 1:
            return [ring.one()]
        terms = {}
        for e, c in enumerate(g):
            if c:
                exps = [0] * len(ring.names)
                exps[zslot] = e
                terms[tuple(exps)] = c
        from .rings import Poly

        return [Poly(ring, terms).primitive()]


# -- univariate base arithmetic (coefficient lists, index = exponent) --------


def _ucoeffs(p, zslot):
    """Base poly to a dense coefficient list; [] is zero."""
    out = []
    for e, c in p.terms.items():
        k = e[zslot]
        if k >= len(out):
            out.extend([p.ring.field.zero] * (k + 1 - len(out)))
        out[k] = c
    while out and not out[-1]:
        out.pop()
    return out


def _umul(a, b, field):
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = out[i + j] + x * y
    while out and not out[-1]:
        out.pop()
    return out


def _usubmul(a, q, shift, b, field):
    """a - q * u^shift * b in place-ish; returns trimmed copy."""
    out = list(a) + [field.zero] * max(0, shift + len(b) - len(a))
    for j, y in enumerate(b):
        if y:
            out[shift + j] = out[shift + j] - q * y
    while out and not out[-1]:
        out.pop()
    return out


def _udivmod(a, b, field):
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    r = list(a)
    inv = field.one / b[-1]
    while len(r) >= len(b):
        c = r[-1] * inv
        k = len(r) - len(b)
        q[k] = c
        r = _usubmul(r, c, k, b, field)
        if len(r) >= len(b) and not r[-1]:
            while r and not r[-1]:
                r.pop()
    return q, r


def _ugcd(a, b, field):
    a, b = list(a), list(b)
    while b:
        _q, r = _udivmod(a, b, field)
        a, b = b, r
    if a:
        inv = field.one / a[-1]
        a = [c * inv for c in a]  # monic keeps coefficient growth down
    return a


def _smith_diagonal(rows, field):
    """Diagonal of a PID-unimodular diagonalization of sparse rows of
    coefficient lists; entries may repeat or violate divisibility, which
    minors ideals do not care about."""
    rows = [row for row in rows if row]
    diag = []
    while rows:
        i, j = min(((i, j) for i, row in enumerate(rows) for j in row),
                   key=lambda ij: len(rows[ij[0]][ij[1]]))
        prow = rows[i]
        p = prow[j]
        dirty = False
        for k, row in enumerate(rows):
            if k == i or j not in row:
                continue
            q, _r = _udivmod(row[j], p, field)
            new = dict(row)
            for l, v in prow.items():
                x = _usubmul(new.get(l, []), field.one, 0, _umul(q, v, field), field)
                if x:
                    new[l] = x
                else:
                    new.pop(l, None)
            rows[k] = new
            dirty = dirty or j in new
        if not dirty:
            # only the pivot row holds column j now, so clearing its other
            # entries by column operations leaves their remainders there
            for l in [l for l in prow if l != j]:
                _q, r = _udivmod(prow[l], p, field)
                if r:
                    prow[l] = r
                    dirty = True
                else:
                    del prow[l]
        if not dirty:
            diag.append(p)
            del rows[i]
        rows = [row for row in rows if row]
    return diag


def strand_matrix(fmap, mu):
    """The matrix of [fmap]_mu over the base ring, monomial bases."""
    ring = fmap.ring
    rows = strand_basis(fmap.target, mu)
    cols = strand_basis(fmap.source, mu)
    ng = ring.ngraded
    pad = (0,) * ring.nz

    def image(e, m):
        return tuple(e[k] + m[k] for k in range(ng)) + pad

    return _strand_of(fmap, rows, cols, image)


def inverse_strand_matrix(fmap, mu):
    """Strand of the map induced on top local cohomology of free modules.

    Basis labels carry negative x exponents; multiplying by a monomial
    adds exponents and kills the term if any x exponent becomes >= 0.
    """
    ring = fmap.ring
    rows = inverse_strand_basis(fmap.target, mu)
    cols = inverse_strand_basis(fmap.source, mu)
    nx = ring.nx
    ng = ring.ngraded
    pad = (0,) * ring.nz

    def image(e, m):
        new = tuple(e[k] + m[k] for k in range(ng))
        if any(new[k] >= 0 for k in range(nx)):
            return None  # escaped the inverse range: dies in cohomology
        return new + pad

    return _strand_of(fmap, rows, cols, image)


def _strand_of(fmap, rows, cols, image):
    """Sparse rows of a strand: column (j, m) of the strand collects the
    terms c * x^e * z^f of column j of fmap at row label (i, image(e, m)),
    as the base coefficient c * z^f; terms with no image are dropped."""
    from .rings import Poly

    ring = fmap.ring
    ng = ring.ngraded
    zpad = (0,) * ng
    row_index = {lab: k for k, lab in enumerate(rows)}
    data = [{} for _ in rows]
    for cidx, (j, m) in enumerate(cols):
        acc = {}
        for (i, e), c in fmap.cols[j].data.items():
            xy = image(e, m)
            if xy is None:
                continue
            slot = acc.setdefault((i, xy), {})
            zexp = zpad + e[ng:]
            prev = slot.get(zexp)
            slot[zexp] = c if prev is None else prev + c
        for lab, zterms in acc.items():
            ridx = row_index.get(lab)
            if ridx is None:
                raise AlgebraError("map is not homogeneous across the strand")
            p = Poly(ring, {e: c for e, c in zterms.items() if c})
            if p.terms:
                data[ridx][cidx] = p
    return StrandMatrix(ring, rows, cols, data)


def scalar_rank(rows, field):
    """Rank of a dense matrix over the coefficient field."""
    return linalg.field_rank([{j: v for j, v in enumerate(row) if v} for row in rows],
                             field)


def presentation_strand_dim(pres, mu, point=None):
    """dim over the fiber of [M]_mu for a presented module.

    With point=None the base must be a domain and the result is the
    dimension over the generic fiber, returned as (dim, certificate).
    """
    sm = strand_matrix(pres.relations, mu)
    total = sm.nrows
    if point is not None:
        return total - sm.rank_at(point)
    rank, minor = sm.generic_rank()
    return total - rank, minor


def free_complex_strand_homology(complex_, mu, point):
    """Fiber homology dims [h_0, ..., h_length] of a free chain complex."""
    dims = []
    ranks = [0]
    for i in range(1, complex_.length + 1):
        ranks.append(strand_matrix(complex_.map(i), mu).rank_at(point))
    ranks.append(0)
    for i in range(complex_.length + 1):
        v = len(strand_basis(complex_.module(i), mu))
        dims.append(v - ranks[i] - ranks[i + 1])
    return dims


class PresentedComplex:
    """A chain complex whose terms are presented modules.

    terms[i] is a Presentation; maps[i-1] induces d_i on generator
    modules (it must carry relations into relations, which is not
    rechecked here).
    """

    __slots__ = ("terms", "maps")

    def __init__(self, terms, maps):
        if len(terms) != len(maps) + 1:
            raise AlgebraError("need one more term than maps")
        self.terms = list(terms)
        self.maps = list(maps)

    @property
    def length(self):
        return len(self.maps)

    def gen_map(self, i):
        from .modules import FreeMap

        if 1 <= i <= len(self.maps):
            return self.maps[i - 1]
        src = self.terms[i].gens_module if 0 <= i < len(self.terms) else None
        tgt = self.terms[i - 1].gens_module if 1 <= i <= len(self.terms) else None
        ring = self.terms[0].ring
        from .modules import FreeModule

        if src is None:
            src = FreeModule(ring, [])
        if tgt is None:
            tgt = FreeModule(ring, [])
        return FreeMap(src, tgt, [tgt.zero() for _ in range(src.rank)], check=False)


def presented_complex_strand_homology(pc, mu, point):
    """Fiber homology dims of a presented complex, cross-checked two ways.

    The direct route does linear algebra in the evaluated quotient
    spaces; the cokernel route uses only right-exact constructions.
    Both compute the homology of the evaluated complex, so a mismatch
    is an internal error, not a mathematical phenomenon.
    """
    if not point.is_rational:
        raise AlgebraError("fiber homology needs a rational point")
    field = pc.terms[0].ring.field
    n = pc.length
    # evaluated generator strands V_i, relation matrices B_i, maps Phi_i
    V, B, Phi = [], [], [None]
    for i in range(n + 1):
        pres = pc.terms[i]
        V.append(strand_basis(pres.gens_module, mu))
        B.append(strand_matrix(pres.relations, mu).evaluate(point))
    for i in range(1, n + 1):
        Phi.append(strand_matrix(pc.gen_map(i), mu).evaluate(point))

    def rank_of(mat):
        if not mat or not mat[0]:
            return 0
        return scalar_rank(mat, field)

    def hcat(a, b):
        if a is None:
            a = [[] for _ in b] if b is not None else []
        if b is None:
            b = [[] for _ in a]
        return [list(x) + list(y) for x, y in zip(a, b)]

    rank_B = [rank_of(B[i]) for i in range(n + 1)]
    dim_C = [len(V[i]) - rank_B[i] for i in range(n + 1)]

    # direct route: ranks of induced maps between quotients
    r_bar = [0] * (n + 2)
    for i in range(1, n + 1):
        r_bar[i] = rank_of(hcat(Phi[i], B[i - 1])) - rank_B[i - 1]
    direct = [dim_C[i] - r_bar[i] - r_bar[i + 1] for i in range(n + 1)]

    # cokernel route: K_i = coker[Phi_{i+1} | psi_i], all right exact
    dim_K = []
    for i in range(n + 1):
        phi_next = Phi[i + 1] if i + 1 <= n else None
        dim_K.append(len(V[i]) - rank_of(hcat(phi_next, B[i])))
    fourterm = []
    for i in range(n + 1):
        val = dim_K[i]
        if i >= 1:
            val += dim_K[i - 1] - (len(V[i - 1]) - rank_B[i - 1])
        fourterm.append(val)

    if direct != fourterm:
        raise AlgebraError(
            "strand homology routes disagree: %r vs %r" % (direct, fourterm))
    return direct


def fiber_exactness_report(pc, mu, point):
    """Compare homology-then-evaluate against evaluate-then-homology.

    Returns a list of (dim after evaluation, dim of evaluated symbolic
    homology, agree?) triples, one per homological position.  Genuine
    disagreements are the base-change failures this machinery exists to
    locate; they can only appear at positions >= 1.
    """
    fiber_dims = presented_complex_strand_homology(pc, mu, point)
    out = []
    for i in range(pc.length + 1):
        sym = _symbolic_homology_strand_dim(pc, i, mu, point)
        out.append((fiber_dims[i], sym, fiber_dims[i] == sym))
    return out


def _symbolic_homology_strand_dim(pc, i, mu, point):
    """dim at the fiber of the strand of H_i computed over the base."""
    pres, _incl = _presented_complex_homology(pc, i)
    sm = strand_matrix(pres.relations, mu)
    return sm.nrows - sm.rank_at(point)


def _presented_complex_homology(pc, i):
    """Presentation over R of H_i of a presented complex."""
    from .modules import FreeMap

    term = pc.terms[i]
    f0 = term.gens_module
    rel_cols = [c for c in term.relations.cols if c.data]
    d_out = pc.gen_map(i)
    d_in = pc.gen_map(i + 1)
    # cycles: preimage of relations of the target under d_i
    if i == 0 or d_out.target.rank == 0:
        kgens = [f0.basis_vector(k) for k in range(f0.rank)]
    else:
        tgt_rels = [c for c in pc.terms[i - 1].relations.cols if c.data]
        kgens = groebner.preimage_gens(d_out, tgt_rels)
    bgens = [c for c in d_in.cols if c.data] + rel_cols
    return groebner.subquotient_presentation(kgens, bgens, f0)
