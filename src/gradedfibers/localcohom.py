"""Graded local cohomology supported in the positively graded block.

The working route resolves the module, applies top local cohomology to
each free term (inverse-monomial strands) and reads off homology ranks
strand by strand.  Over a field that is exact; over a parameter base it
computes the generic fiber together with certifying minors.

The cross check reroutes through graded duality (Ext against the
canonically twisted ring) whenever the grading allows it, and through a
minimalized resolution otherwise.  Disagreement between routes is not a
mathematical possibility; it raises DualityMismatch and means the
engine is broken.
"""

from __future__ import annotations

from .errors import AlgebraError, DualityMismatch
from . import groebner, resolution, strands


class CohomologyTable:
    """dims[(i, degree)] = fiber dimension of [H^i]_degree."""

    __slots__ = ("dims", "meta")

    def __init__(self, dims, meta=None):
        self.dims = dict(dims)
        self.meta = dict(meta or {})

    def dim(self, i, degree):
        degree = _as_tuple(degree)
        return self.dims.get((i, degree), 0)

    def rows(self):
        out = []
        for (i, degree), d in sorted(self.dims.items()):
            out.append({"i": i, "degree": list(degree), "dim": d})
        return out


def _as_tuple(degree):
    if isinstance(degree, int):
        return (degree,)
    return tuple(degree)


def _inverse_strand_ranks(res, mu):
    """Generic ranks (with minors) of the top-cohomology strand maps."""
    ranks = {}
    certs = []
    for j in range(1, res.length + 1):
        sm = strands.inverse_strand_matrix(res.map(j), mu)
        rank, minor = sm.generic_rank()
        ranks[j] = rank
        if minor.constant_value() is None:
            certs.append(minor)
    return ranks, certs


def route_dims_at_degree(pres_or_res, mu, ring=None):
    """[H^i]_mu dims for i = 0..r over the (generic) fiber, plus minors.

    Accepts a presentation or an already computed resolution of length
    r + 1.  Exact over a field base; over a parameter base the numbers
    are those of the generic fiber and the returned certificate minors
    cut out the locus where the strand ranks can drop.
    """
    if isinstance(pres_or_res, resolution.Complex):
        res = pres_or_res
        ring = ring or res.ring
    else:
        ring = ring or pres_or_res.ring
        res = free_resolution_for_cohomology(pres_or_res)
    r = ring.nx
    mu = ring.deg_tuple(mu)
    ranks, certs = _inverse_strand_ranks(res, mu)
    dims = {}
    for i in range(r + 1):
        j = r - i
        v = len(strands.inverse_strand_basis(res.module(j), mu))
        rho_in = ranks.get(j + 1, 0)
        rho_out = ranks.get(j, 0)
        dims[i] = v - rho_in - rho_out
    return dims, certs


def free_resolution_for_cohomology(pres):
    """Resolution long enough to read off every H^i through i = 0."""
    return resolution.free_resolution(pres, pres.ring.nx + 1)


def duality_dims_at_degree(pres_or_exts, mu, ring=None):
    """[H^i]_mu via graded duality: the (-mu)-strand of Ext^{r-i} against
    the canonical twist.  Field base, no second block, single grading."""
    if isinstance(pres_or_exts, list):
        exts = pres_or_exts
        ring = ring or exts[0].ring
    else:
        ring = ring or pres_or_exts.ring
        exts = ext_modules_for_duality(pres_or_exts)
    _require_duality_ok(ring)
    r = ring.nx
    mu = ring.deg_tuple(mu)
    neg = tuple(-a for a in mu)
    dims = {}
    for i in range(r + 1):
        ext = exts[r - i]
        dims[i] = _presented_strand_dim(ext, neg)
    return dims


def ext_modules_for_duality(pres):
    ring = pres.ring
    _require_duality_ok(ring)
    delta = ring.canonical_twist()
    twist = tuple(-a for a in delta)
    return resolution.ext_presentations(pres, twist=twist, max_j=ring.nx)


def _require_duality_ok(ring):
    if ring.nz != 0 or ring.ny != 0 or ring.gdim != 1:
        raise AlgebraError(
            "the duality route needs a singly graded field-coefficient ring")


def _presented_strand_dim(pres, mu):
    rel_cols = [c for c in pres.relations.cols if c.data]
    f0 = pres.gens_module
    if f0.rank == 0:
        return 0
    gb = groebner.module_gb(rel_cols, f0) if rel_cols else None
    if gb is None:
        return len(strands.strand_basis(f0, mu))
    generic = f0.ring.nz > 0
    return groebner.quotient_strand_dim(gb, mu, generic=generic)


def local_cohomology_table(pres, degrees, point=None, cross_check=True):
    """Fiber dimensions of [H^i_m(M)]_mu for mu in degrees, i = 0..r.

    With a rational point the module is specialized first and everything
    is exact over the residue field.  With point=None over a parameter
    base the table describes the generic fiber and meta carries the
    certificate locus.  cross_check reruns each strand through an
    independent pipeline and raises DualityMismatch on disagreement.
    """
    ring = pres.ring
    meta = {}
    if point is not None:
        pres = pres.evaluate(point)
        meta["point"] = point.describe()
        ring = pres.ring
    r = ring.nx
    res = free_resolution_for_cohomology(pres)
    dims = {}
    all_certs = []
    degrees = [ring.deg_tuple(d) for d in degrees]
    for mu in degrees:
        d, certs = route_dims_at_degree(res, mu, ring=ring)
        all_certs.extend(certs)
        for i in range(r + 1):
            if d[i] < 0:
                raise AlgebraError(
                    "negative dimension %d for H^%d at %s; the strand ranks"
                    " behind it assume a prime relation ideal" % (d[i], i, mu))
            dims[(i, mu)] = d[i]
    if cross_check:
        _cross_validate(pres, res, degrees, dims)
    if ring.nz > 0:
        from .specialize import _certificate_product

        cert = _certificate_product(all_certs, ring)
        meta["certificate"] = str(cert)
    meta["max_cohomological_index"] = r
    return CohomologyTable(dims, meta)


def _cross_validate(pres, res, degrees, dims):
    ring = pres.ring
    r = ring.nx
    if ring.nz == 0 and ring.ny == 0 and ring.gdim == 1:
        exts = ext_modules_for_duality(pres)
        for mu in degrees:
            other = duality_dims_at_degree(exts, mu, ring=ring)
            for i in range(r + 1):
                if dims[(i, mu)] != other[i]:
                    raise DualityMismatch(
                        "H^%d at %s: strand route %d vs duality route %d"
                        % (i, mu, dims[(i, mu)], other[i]))
    elif ring.nz == 0:
        mres = resolution.minimalize(res)
        for mu in degrees:
            other, _ = route_dims_at_degree(mres, mu, ring=ring)
            for i in range(r + 1):
                if dims[(i, mu)] != other[i]:
                    raise DualityMismatch(
                        "H^%d at %s: raw resolution %d vs minimal %d"
                        % (i, mu, dims[(i, mu)], other[i]))


# -- invariants -------------------------------------------------------------


def _nonzero_presentation(pres):
    f0 = pres.gens_module
    if f0.rank == 0:
        return False
    rel_cols = [c for c in pres.relations.cols if c.data]
    if not rel_cols:
        return True
    gb = groebner.module_gb(rel_cols, f0)
    return any(not gb.contains(f0.basis_vector(i)) for i in range(f0.rank))


def cohomology_invariants(pres):
    """Exact invariants over a field: per-index top degrees, Krull
    dimension, depth, and regularity, all through the duality route."""
    ring = pres.ring
    _require_duality_ok(ring)
    r = ring.nx
    exts = ext_modules_for_duality(pres)
    tops = {}
    nonzero = {}
    for i in range(r + 1):
        ext = exts[r - i]
        if not _nonzero_presentation(ext):
            tops[i] = None
            nonzero[i] = False
            continue
        nonzero[i] = True
        degs = resolution.minimal_generator_degrees(ext)
        indeg = min(s[0] for s in degs)
        tops[i] = -indeg
    alive = [i for i in range(r + 1) if nonzero[i]]
    if alive:
        krull = max(alive)
        depth = min(alive)
        reg = max(tops[i] + i for i in alive)
    else:
        krull = -1  # the zero module
        depth = None
        reg = None
    return {
        "top_degrees": tops,
        "dimension": krull,
        "depth": depth,
        "regularity": reg,
    }
