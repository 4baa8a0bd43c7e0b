"""Graded local cohomology supported in the positively graded block.

The working route reads the module's one resolution, owned by its
presentation (Presentation.resolution), applies top local cohomology to
each free term (inverse-monomial strands) and reads off homology ranks
strand by strand.  Over a field that is exact; over a parameter base it
computes the generic fiber together with certifying minors.
cohomology_strands is the one place that pairs strands with
cohomological indices, and the complex keeps them for the jump loci.

Every table over a field base is cross checked; there is no switch to
turn the check off.  The check reroutes the same minimal resolution
through graded duality (Ext against the canonically twisted ring)
whenever the grading allows it, reading each degree off the one
relation basis of each Ext module.  Otherwise it reruns the strand
route on the raw resolution that the minimal one was cut down from,
which differs from it by split exact pieces only.  Resolving the module
a second time would add no independence, since resolving is
deterministic.  Disagreement between routes is not a mathematical
possibility; it raises DualityMismatch and means the engine is broken.
"""

from __future__ import annotations

from .errors import AlgebraError, DualityMismatch
from . import groebner, resolution, strands
from .rings import squarefree_part


class CohomologyTable:
    """dims[(i, degree)] = fiber dimension of [H^i]_degree."""

    __slots__ = ("dims", "meta")

    def __init__(self, dims, meta=None):
        self.dims = dict(dims)
        self.meta = dict(meta or {})


def cohomology_strands(res, mu):
    """The strand pairs that carry [H^i]_mu, for i = 0..r.

    res resolves M to length r + 1, r = nx.  Top local cohomology turns
    it into a complex of inverse strands, and [H^i]_mu is its homology
    at F_{r-i}: entry i is (lam_in, lam_out), the inverse strands of
    d_{r-i+1} and d_{r-i}.  Each strand of d_0 .. d_{r+1} (zero maps at
    both ends) is built once, so the strand of d_j serves H^{r-j} as
    lam_out and H^{r-j+1} as lam_in, and its memoized generic rank is
    shared too.  res keeps the pairs of each degree unless it is raw.
    """
    pairs = res.kept.get(("strands", mu))
    if pairs is None:
        r = res.ring.nx
        lam = [strands.inverse_strand_matrix(res.map(j), mu) for j in range(r + 2)]
        pairs = [(lam[r - i + 1], lam[r - i]) for i in range(r + 1)]
        if res.raw is not None:  # a raw complex is read once, by the cross check
            res.kept[("strands", mu)] = pairs
    return pairs


def route_dims_at_degree(res, mu):
    """[H^i]_mu dims for i = 0..r over the (generic) fiber, plus minors.

    res is a resolution of length r + 1 (Presentation.resolution).
    Exact over a field base; over a parameter base the numbers are those
    of the generic fiber and the returned certificate minors cut out the
    locus where the strand ranks can drop.
    """
    pairs = cohomology_strands(res, res.ring.deg_tuple(mu))
    dims = {}
    certs = []
    rank_out = 0  # lam_out of H^r is d_0, into the zero module
    for i in reversed(range(len(pairs))):
        lam_in, lam_out = pairs[i]
        rank_in, minor = lam_in.generic_rank()
        dims[i] = lam_out.ncols - rank_in - rank_out
        if minor.constant_value() is None:
            certs.append(minor)
        rank_out = rank_in  # lam_in of H^i is lam_out of H^(i-1)
    return dims, certs


def duality_dims_at_degree(exts, mu):
    """[H^i]_mu via graded duality: the (-mu)-strand of Ext^{r-i} against
    the canonical twist.  Field base, no second block, single grading;
    exts is ext_modules_for_duality's list."""
    ring = exts[0].ring
    r = ring.nx
    mu = ring.deg_tuple(mu)
    neg = tuple(-a for a in mu)
    return {i: groebner.quotient_strand_dim(exts[r - i].gb(), neg) for i in range(r + 1)}


def ext_modules_for_duality(res):
    """Ext^j(M, R(-delta)) for j = 0..r, from M's resolution res."""
    ring = res.ring
    _require_duality_ok(ring)
    delta = ring.canonical_twist()
    twist = tuple(-a for a in delta)
    return resolution.ext_presentations(res, twist=twist)


def _require_duality_ok(ring):
    if ring.nz != 0 or ring.ny != 0 or ring.gdim != 1:
        raise AlgebraError(
            "the duality route needs a singly graded field-coefficient ring")


def local_cohomology_table(pres, degrees, point=None):
    """Fiber dimensions of [H^i_m(M)]_mu for mu in degrees, i = 0..r.

    With a rational point the module is specialized first and everything
    is exact over the residue field.  With point=None over a parameter
    base the table describes the generic fiber and meta carries the
    certificate locus, the squarefree product of the certifying minors.
    Over a field base every table is cross checked (_cross_validate)
    and a disagreement raises DualityMismatch.
    """
    ring = pres.ring
    meta = {}
    if point is not None:
        pres = pres.evaluate(point)
        meta["point"] = point.describe()
        ring = pres.ring
    r = ring.nx
    res = pres.resolution()
    dims = {}
    all_certs = []
    degrees = [ring.deg_tuple(d) for d in degrees]
    for mu in degrees:
        d, certs = route_dims_at_degree(res, mu)
        all_certs.extend(certs)
        for i in range(r + 1):
            if d[i] < 0:
                raise AlgebraError(
                    "negative dimension %d for H^%d at %s; the strand ranks"
                    " behind it assume a prime relation ideal" % (d[i], i, mu))
            dims[(i, mu)] = d[i]
    _cross_validate(res, degrees, dims)
    if ring.nz > 0:
        meta["certificate"] = str(squarefree_part(*all_certs, ring=ring))
    meta["max_cohomological_index"] = r
    return CohomologyTable(dims, meta)


def _cross_validate(res, degrees, dims):
    """Check dims, read off the minimal resolution res, on a field base.

    Singly graded, the duality route recomputes them from the Ext
    modules of res, reading every degree off each module's one relation
    basis (Presentation.gb).  Otherwise the strand route reruns on
    res.raw, the resolution before minimalization, whose extra terms
    form split exact pieces.
    """
    ring = res.ring
    if ring.nz:
        return
    if ring.ny == 0 and ring.gdim == 1:
        exts = ext_modules_for_duality(res)
        what = "strand route %d vs duality route %d"
        others = [duality_dims_at_degree(exts, mu) for mu in degrees]
    else:
        what = "minimal resolution %d vs raw %d"
        others = [route_dims_at_degree(res.raw, mu)[0] for mu in degrees]
    for mu, other in zip(degrees, others):
        for i in range(ring.nx + 1):
            if dims[(i, mu)] != other[i]:
                raise DualityMismatch(
                    ("H^%d at %s: " + what) % (i, mu, dims[(i, mu)], other[i]))


# -- invariants -------------------------------------------------------------


def cohomology_invariants(pres):
    """Exact invariants over a field: per-index top degrees, Krull
    dimension, depth, and regularity, all through the duality route."""
    ring = pres.ring
    _require_duality_ok(ring)
    r = ring.nx
    exts = ext_modules_for_duality(pres.resolution())
    tops = {}
    nonzero = {}
    for i in range(r + 1):
        ext = exts[r - i]
        f0 = ext.gens_module
        if all(ext.gb().contains(f0.basis_vector(k)) for k in range(f0.rank)):
            tops[i] = None
            nonzero[i] = False
            continue
        nonzero[i] = True
        degs = resolution.minimal_presentation(ext).gens_module.shifts
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
