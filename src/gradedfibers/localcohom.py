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
whenever the grading allows it: each degree is a coefficient of the
Hilbert series of an Ext module, whose numerator comes from the bases
of the transposed differentials (resolution.ext_numerators), one basis
per differential, with no kernel and no Ext presentation built.  The
invariants read the same numerators, and neither builds the raw
resolution.  Otherwise the check reruns the strand route on the raw
resolution (Complex.raw), built on this first read: the same kernel
loop without the unit cancellation, so its kernels are taken on the
unpruned differentials, and it differs from the minimal one by split
exact pieces only.  Disagreement between routes is not a mathematical
possibility; it raises DualityMismatch and means the engine is broken.
"""

from __future__ import annotations

from .errors import AlgebraError, DualityMismatch
from . import groebner, resolution, strands
from .rings import squarefree_part


class CohomologyTable:
    """dims[(i, degree)] = fiber dimension of [H^i]_degree.

    Over a parameter base meta["certificate"] is the squarefree product
    of the certifying minors, factored on the first read of meta: a
    reader of dims alone never factors them.
    """

    __slots__ = ("dims", "_meta", "_certs")

    def __init__(self, dims, meta=None, certs=None):
        self.dims = dict(dims)
        self._meta = dict(meta or {})
        self._certs = certs  # (ring, certifying minors) until meta is read

    @property
    def meta(self):
        if self._certs is not None:
            ring, minors = self._certs
            self._meta["certificate"] = str(squarefree_part(*minors, ring=ring))
            self._certs = None
        return self._meta


def cohomology_strands(res, mu):
    """The strand pairs that carry [H^i]_mu, for i = 0..r.

    res resolves M to length r + 1, r = nx.  Top local cohomology turns
    it into a complex of inverse strands, and [H^i]_mu is its homology
    at F_{r-i}: entry i is (lam_in, lam_out), the inverse strands of
    d_{r-i+1} and d_{r-i}.  Each strand of d_0 .. d_{r+1} (zero maps at
    both ends) is built once, so the strand of d_j serves H^{r-j} as
    lam_out and H^{r-j+1} as lam_in, and its memoized generic rank is
    shared too.  The inverse strand labels of each F_k (F_-1 and those
    past the complex are zero) are built once and serve the two strands
    that border it.  res keeps the pairs of each degree unless it is raw.
    """
    pairs = res.kept.get(("strands", mu))
    if pairs is None:
        r = res.ring.nx
        labels = [strands.inverse_strand_basis(res.module(k), mu) for k in range(-1, r + 2)]
        lam = [strands.inverse_strand_matrix(res.map(j), labels[j], labels[j + 1])
               for j in range(r + 2)]
        pairs = [(lam[r - i + 1], lam[r - i]) for i in range(r + 1)]
        if res.pruned:  # a raw complex is read once, by the cross check
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


def duality_dims_at_degree(res, mu):
    """[H^i]_mu dims for i = 0..r via graded duality: the coefficient of
    T^-mu in the Hilbert series of Ext^{r-i}(M, R(-delta)), delta the
    canonical twist, read off the numerators kept on res.  Field base, no
    second block, single grading."""
    ring = res.ring
    nums = _duality_numerators(res)
    neg = tuple(-a for a in ring.deg_tuple(mu))
    r = ring.nx
    return {i: groebner._series_coefficient(ring, nums[r - i], neg) for i in range(r + 1)}


def _duality_numerators(res):
    """Numerators of Ext^j(M, R(-delta)) for j = 0..r (ext_numerators)."""
    ring = res.ring
    _require_duality_ok(ring)
    return resolution.ext_numerators(res, twist=tuple(-a for a in ring.canonical_twist()))


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
    meta["max_cohomological_index"] = r
    return CohomologyTable(dims, meta, (ring, all_certs) if ring.nz else None)


def _cross_validate(res, degrees, dims):
    """Check dims, read off the minimal resolution res, on a field base.

    Singly graded, the duality route recomputes them from the Hilbert
    series of the Ext modules of res, whose numerators come from one
    basis per transposed differential (resolution.ext_numerators), and
    res.raw stays unbuilt.  Otherwise the strand route reruns on res.raw,
    the kernel walk without unit cancellation, built on its first read,
    whose extra terms form split exact pieces.
    """
    ring = res.ring
    if ring.nz:
        return
    if ring.ny == 0 and ring.gdim == 1:
        what = "strand route %d vs duality route %d"
        others = [duality_dims_at_degree(res, mu) for mu in degrees]
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
    dimension, depth, and regularity, all through the duality route.

    H^i vanishes exactly when the Hilbert series of Ext^{r-i} does, and
    its top degree is minus the initial degree of Ext^{r-i}, the lowest
    exponent of that series' numerator."""
    ring = pres.ring
    r = ring.nx
    nums = _duality_numerators(pres.resolution())
    tops = {i: -min(d[0] for d in nums[r - i]) if nums[r - i] else None
            for i in range(r + 1)}
    alive = [i for i in range(r + 1) if tops[i] is not None]
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
