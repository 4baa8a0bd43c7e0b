"""Free resolutions, duals and Ext presentations.

Resolutions are built stepwise from kernel Groebner bases, which leaves
them far from minimal: the rational quartic resolves with ranks
[1, 4, 9, 15, 20, 22] against a minimal [1, 4, 4, 1].  minimalize
cancels the unit entries (nonzero constants) through the unit-pivot
kernel of linalg, over any base.  Over a field the result is the minimal
resolution; over a parameter base it prunes only the constant units,
which are units at every fiber, since minimal resolutions need not exist
globally.  The result keeps the raw complex it came from, which
localcohom reads as the independent check of the minimal one.  Only
Presentation.resolution calls free_resolution, and the presentation owns
the complex.  The Ext modules (kept on the complex per twist) and the
top dual cokernel are read off it; they never resolve the module.
"""

from __future__ import annotations

from .errors import AlgebraError
from .modules import FreeMap, FreeModule, Presentation, Vector
from .rings import Poly
from . import groebner, linalg


class Complex:
    """A chain complex of free modules: maps[i-1] is d_i : F_i -> F_{i-1}.

    raw is the complex that minimalize reduced to this one, None for a
    complex built directly.  kept holds what readers built from it, by
    key: Ext modules per twist (ext_presentations) and inverse strands
    per degree (localcohom.cohomology_strands).
    """

    __slots__ = ("modules", "maps", "raw", "kept")

    def __init__(self, modules, maps, check=False, raw=None):
        self.modules = list(modules)
        self.maps = list(maps)
        self.raw = raw
        self.kept = {}
        if len(self.modules) != len(self.maps) + 1:
            raise AlgebraError("a complex needs one more module than maps")
        if check:
            self.check()

    @property
    def ring(self):
        return self.modules[0].ring

    @property
    def length(self):
        return len(self.maps)

    def module(self, i):
        if 0 <= i < len(self.modules):
            return self.modules[i]
        return FreeModule(self.ring, [])

    def map(self, i):
        """d_i : F_i -> F_{i-1}; the zero map outside the stored range."""
        if 1 <= i <= len(self.maps):
            return self.maps[i - 1]
        src = self.module(i)
        tgt = self.module(i - 1)
        return FreeMap(src, tgt, [tgt.zero() for _ in range(src.rank)], check=False)

    def check(self):
        for i in range(2, self.length + 1):
            comp = self.map(i - 1).compose(self.map(i))
            if not comp.is_zero():
                raise AlgebraError("differential composite is nonzero at step %d" % i)

    def dual(self, twist=None):
        """The dualized complex, reindexed as a chain complex.

        Position i of the dual holds F_{length-i}^*; homology there is
        Ext^{length-i} against R(twist) when self is a resolution.
        """
        r = self.length
        if twist is None:
            twist = self.ring.zero_degree()
        mods = [self.modules[r - i].dual(twist) for i in range(r + 1)]
        maps = []
        for i in range(1, r + 1):
            maps.append(self.map(r - i + 1).transpose(twist))
        return Complex(mods, maps)

    def betti_table(self):
        """Counts of generator degrees per homological position.

        Only meaningful as graded Betti numbers when the complex is a
        minimal resolution.
        """
        table = {}
        for i, mod in enumerate(self.modules):
            for s in mod.shifts:
                key = (i, s)
                table[key] = table.get(key, 0) + 1
        return table

    def __str__(self):
        parts = []
        for i, mod in enumerate(self.modules):
            shifts = ",".join(str(list(s) if len(s) > 1 else s[0]) for s in mod.shifts)
            parts.append("F%d=R^%d(%s)" % (i, mod.rank, shifts))
        return " <- ".join(parts)


def free_resolution(pres, length):
    """Resolution of the presented module out to homological degree `length`.

    The tail map is pres.relations as given; each further map's columns
    are a kernel Groebner basis of the previous one.  Stops early when a
    kernel vanishes.
    """
    modules = [pres.gens_module]
    maps = []
    current = pres.relations
    for _step in range(1, length + 1):
        modules.append(current.source)
        maps.append(current)
        if _step == length:
            break
        ker = groebner.kernel_gens(current)
        if not ker:
            break
        current = FreeMap.from_columns(current.source, ker, check=False)
    return Complex(modules, maps)


def minimalize(complex_):
    """Homotopy-reduce away unit entries; minimal over a field.

    The result keeps complex_ as its raw.  Stage by stage from d_1 up,
    linalg.unit_pivots cancels the unit entries of d_i and replaces d_i
    by the Schur complement of its pivots.  A pivot at row r, column c
    of d_i drops basis element r of F_{i-1}, a column of d_{i-1}, and
    basis element c of F_i, a row of d_{i+1}.  Dropping only deletes
    entries, so no stage gains a unit after its turn.
    """
    ring = complex_.ring
    alive = [list(range(m.rank)) for m in complex_.modules]  # surviving basis
    residuals = []  # d_i's rows that took no pivot, by F_{i-1} index
    for i in range(1, complex_.length + 1):
        rows = alive[i - 1]
        pivots, residual = linalg.unit_pivots(_sparse_rows(complex_.map(i), rows), ring)
        residuals.append({rows[k]: row for k, row in residual.items()})
        alive[i - 1] = [r for k, r in enumerate(rows) if k in residual]
        dropped = {c for _k, c in pivots}
        alive[i] = [c for c in alive[i] if c not in dropped]

    # a zero module past F_0 ends the complex: stages beyond it are what a
    # truncated resolution leaves uncancelled, not part of the resolution
    end = next((i for i in range(1, len(alive)) if not alive[i]), len(alive))
    modules = [FreeModule(ring, [complex_.modules[k].shifts[j] for j in alive[k]])
               for k in range(end)]
    maps = []
    for i in range(1, end):
        col_index = {c: n for n, c in enumerate(alive[i])}
        cols = [{} for _ in alive[i]]
        for n, r in enumerate(alive[i - 1]):
            for c, p in residuals[i - 1][r].items():
                k = col_index.get(c)
                if k is not None:
                    for e, coef in p.terms.items():
                        cols[k][(n, e)] = coef
        target = modules[i - 1]
        maps.append(FreeMap(modules[i], target, [Vector(target, d) for d in cols],
                            check=False))
    return Complex(modules, maps, raw=complex_)


def _sparse_rows(fmap, rows):
    """The rows of fmap's matrix at the given target indices, as sparse
    rows {column: Poly}."""
    index = {r: k for k, r in enumerate(rows)}
    out = [{} for _ in rows]
    for c, col in enumerate(fmap.cols):
        entries = {}
        for (r, e), coef in col.data.items():
            k = index.get(r)
            if k is not None:
                entries.setdefault(k, {})[e] = coef
        for k, terms in entries.items():
            out[k][c] = Poly(fmap.ring, terms, _reduce=False)
    return out


def minimal_presentation(pres):
    """Presentation with no scalar unit entries in the relation matrix."""
    c = minimalize(Complex([pres.gens_module, pres.relations.source],
                           [pres.relations]))
    if c.length == 0:
        return Presentation.of_free(c.module(0))
    return Presentation(c.map(1))


def ext_presentations(res, twist=None):
    """Presentations of Ext^j(M, R(twist)) for j = 0..r, read off a
    resolution res of M, where r = nx is the cohomological range that
    local duality needs.

    res must reach past r (length at least r + 1) or have ended, as
    Presentation.resolution's does; res keeps the list per twist.
    """
    ring = res.ring
    twist = ring.zero_degree() if twist is None else ring.deg_tuple(twist)
    if ("ext", twist) not in res.kept:
        res.kept["ext", twist] = [_ext_at(res, j, twist) for j in range(ring.nx + 1)]
    return res.kept["ext", twist]


def _ext_at(res, j, twist):
    """Ext^j from a resolution: homology of the dual at position j."""
    ring = res.ring
    if j > res.length:
        return Presentation.of_free(FreeModule(ring, []))
    fj_dual = res.module(j).dual(twist)
    d_next = res.map(j + 1)  # zero map beyond stored length
    d_j = res.map(j)
    if j + 1 > res.length:
        # resolution ended exactly here: the dual of the zero map is zero,
        # so the kernel is everything
        kgens = [fj_dual.basis_vector(i) for i in range(fj_dual.rank)]
    else:
        kgens = groebner.kernel_gens(d_next.transpose(twist))
    if not kgens:
        return Presentation.of_free(FreeModule(ring, []))
    if j == 0:
        bgens = []
    else:
        bgens = [c for c in d_j.transpose(twist).cols if c.data]
    present, _incl = groebner.subquotient_presentation(kgens, bgens, fj_dual)
    return present


def top_dual_cokernel(res):
    """Cokernel of the transposed last differential one past the x count.

    For a resolution res = F_{r+1} -> F_r -> ... of M this is
    coker(d_{r+1}^T), the top outlier module whose fiber behavior also
    has to be controlled when cohomology and base change are compared.
    """
    ring = res.ring
    r = ring.nx
    if res.length < r + 1:
        return Presentation.of_free(FreeModule(ring, []))
    return Presentation(res.map(r + 1).transpose())
