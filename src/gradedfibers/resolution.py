"""Free resolutions, duals and Ext presentations.

free_resolution resolves a presented module minimally as it goes: each
differential's columns are a kernel Groebner basis of the previous
differential, and before that kernel is taken the unit entries (nonzero
constants) of the differential are cancelled through the unit-pivot
kernel of linalg, so every kernel is taken on the pruned Schur
complement.  Over a field the result is the minimal resolution: the
rational quartic resolves with ranks [1, 4, 4, 1].  Over a parameter
base it prunes only the constant units, which are units at every fiber,
since minimal resolutions need not exist globally.  The same kernel loop
without the cancellation gives the raw resolution, far from minimal (the
quartic's is [1, 4, 9, 15, 20, 22]); the minimal complex builds it on
the first read of its raw attribute, and localcohom reads it as the
independent check of multigraded field-base tables.  minimalize runs the
same cancellation stage over a complex already built.  Only
Presentation.resolution calls free_resolution, and the presentation owns
the complex.  The Ext modules, their Hilbert series numerators (each
kept on the complex per twist) and the top dual cokernel are read off
it; they never resolve the module.  The numerators serve the duality
route of localcohom over a field, from one basis per transposed
differential.  The Ext presentations serve loci.duality_exclusion_locus,
which needs the modules themselves over the parameter base for their
non-free loci.
"""

from __future__ import annotations

from functools import partial

from .errors import AlgebraError
from .modules import FreeMap, FreeModule, Presentation, Vector
from .rings import Poly
from . import groebner, linalg


class Complex:
    """A chain complex of free modules: maps[i-1] is d_i : F_i -> F_{i-1}.

    raw is the complex that unit cancellation cut this one down from,
    None for a complex built directly.  free_resolution's complex holds
    the raw walk unbuilt and builds it on the first read of raw; pruned
    tells whether there is a raw complex without building it.  kept holds
    what readers built from it, by key: Ext modules and Ext numerators
    per twist (ext_presentations, ext_numerators) and inverse strands per
    degree (localcohom.cohomology_strands).
    """

    __slots__ = ("modules", "maps", "_raw", "kept")

    def __init__(self, modules, maps, raw=None):
        self.modules = list(modules)
        self.maps = list(maps)
        self._raw = raw  # a Complex, or a function that builds it
        self.kept = {}
        if len(self.modules) != len(self.maps) + 1:
            raise AlgebraError("a complex needs one more module than maps")

    @property
    def raw(self):
        if callable(self._raw):
            self._raw = self._raw()
        return self._raw

    @property
    def pruned(self):
        """Whether this complex was cut down from a raw one."""
        return self._raw is not None

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

    def __str__(self):
        parts = []
        for i, mod in enumerate(self.modules):
            shifts = ",".join(str(list(s) if len(s) > 1 else s[0]) for s in mod.shifts)
            parts.append("F%d=R^%d(%s)" % (i, mod.rank, shifts))
        return " <- ".join(parts)


def free_resolution(pres, length):
    """Resolution of the presented module out to homological degree
    `length`, with each differential's unit entries cancelled before its
    kernel is taken: minimal over a field, less its constant units over
    a parameter base.

    d_1 is pres.relations less its unit pivots.  The complex's raw is
    the same walk without the cancellation, built on its first read from
    the relations map alone, so it holds no reference to pres.
    """
    return _walk(pres.relations, length, True)


def _walk(relations, length, cancel):
    """The kernel loop: d_1 is relations and each further map's columns
    are a kernel Groebner basis of the previous one, taken after that one
    lost its unit pivots when cancel is set.  Stops early when a kernel
    vanishes."""
    stages = _Cancellation(relations.target) if cancel else None
    modules, maps = [relations.target], []
    current = relations
    for step in range(1, length + 1):
        if stages is None:
            modules.append(current.source)
            maps.append(current)
        else:
            stages.cancel(current, range(current.target.rank))
            current = stages.map(step)
        if step == length:
            break
        ker = groebner.kernel_gens(current)
        if not ker:
            break
        current = FreeMap.from_columns(current.source, ker, check=False)
    if stages is None:
        return Complex(modules, maps)
    return stages.complex(partial(_walk, relations, length, False))


def minimalize(complex_):
    """Homotopy-reduce away unit entries; minimal over a field.

    The result keeps complex_ as its raw.  Stage by stage from d_1 up,
    the cancellation stage that free_resolution runs while it resolves
    (_Cancellation.cancel) takes d_i's unit pivots.
    """
    stages = _Cancellation(complex_.module(0))
    for i in range(1, complex_.length + 1):
        stages.cancel(complex_.map(i), stages.alive[i - 1])
    return stages.complex(complex_)


class _Cancellation:
    """Unit cancellation of a complex's differentials, one stage per map
    from d_1 up.

    modules[k] is F_k as it came in, alive[k] the indices of its basis
    elements that survive so far, and residuals[i-1] the rows of d_i that
    took no pivot, by F_{i-1} index, each a sparse row {F_i index: Poly}.
    """

    __slots__ = ("ring", "modules", "alive", "residuals")

    def __init__(self, f0):
        self.ring = f0.ring
        self.modules = [f0]
        self.alive = [list(range(f0.rank))]
        self.residuals = []

    def cancel(self, fmap, rows):
        """Take d_i = fmap, whose rows at `rows` are the survivors of
        F_{i-1}, in order.

        linalg.unit_pivots cancels the unit entries of d_i and replaces
        d_i by the Schur complement of its pivots.  A pivot at row r,
        column c of d_i drops basis element r of F_{i-1}, a column of
        d_{i-1}, and basis element c of F_i, a row of d_{i+1}.  Dropping
        only deletes entries, so no stage gains a unit after its turn.
        """
        survivors = self.alive[-1]
        pivots, residual = linalg.unit_pivots(_sparse_rows(fmap, rows), self.ring)
        self.residuals.append({survivors[k]: row for k, row in residual.items()})
        self.alive[-1] = [r for k, r in enumerate(survivors) if k in residual]
        dropped = {c for _k, c in pivots}
        self.modules.append(fmap.source)
        self.alive.append([c for c in range(fmap.source.rank) if c not in dropped])

    def module(self, k):
        """The survivors of F_k."""
        return FreeModule(self.ring, [self.modules[k].shifts[j] for j in self.alive[k]])

    def map(self, i):
        """d_i between the survivors of F_i and F_{i-1}."""
        source, target = self.module(i), self.module(i - 1)
        col_index = {c: n for n, c in enumerate(self.alive[i])}
        cols = [{} for _ in self.alive[i]]
        residual = self.residuals[i - 1]
        for n, r in enumerate(self.alive[i - 1]):
            for c, p in residual[r].items():
                k = col_index.get(c)
                if k is not None:
                    for e, coef in p.terms.items():
                        cols[k][(n, e)] = coef
        return FreeMap(source, target, [Vector(target, d) for d in cols], check=False)

    def complex(self, raw):
        """The survivors as a complex whose raw is `raw`.

        A zero module past F_0 ends it: stages beyond it are what a
        truncated resolution leaves uncancelled, not part of the
        resolution.
        """
        alive = self.alive
        end = next((i for i in range(1, len(alive)) if not alive[i]), len(alive))
        return Complex([self.module(k) for k in range(end)],
                       [self.map(i) for i in range(1, end)], raw=raw)


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


def ext_numerators(res, twist=None):
    """Hilbert series numerators of Ext^j(M, R(twist)) for j = 0..r over
    the generic fiber, read off a resolution res of M as ext_presentations
    reads the modules, and kept on res per twist.

    Ext^j is ker d_{j+1}^T / im d_j^T inside F_j^*, so by rank-nullity
    in each degree N(Ext^j) = Q_j - N(F_{j+1}^*) + Q_{j+1}, where Q_k is
    the numerator of F_k^* / im d_k^T: the hilbert_numerator of one basis
    of the transposed differential's columns, or N(F_k^*) when they are
    all zero.  One basis per differential serves two values of j, and no
    kernel is computed.  Like ext_presentations, it needs res to reach
    past r or to have ended.
    """
    ring = res.ring
    twist = ring.zero_degree() if twist is None else ring.deg_tuple(twist)
    if ("extnum", twist) not in res.kept:
        quotients, frees = [], []
        for k in range(ring.nx + 2):
            free = res.module(k).dual(twist)
            cols = [c for c in res.map(k).transpose(twist).cols if c.data]
            frees.append(groebner.free_numerator(free))
            quotients.append(groebner.module_gb(cols, free).hilbert_numerator() if cols
                             else frees[-1])
        out = []
        for j in range(ring.nx + 1):
            num = dict(quotients[j])
            for sign, part in ((-1, frees[j + 1]), (1, quotients[j + 1])):
                for d, v in part.items():
                    num[d] = num.get(d, 0) + sign * v
            out.append({d: v for d, v in num.items() if v})
        res.kept["extnum", twist] = out
    return res.kept["extnum", twist]


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
