"""Free resolutions, duals and Ext presentations.

Resolutions are built stepwise from kernel Groebner bases.  Over a field
this can be minimalized afterwards; over a parameter base the complex is
kept as computed, since minimal resolutions need not exist globally and
the stepwise kernels already give exactness wherever we use it.
"""

from __future__ import annotations

from .errors import AlgebraError
from .modules import FreeMap, FreeModule, Presentation
from . import groebner


class Complex:
    """A chain complex of free modules: maps[i-1] is d_i : F_i -> F_{i-1}."""

    __slots__ = ("modules", "maps")

    def __init__(self, modules, maps, check=False):
        self.modules = list(modules)
        self.maps = list(maps)
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


def minimalize(complex_, keep_end=False):
    """Homotopy-reduce away scalar unit entries; minimal over a field.

    Cancelling a unit at row r, column c of d_i replaces d_i by its
    Schur complement, deletes row c of d_{i+1} and column r of d_{i-1}.
    With keep_end the generators of F_0 are preserved (useful when F_0's
    basis has external meaning).
    """
    ring = complex_.ring
    mats = [None]
    for i in range(1, complex_.length + 1):
        mats.append([row[:] for row in complex_.map(i).entries()])
    shifts = [list(m.shifts) for m in complex_.modules]

    def find_unit():
        start = 2 if keep_end else 1
        for i in range(start, len(mats)):
            m = mats[i]
            for r in range(len(m)):
                for c in range(len(m[r])):
                    p = m[r][c]
                    cv = p.constant_value()
                    if cv is not None and cv:
                        return i, r, c, cv
        return None

    while True:
        hit = find_unit()
        if hit is None:
            break
        i, r, c, u = hit
        m = mats[i]
        nrows, ncols = len(m), len(m[0])
        uinv = ring.constant(ring.field.one / u)
        col_c = [m[rr][c] for rr in range(nrows)]
        row_r = m[r]
        new = []
        for rr in range(nrows):
            if rr == r:
                continue
            new_row = []
            for cc in range(ncols):
                if cc == c:
                    continue
                new_row.append(m[rr][cc] - col_c[rr] * row_r[cc] * uinv)
            new.append(new_row)
        mats[i] = new
        del shifts[i][c]
        del shifts[i - 1][r]
        if i + 1 < len(mats):
            up = mats[i + 1]
            mats[i + 1] = [row for k, row in enumerate(up) if k != c]
        if i - 1 >= 1:
            down = mats[i - 1]
            mats[i - 1] = [[row[k] for k in range(len(row)) if k != r] for row in down]

    modules = [FreeModule(ring, tuple(s)) for s in shifts]
    # a zero module past F_0 ends the complex: stages beyond it are what a
    # truncated resolution leaves uncancelled, not part of the resolution
    for i in range(1, len(modules)):
        if modules[i].rank == 0:
            del modules[i:], mats[i:]
            break
    maps = []
    for i in range(1, len(modules)):
        maps.append(FreeMap.from_entries(modules[i - 1], modules[i], mats[i],
                                         check=False))
    return Complex(modules, maps)


def minimal_presentation(pres):
    """Presentation with no scalar unit entries in the relation matrix."""
    c = minimalize(Complex([pres.gens_module, pres.relations.source],
                           [pres.relations]))
    if c.length == 0:
        return Presentation.of_free(c.module(0))
    return Presentation(c.map(1))


def minimal_generator_degrees(pres):
    return list(minimal_presentation(pres).gens_module.shifts)


def homology_presentation(complex_, i):
    """Presentation of H_i = ker(d_i)/im(d_{i+1}) of a chain complex.

    Returns (presentation, inclusion) where inclusion carries the
    homology generators into F_i.
    """
    fi = complex_.module(i)
    if fi.rank == 0:
        z = FreeModule(complex_.ring, [])
        return Presentation.of_free(z), FreeMap(z, fi, [], check=False)
    d_out = complex_.map(i)
    d_in = complex_.map(i + 1)
    if i == 0 or d_out.target.rank == 0 or d_out.is_zero():
        kgens = [fi.basis_vector(j) for j in range(fi.rank)]
    else:
        kgens = groebner.kernel_gens(d_out)
    if not kgens:
        z = FreeModule(complex_.ring, [])
        return Presentation.of_free(z), FreeMap(z, fi, [], check=False)
    bgens = [col for col in d_in.cols if col.data]
    return groebner.subquotient_presentation(kgens, bgens, fi)


def ext_presentations(pres, twist=None, max_j=None):
    """Presentations of Ext^j(M, R(twist)) for j = 0..max_j.

    max_j defaults to the number of positively graded generators of the
    x block, the cohomological range relevant downstream.
    """
    ring = pres.ring
    if twist is None:
        twist = ring.zero_degree()
    if max_j is None:
        max_j = ring.nx
    res = free_resolution(pres, max_j + 1)
    out = []
    for j in range(max_j + 1):
        out.append(_ext_at(res, j, twist))
    return out


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


def ext_presentation(pres, j, twist=None):
    ring = pres.ring
    if twist is None:
        twist = ring.zero_degree()
    res = free_resolution(pres, j + 1)
    return _ext_at(res, j, twist)


def top_dual_cokernel(pres, twist=None):
    """Cokernel of the transposed last differential one past the x count.

    For a resolution F_{r+1} -> F_r -> ... this is coker(d_{r+1}^T), the
    top outlier module whose fiber behavior also has to be controlled
    when cohomology and base change are compared.
    """
    ring = pres.ring
    r = ring.nx
    if twist is None:
        twist = ring.zero_degree()
    res = free_resolution(pres, r + 1)
    if res.length < r + 1:
        return Presentation.of_free(FreeModule(ring, []))
    d = res.map(r + 1).transpose(twist)
    return Presentation(d)


def betti_csv(table):
    """CSV text for a Betti table: position, degree, count."""
    lines = ["position,degree,count"]
    def degkey(item):
        (i, s), _n = item
        return (i, s)
    for (i, s), n in sorted(table.items(), key=degkey):
        stxt = ";".join(str(a) for a in s)
        lines.append("%d,%s,%d" % (i, stxt, n))
    return "\n".join(lines) + "\n"
