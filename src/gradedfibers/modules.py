"""Graded free modules, their elements, maps and cokernel presentations.

A vector is stored as a flat dict keyed by (component, exponent tuple);
the Groebner engine works on these dicts directly.  Maps are column
based: col j is the image of the j-th source basis vector, and source
shifts are pinned down by homogeneity.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlgebraError, NotHomogeneous, RingMismatch
from .rings import Poly

__all__ = ["FreeModule", "Vector", "FreeMap", "Presentation"]


class FreeModule:
    """Free module with one degree shift per basis vector; F = (+) R(-s_i)."""

    __slots__ = ("ring", "shifts")

    def __init__(self, ring, shifts):
        self.ring = ring
        self.shifts = tuple(ring.deg_tuple(s) for s in shifts)

    @property
    def rank(self):
        return len(self.shifts)

    def __eq__(self, other):
        return (
            isinstance(other, FreeModule)
            and self.ring == other.ring
            and self.shifts == other.shifts
        )

    def __hash__(self):
        return hash((self.ring, self.shifts))

    def __repr__(self):
        if self.ring.gdim == 1:
            s = ",".join(str(d[0]) for d in self.shifts)
        else:
            s = ",".join(str(d) for d in self.shifts)
        return "FreeModule[%s]" % s

    def zero(self):
        return Vector(self, {})

    def basis_vector(self, i):
        if not 0 <= i < self.rank:
            raise AlgebraError("basis index %d out of range" % i)
        one = self.ring.field.one
        return Vector(self, {(i, (0,) * self.ring.nvars): one})

    def element(self, polys):
        """Vector from a list of Polys, one per component."""
        polys = list(polys)
        if len(polys) != self.rank:
            raise AlgebraError("expected %d components, got %d" % (self.rank, len(polys)))
        data = {}
        for i, p in enumerate(polys):
            p = self.ring.poly(p)
            for e, c in p.terms.items():
                data[(i, e)] = c
        return Vector(self, data)

    def dual(self, twist=None):
        """Hom(F, R(twist)); basis vector i gets degree -shift_i - twist."""
        t = self.ring.deg_tuple(twist) if twist is not None else self.ring.zero_degree()
        return FreeModule(self.ring, [tuple(-s - c for s, c in zip(sh, t)) for sh in self.shifts])

    def direct_sum(self, other):
        if self.ring != other.ring:
            raise RingMismatch("direct sum over different rings")
        return FreeModule(self.ring, self.shifts + other.shifts)


class Vector:
    """Element of a graded free module."""

    __slots__ = ("module", "data")

    def __init__(self, module, data):
        self.module = module
        self.data = data

    @property
    def ring(self):
        return self.module.ring

    def is_zero(self):
        return not self.data

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        return (
            isinstance(other, Vector)
            and self.module == other.module
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.module, tuple(sorted(self.data.items()))))

    def _check(self, other):
        if self.module != other.module:
            raise RingMismatch("vectors in different modules")

    def __add__(self, other):
        self._check(other)
        data = dict(self.data)
        for t, c in other.data.items():
            s = data.get(t)
            if s is None:
                data[t] = c
            else:
                s = s + c
                if s:
                    data[t] = s
                else:
                    del data[t]
        return Vector(self.module, data)

    def __neg__(self):
        return Vector(self.module, {t: -c for t, c in self.data.items()})

    def __sub__(self, other):
        return self.__add__(other.__neg__())

    def scale(self, p):
        """Multiply by a ring element or number."""
        if isinstance(p, (int, Fraction)):
            p = self.ring.constant(p)
        if p.is_zero() or not self.data:
            return self.module.zero()
        data = {}
        for (i, e), c in self.data.items():
            for pe, pc in p.terms.items():
                key = (i, tuple(a + b for a, b in zip(e, pe)))
                s = data.get(key)
                v = c * pc
                if s is None:
                    data[key] = v
                else:
                    s = s + v
                    if s:
                        data[key] = s
                    else:
                        del data[key]
        ring = self.ring
        if ring.base_rel:
            comps = {}
            for (i, e), c in data.items():
                comps.setdefault(i, {})[e] = c
            data = {(i, e): c for i, terms in comps.items()
                    for e, c in ring._reduce_base(terms).items()}
        return Vector(self.module, data)

    def component(self, i):
        terms = {e: c for (j, e), c in self.data.items() if j == i}
        return Poly(self.ring, terms, _reduce=False)

    def components(self):
        return [self.component(i) for i in range(self.module.rank)]

    def degree(self):
        """Common degree of all terms, None for zero, NotHomogeneous otherwise."""
        if not self.data:
            return None
        ring = self.ring
        shifts = self.module.shifts
        degs = set()
        for (i, e) in self.data:
            d = ring.term_degree(e)
            degs.add(tuple(a + b for a, b in zip(d, shifts[i])))
        if len(degs) > 1:
            raise NotHomogeneous("vector has degrees %s" % sorted(degs))
        return degs.pop()

    def __str__(self):
        return "(" + ", ".join(str(p) for p in self.components()) + ")"

    def __repr__(self):
        return "Vector%s" % self


class FreeMap:
    """Graded map between free modules, stored by columns."""

    __slots__ = ("source", "target", "cols")

    def __init__(self, source, target, cols, check=True):
        cols = tuple(cols)
        if len(cols) != source.rank:
            raise AlgebraError("expected %d columns, got %d" % (source.rank, len(cols)))
        if check:
            if source.ring != target.ring:
                raise RingMismatch("map between modules over different rings")
            for j, col in enumerate(cols):
                if col.module != target:
                    raise RingMismatch("column %d lives in the wrong module" % j)
                d = col.degree()
                if d is not None and d != source.shifts[j]:
                    raise NotHomogeneous(
                        "column %d has degree %s, source shift is %s"
                        % (j, d, source.shifts[j])
                    )
        self.source = source
        self.target = target
        self.cols = cols

    @classmethod
    def from_columns(cls, target, cols, check=True):
        """Source shifts are read off from the column degrees."""
        ring = target.ring
        shifts = []
        for col in cols:
            d = col.degree()
            shifts.append(d if d is not None else ring.zero_degree())
        return cls(FreeModule(ring, shifts), target, cols, check=check)

    @property
    def ring(self):
        return self.target.ring

    def entry(self, i, j):
        return self.cols[j].component(i)

    def entries(self):
        return [[self.entry(i, j) for j in range(self.source.rank)] for i in range(self.target.rank)]

    def is_zero(self):
        return all(col.is_zero() for col in self.cols)

    def apply(self, v):
        if v.module != self.source:
            raise RingMismatch("vector not in the source module")
        out = self.target.zero()
        for (j, e), c in v.data.items():
            mono = Poly(self.ring, {e: c}, _reduce=False)
            out = out + self.cols[j].scale(mono)
        return out

    def compose(self, other):
        """self o other."""
        if other.target != self.source:
            raise RingMismatch("composition shape mismatch")
        return FreeMap(other.source, self.target, [self.apply(c) for c in other.cols], check=False)

    def transpose(self, twist=None):
        """Hom(-, R(twist)) applied to the map: sources and targets swap and dualize."""
        new_source = self.target.dual(twist)
        new_target = self.source.dual(twist)
        cols = []
        for i in range(self.target.rank):
            data = {}
            for j in range(self.source.rank):
                p = self.entry(i, j)
                for e, c in p.terms.items():
                    data[(j, e)] = c
            cols.append(Vector(new_target, data))
        return FreeMap(new_source, new_target, cols, check=False)

    def evaluate(self, fiber):
        """Entry-wise evaluation at a fiber point; see specialize.FiberPoint."""
        ring = fiber.fiber_ring(self.ring)
        src = FreeModule(ring, self.source.shifts)
        tgt = FreeModule(ring, self.target.shifts)
        cols = []
        for col in self.cols:
            cols.append(tgt.element([fiber.evaluate(p) for p in col.components()]))
        return FreeMap(src, tgt, cols, check=False)

    def __repr__(self):
        return "FreeMap(%d x %d)" % (self.target.rank, self.source.rank)


class Presentation:
    """Finitely presented graded module, the cokernel of a free map.

    Generators are the target basis vectors of the relation map; the
    module is zero exactly when every generator reduces to the image.
    The reduced Groebner basis of the relations and the resolution of
    the module belong to the presentation: gb() and resolution() build
    each on first use, so every count, membership test and normal form
    shares one basis, and every table, invariant and locus one complex.
    """

    __slots__ = ("relations", "_gb", "_resolution")

    def __init__(self, relations):
        self.relations = relations
        self._gb = None
        self._resolution = None

    @classmethod
    def of_free(cls, module):
        empty = FreeMap(FreeModule(module.ring, []), module, [], check=False)
        return cls(empty)

    @classmethod
    def cyclic(cls, ring, ideal_gens):
        """R/(ideal_gens)."""
        target = FreeModule(ring, [ring.zero_degree()])
        cols = []
        for g in ideal_gens:
            g = ring.poly(g)
            cols.append(target.element([g]))
        # the shifts are the columns' own degrees, which already rejects a
        # non-homogeneous generator, so the map needs no second check
        return cls(FreeMap.from_columns(target, cols, check=False))

    @property
    def ring(self):
        return self.relations.ring

    @property
    def gens_module(self):
        return self.relations.target

    @property
    def ngens(self):
        return self.relations.target.rank

    def gb(self):
        """Reduced Groebner basis of the relations inside the generator
        module, memoized; empty when there are no nonzero relations."""
        if self._gb is None:
            from .groebner import module_gb

            self._gb = module_gb(self.relations.cols, self.gens_module)
        return self._gb

    def resolution(self):
        """The module's resolution, memoized: length nx + 1, enough for
        every H^i, with units cancelled as it is built (minimal over a
        field; over a parameter base less its constant units).  Its raw
        attribute, built on first read, is the resolution without the
        cancellation, which the cross check of multigraded tables reads."""
        if self._resolution is None:
            from .resolution import free_resolution

            self._resolution = free_resolution(self, self.ring.nx + 1)
        return self._resolution

    def evaluate(self, fiber):
        return Presentation(self.relations.evaluate(fiber))

    def __repr__(self):
        return "Presentation(%d gens, %d rels)" % (
            self.ngens,
            self.relations.source.rank,
        )
