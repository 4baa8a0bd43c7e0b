"""Fiber points, specialization, and Rees powers.

A fiber point is either a rational point of the parameter space (values
for every parameter, satisfying the base relations) or the generic
point of an irreducible closed subset, carried as an enlarged relation
ideal.  Everything downstream evaluates through the same two-method
interface: fiber_ring(ring) says where evaluated objects live and
evaluate(poly) moves elements there.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import AlgebraError, BaseNotDomain, InvalidFiber, NotOnVariety
from .modules import FreeModule, FreeMap, Presentation
from .rings import Poly, irreducible_factors, squarefree_part, transfer
from . import groebner, resolution


class FiberPoint:
    """A point of Spec of the base ring, rational or generic."""

    __slots__ = ("base_ring", "kind", "values", "prime_gens", "residue_ring")

    def __init__(self, base_ring, kind, values=None, prime_gens=None, residue_ring=None):
        self.base_ring = base_ring
        self.kind = kind
        self.values = values
        self.prime_gens = prime_gens
        self.residue_ring = residue_ring

    @classmethod
    def rational(cls, ring, assignment):
        """Point with explicit parameter values; checks the base relations."""
        field = ring.field
        values = []
        if isinstance(assignment, dict):
            missing = [n for n in ring.znames if n not in assignment]
            if missing:
                raise InvalidFiber("no values for parameters %s" % ", ".join(missing))
            values = [field.coerce(assignment[n]) for n in ring.znames]
        else:
            assignment = list(assignment)
            if len(assignment) != ring.nz:
                raise InvalidFiber(
                    "expected %d parameter values, got %d" % (ring.nz, len(assignment)))
            values = [field.coerce(v) for v in assignment]
        point = cls(ring, "rational", values=tuple(values))
        if ring.base_rel and any(point.evaluate_scalar(g.component(0))
                                 for g in ring.base_basis()):
            raise NotOnVariety("point does not satisfy the base relations")
        return point

    @classmethod
    def generic(cls, ring, prime_gens):
        """Generic point of V(prime_gens); the ideal must be prime.

        Over QQ a single generator is checked to be one irreducible factor
        of multiplicity one, or to lie in the relations of a domain base
        (it then cuts out the whole base); several generators are taken
        on trust.  A factor that irreducible_factors returned is its own
        memoized factorization, so checking it costs no sympy call.
        Evaluation transfers elements into the ring with the prime
        adjoined to the base relations, so ranks and bases over the
        residue field come out of the usual generic-fiber machinery.
        """
        gens = [ring.poly(g) for g in prime_gens]
        if len(gens) == 1 and ring.field.char == 0:
            g = gens[0]
            if Poly(ring, g.terms).is_zero():
                prime = ring.base_is_domain
            else:
                prime = irreducible_factors(g) == [g.primitive()]
            if not prime:
                raise InvalidFiber("%s is not one irreducible factor of multiplicity"
                                   " one, so it cuts out no prime" % g)
        residue = ring.with_extra_relations(gens)
        return cls(ring, "generic", prime_gens=tuple(gens), residue_ring=residue)

    @property
    def is_rational(self):
        return self.kind == "rational"

    def fiber_ring(self, ring):
        if self.is_rational:
            return ring.fiber_ring()
        return self.residue_ring

    def evaluate_scalar(self, p):
        """Value in the field of a parameter-only polynomial."""
        if not self.is_rational:
            raise AlgebraError("generic points have no scalar values")
        ring = p.ring
        field = ring.field
        nz = ring.nz
        ng = ring.ngraded
        total = field.zero
        for e, c in p.terms.items():
            if any(e[:ng]):
                raise AlgebraError("not a parameter-only polynomial: %s" % p)
            v = c
            for k in range(nz):
                a = e[ng + k]
                if a:
                    v = v * _int_pow(self.values[k], a, field)
            total = total + v
        return total

    def evaluate(self, p):
        """Full evaluation of a ring element at this point."""
        if not self.is_rational:
            return transfer(p, self.residue_ring)
        src = p.ring
        out_ring = src.fiber_ring()
        ng = src.ngraded
        nz = src.nz
        field = src.field
        terms = {}
        for e, c in p.terms.items():
            v = c
            for k in range(nz):
                a = e[ng + k]
                if a:
                    v = v * _int_pow(self.values[k], a, field)
            if not v:
                continue
            key = e[:ng]
            prev = terms.get(key)
            s = v if prev is None else prev + v
            if s:
                terms[key] = s
            elif prev is not None:
                del terms[key]
        return Poly(out_ring, terms, _reduce=False)

    def describe(self):
        if self.is_rational:
            return {
                "type": "rational",
                "values": {n: str(v) for n, v in zip(self.base_ring.znames, self.values)},
            }
        return {"type": "generic", "prime": [str(g) for g in self.prime_gens]}

    def __repr__(self):
        if self.is_rational:
            vals = ", ".join("%s=%s" % (n, v)
                             for n, v in zip(self.base_ring.znames, self.values))
            return "FiberPoint(%s)" % vals
        return "FiberPoint(generic: %s)" % ", ".join(str(g) for g in self.prime_gens)


def _int_pow(v, a, field):
    out = field.one
    base = v
    while a:
        if a & 1:
            out = out * base
        base = base * base
        a >>= 1
    return out


def sample_rational_point(ring, rng, avoid=(), on=(), reject=None):
    """Seeded search for a rational base point.

    Coordinates come from a slowly growing integer box.  The point must
    satisfy the base relations and every polynomial in `on`, must miss
    every polynomial in `avoid`, and must not satisfy `reject` when it
    is given.  Raises InvalidFiber when the budget of 800 draws runs
    out, which callers treat as "no accessible point".
    """
    if ring.nz == 0:
        raise InvalidFiber("the base is a field; there is nothing to sample")
    avoid = [ring.poly(a) for a in avoid]
    on = [ring.poly(a) for a in on]
    for attempt in range(800):
        box = 2 + attempt // 40
        vals = [rng.randint(-box, box) for _ in range(ring.nz)]
        try:
            point = FiberPoint.rational(ring, vals)
        except InvalidFiber:
            continue
        if any(point.evaluate_scalar(g) for g in on):
            continue
        if any(not point.evaluate_scalar(g) for g in avoid):
            continue
        if reject is not None and reject(point):
            continue
        return point
    raise InvalidFiber("no rational point found within the sampling budget")


# -- specialized powers ------------------------------------------------------


def _torsion_free_embedding(pres):
    """Minimal torsion-free quotient together with an embedding into free.

    The embedding target has rank equal to the module rank: the quotient
    is evaluated at its first dual generators independent over the
    fraction field (groebner.embed_in_free).
    """
    pres_min = resolution.minimal_presentation(pres)
    _tors, tf = groebner.torsion_submodule(pres_min)
    tf = resolution.minimal_presentation(tf)
    return tf, groebner.embed_in_free(tf)


class PowersBundle:
    """Everything needed to specialize the powers of one module.

    Holds the torsion-free quotient, its embedding into a graded free
    module of the same rank, and b, the largest generator degree.  The
    embedding is part of the data on purpose: away from the agreement
    locus the specialized power can depend on it, and callers comparing
    embeddings build two bundles.
    """

    __slots__ = ("ring", "kind", "embedding", "tf", "b")

    def __init__(self, ring, kind, embedding, tf, b):
        self.ring = ring
        self.kind = kind
        self.embedding = embedding
        self.tf = tf
        self.b = b

    def power_vectors(self, k, point=None):
        """Generators of the k-th power inside Sym^k of the embedding target.

        Returns (free_module, vectors).  With a point the entries are
        evaluated there; otherwise they stay over the parameter ring.
        """
        ring = self.ring if point is None else point.fiber_ring(self.ring)
        emb = self.embedding
        m = emb.target.rank
        cols = []
        for j in range(emb.source.rank):
            col = emb.cols[j]
            comps = []
            for i in range(m):
                entry = col.component(i)
                comps.append(entry if point is None else point.evaluate(entry))
            cols.append(comps)
        basis = list(combinations_with_replacement(range(m), k))
        shifts = []
        for alpha in basis:
            s = ring.zero_degree()
            for i in alpha:
                s = tuple(a + b for a, b in zip(s, emb.target.shifts[i]))
            shifts.append(s)
        module = FreeModule(ring, shifts)
        index = {alpha: i for i, alpha in enumerate(basis)}
        vectors = []
        for combo in combinations_with_replacement(range(len(cols)), k):
            state = {(): ring.one()}
            for j in combo:
                nxt = {}
                for alpha, c in state.items():
                    for i, entry in enumerate(cols[j]):
                        if entry.is_zero():
                            continue
                        key = tuple(sorted(alpha + (i,)))
                        p = c * entry
                        prev = nxt.get(key)
                        s = p if prev is None else prev + p
                        if s.is_zero():
                            nxt.pop(key, None)
                        else:
                            nxt[key] = s
                state = nxt
            if state:
                vectors.append(module.element(
                    [state.get(alpha, ring.zero()) for alpha in basis]))
        return module, vectors


def rees_powers(source, ring=None):
    """Bundle the Rees-power data of an ideal or of a presented module.

    Pass a Presentation for the module construction, or a list of ideal
    generators together with their ring.  The base must be a domain so
    torsion and rank make sense.  A module's powers are read in Sym of
    the free module its torsion-free quotient embeds in
    (_torsion_free_embedding); an ideal embeds in the ring itself.
    """
    if isinstance(source, Presentation):
        ring = source.ring
        if not ring.base_is_domain:
            raise BaseNotDomain("module powers need an integral base")
        kind = "module"
        tf, emb = _torsion_free_embedding(source)
    else:
        if ring is None:
            raise AlgebraError("ideal generators need an explicit ring")
        if not ring.base_is_domain:
            raise BaseNotDomain("ideal powers need an integral base")
        kind = "ideal"
        # zero generators add nothing to the ideal
        gens = [g for g in map(ring.poly, source) if not g.is_zero()]
        free = FreeModule(ring, [ring.zero_degree()])
        src = FreeModule(ring, [ring.deg_tuple(ring.degree_of(g)) for g in gens])
        emb = FreeMap(src, free, [free.element([g]) for g in gens], check=False)
        tf = Presentation(FreeMap.from_columns(src, [], check=False))
    mus = [s[0] for s in tf.gens_module.shifts]
    return PowersBundle(ring, kind, emb, tf, max(mus) if mus else 0)


def generic_agreement_certificate(bundle, ks, degrees):
    """Parameter element off whose zeros every listed power keeps its
    generic dimension in every degree, with those dimensions.

    Each power's basis over the base (the one power_dims_at builds, at
    the generic point) has minimal generic lead coefficients; off the
    zeros of their product every fiber has the basis' leads, so it has
    the Hilbert function of the generic fiber in every degree
    (Kalkbrener, JSC 1997).  The certificate is the squarefree part of that product
    over all listed powers; generic_dims holds the generic dimension at
    each (k, degree) asked for.
    """
    ring = bundle.ring
    if not ring.base_is_domain:
        raise BaseNotDomain("agreement certificates need an integral base")
    coeffs = []
    generic_dims = {}
    for k, gb in _power_bases(bundle, ks, None):
        coeffs.extend(gb.minimal_lead_coefficients())
        for deg in degrees:
            generic_dims[(k, deg)] = groebner.submodule_strand_dim(gb, deg)
    return {"certificate": squarefree_part(*coeffs, ring=ring), "generic_dims": generic_dims}


def power_dims_at(bundle, ks, degrees, point):
    """{(k, degree): dim of that strand of the k-th power at a fiber
    point}, k by k and then degree by degree."""
    return {(k, deg): groebner.submodule_strand_dim(gb, deg)
            for k, gb in _power_bases(bundle, ks, point) for deg in degrees}


def _power_bases(bundle, ks, point):
    """(k, basis of the k-th power at the point) for each k; point None
    is the generic point of the base."""
    for k in ks:
        module, vectors = bundle.power_vectors(k, point)
        yield k, groebner.module_gb(vectors, module)
