"""Fiber points, specialization, and Rees powers.

A fiber point is either a rational point of the parameter space (values
for every parameter, satisfying the base relations) or the generic
point of an irreducible closed subset, carried as an enlarged relation
ideal.  Everything downstream evaluates through the same two-method
interface: fiber_ring(ring) says where evaluated objects live and
evaluate(poly) moves elements there.

The Rees powers of an ideal or of a module climb one ladder
(PowersBundle): the k-th power, inside Sym^k of a free module the
module embeds in, is generated by the products of the reduced bases of
the power below and of the first power, and each basis is kept once per
power and point.  The agreement certificate and the fiber dimensions of
`specialize` read those bases, and ratmap reads an ideal's powers off
the rank-one case.
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
        """Value in the field of a parameter-only polynomial: its
        evaluation at this rational point, a constant of the fiber ring."""
        if not self.is_rational:
            raise AlgebraError("generic points have no scalar values")
        if p.support_vars() - set(p.ring.znames):
            raise AlgebraError("not a parameter-only polynomial: %s" % p)
        return self.evaluate(p).constant_value()

    def evaluate(self, p):
        """Full evaluation of a ring element at this point."""
        if not self.is_rational:
            return transfer(p, self.residue_ring)
        src = p.ring
        out_ring = src.fiber_ring()
        ng = src.ngraded
        nz = src.nz
        terms = {}
        for e, c in p.terms.items():
            v = c
            for k in range(nz):
                a = e[ng + k]
                if a:
                    v = v * self.values[k] ** a
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


def point_key(point):
    """A hashable key of a fiber choice, None being the generic point of
    the whole base, under which per-fiber data is kept."""
    if point is None:
        return "generic"
    return repr(point.describe())


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


def ideal_embedding(ring, gens):
    """An ideal I as a module embedded in F = R: the row of I's nonzero
    generators, a map from the free module of their degrees to R."""
    # zero generators add nothing to the ideal
    gens = [g for g in map(ring.poly, gens) if not g.is_zero()]
    free = FreeModule(ring, [ring.zero_degree()])
    src = FreeModule(ring, [ring.deg_tuple(ring.degree_of(g)) for g in gens])
    return FreeMap(src, free, [free.element([g]) for g in gens], check=False)


class PowersBundle:
    """The Rees powers P_k of one module E, on one ladder.

    E is given by an embedding into a graded free module F (for an ideal,
    F = R), and P_k is the image of Sym^k E in Sym^k F: P_1 is spanned by
    the embedding's columns, and P_k = P_(k-1) P_1.  power_vectors builds
    each P_k from the reduced bases of P_(k-1) and P_1, and basis keeps
    one reduced basis per (k, point), so every power is built once per
    point and the next one is built from it.  b is the largest generator
    degree.  The embedding is part of the data on purpose: away from the
    agreement locus the specialized power can depend on it, and callers
    comparing embeddings build two bundles.
    """

    __slots__ = ("ring", "embedding", "b", "_bases")

    def __init__(self, ring, embedding):
        self.ring = ring
        self.embedding = embedding
        self.b = max((s[0] for s in embedding.source.shifts), default=0)
        self._bases = {}

    def power_vectors(self, k, point=None):
        """Generators of P_k inside Sym^k F, in order of first appearance.

        Returns (free_module, vectors).  With a point the entries are
        evaluated there; otherwise they stay over the parameter ring.
        P_0 is R, P_1 is spanned by the embedding's distinct nonzero
        columns, and above that the generators are the distinct nonzero
        products u*v of u in the reduced basis of P_(k-1) and v in that
        of P_1.  Each basis generates its module over the base, so the
        products generate P_(k-1) P_1 = P_k, and its reduced basis is
        the one the products of k columns give.
        """
        ring = self.ring if point is None else point.fiber_ring(self.ring)
        if k == 0:
            module = FreeModule(ring, [ring.zero_degree()])
            return module, [module.element([ring.one()])]
        if k == 1:
            emb = self.embedding if point is None else self.embedding.evaluate(point)
            return emb.target, _distinct(emb.cols)
        target_shifts = self.embedding.target.shifts
        m = len(target_shifts)
        lower = list(combinations_with_replacement(range(m), k - 1))
        labels = list(combinations_with_replacement(range(m), k))
        index = {alpha: j for j, alpha in enumerate(labels)}
        module = FreeModule(ring, [tuple(map(sum, zip(*(target_shifts[i] for i in alpha))))
                                   for alpha in labels])
        first = [v.components() for v in self.basis(1, point)]
        products = []
        for u in self.basis(k - 1, point):
            below = [(alpha, p) for alpha, p in zip(lower, u.components()) if not p.is_zero()]
            for comps in first:
                entries = [ring.zero()] * len(labels)
                for alpha, p in below:
                    for i, q in enumerate(comps):
                        if not q.is_zero():
                            j = index[tuple(sorted(alpha + (i,)))]
                            entries[j] = entries[j] + p * q
                products.append(module.element(entries))
        return module, _distinct(products)

    def basis(self, k, point=None):
        """The reduced basis of P_k at the point, built at most once;
        point None is the generic point of the base."""
        key = (k, point_key(point))
        if key not in self._bases:
            module, vectors = self.power_vectors(k, point)
            self._bases[key] = groebner.module_gb(vectors, module)
        return self._bases[key]


def _distinct(vectors):
    """The distinct nonzero vectors, in order of first appearance."""
    return list(dict.fromkeys(v for v in vectors if v))


def rees_powers(source, ring=None):
    """Bundle the Rees-power data of an ideal or of a presented module.

    Pass a Presentation for the module construction, or a list of ideal
    generators together with their ring.  The base must be a domain so
    torsion and rank make sense.  A module's powers are read in Sym of
    the free module its torsion-free quotient embeds in
    (_torsion_free_embedding); an ideal embeds in the ring itself
    (ideal_embedding).
    """
    if isinstance(source, Presentation):
        ring = source.ring
        if not ring.base_is_domain:
            raise BaseNotDomain("module powers need an integral base")
        _tf, emb = _torsion_free_embedding(source)
    else:
        if ring is None:
            raise AlgebraError("ideal generators need an explicit ring")
        if not ring.base_is_domain:
            raise BaseNotDomain("ideal powers need an integral base")
        emb = ideal_embedding(ring, source)
    return PowersBundle(ring, emb)


def generic_agreement_certificate(bundle, ks, degrees):
    """Parameter element off whose zeros every listed power keeps its
    generic dimension in every degree, with those dimensions.

    Each power's basis over the base (bundle.basis at the generic point)
    has minimal generic lead coefficients; off the
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
    for k in ks:
        gb = bundle.basis(k)
        coeffs.extend(gb.minimal_lead_coefficients())
        for deg in degrees:
            generic_dims[(k, deg)] = groebner.submodule_strand_dim(gb, deg)
    return {"certificate": squarefree_part(*coeffs, ring=ring), "generic_dims": generic_dims}


def power_dims_at(bundle, ks, degrees, point):
    """{(k, degree): dim of that strand of the k-th power at a fiber
    point}, k by k and then degree by degree."""
    return {(k, deg): groebner.submodule_strand_dim(bundle.basis(k, point), deg)
            for k in ks for deg in degrees}
