"""Fiber points, specialization, and symmetric and Rees constructions.

A fiber point is either a rational point of the parameter space (values
for every parameter, satisfying the base relations) or the generic
point of an irreducible closed subset, carried as an enlarged relation
ideal.  Everything downstream evaluates through the same two-method
interface: fiber_ring(ring) says where evaluated objects live and
evaluate(poly) moves elements there.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import (AlgebraError, BadBigrading, BaseNotDomain, InvalidFiber,
                     NoRank, NotOnVariety, ShiftTooSmall, ZeroModule)
from .modules import FreeModule, FreeMap, Presentation
from .rings import Poly, make_ring, transfer
from . import groebner, resolution, strands


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
        for g in ring.base_gb():
            if point.evaluate_scalar(g):
                raise NotOnVariety("point does not satisfy the base relations")
        return point

    @classmethod
    def generic(cls, ring, prime_gens):
        """Generic point of V(prime_gens); the ideal must be prime.

        Evaluation transfers elements into the ring with the prime
        adjoined to the base relations, so ranks and bases over the
        residue field come out of the usual generic-fiber machinery.
        """
        gens = [ring.poly(g) for g in prime_gens]
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

    def evaluate_poly(self, p):
        """Image of a parameter polynomial in the residue ring."""
        if self.is_rational:
            raise AlgebraError("rational points evaluate to scalars")
        return transfer(p, self.residue_ring)

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


def evaluate_presentation(pres, point):
    return Presentation(pres.relations.evaluate(point))


def sample_rational_point(ring, rng, avoid=(), on=(), tries=800):
    """Seeded search for a rational base point.

    Coordinates come from a slowly growing integer box.  The point must
    satisfy the base relations and every polynomial in `on`, and must
    miss every polynomial in `avoid`.  Raises InvalidFiber when the
    budget runs out, which callers treat as "no accessible point".
    """
    if ring.nz == 0:
        raise InvalidFiber("the base is a field; there is nothing to sample")
    avoid = [ring.poly(a) for a in avoid]
    on = [ring.poly(a) for a in on]
    for attempt in range(tries):
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
        return point
    raise InvalidFiber("no rational point found within the sampling budget")


# -- symmetric and Rees algebras -------------------------------------------


class SymData:
    """A presentation of a symmetric algebra as a bigraded quotient.

    ring is A[x, Y] with bideg Y_j = (mu_j - b, 1); ideal_gens cut out
    the symmetric algebra of the module presented over A[x].
    """

    __slots__ = ("base_module_ring", "ring", "ideal_gens", "b", "ynames", "gen_degrees")

    def __init__(self, base_module_ring, ring, ideal_gens, b, ynames, gen_degrees):
        self.base_module_ring = base_module_ring
        self.ring = ring
        self.ideal_gens = ideal_gens
        self.b = b
        self.ynames = ynames
        self.gen_degrees = gen_degrees


def beta(pres):
    """Largest degree of a minimal generator (0 for the zero module)."""
    ring = pres.ring
    if ring.gdim != 1:
        raise AlgebraError("generator bounds are for singly graded modules")
    degs = resolution.minimal_generator_degrees(pres)
    if not degs:
        raise ZeroModule("the zero module has no generator degrees")
    return max(s[0] for s in degs)


def _fresh_names(base, count, taken):
    out = []
    i = 0
    stem = base
    while len(out) < count:
        cand = "%s%d" % (stem, i)
        if cand not in taken:
            out.append(cand)
        i += 1
    return out


def sym_data(pres, b=None, ynames=None):
    """Symmetric algebra of a presented module over a singly graded ring.

    Generators of degree mu_j become variables of bidegree (mu_j - b, 1)
    with b defaulting to the largest generator degree, which keeps the
    second block's first degrees nonpositive as the layout requires.
    """
    ring = pres.ring
    if ring.ny:
        raise BadBigrading("the module ring already has a second block")
    if ring.gdim != 1:
        raise AlgebraError("symmetric algebras need a singly graded module ring")
    pres = resolution.minimal_presentation(pres)
    mus = [s[0] for s in pres.gens_module.shifts]
    if b is None:
        b = max(mus) if mus else 0
    if mus and b < max(mus):
        raise ShiftTooSmall("shift b=%d is below a generator degree %d" % (b, max(mus)))
    if ynames is None:
        ynames = _fresh_names("Y", len(mus), set(ring.names))
    new_ring = make_ring(
        list(ring.xnames),
        [(d[0], 0) for d in ring.degrees[: ring.nx]],
        yvars=list(ynames),
        ydegrees=[(mu - b, 1) for mu in mus],
        params=list(ring.znames),
        relations=[str(g) for g in _base_relation_polys(ring)],
        field=ring.field,
    )
    yvars = [new_ring.var(n) for n in ynames]
    gens = []
    for col in pres.relations.cols:
        acc = new_ring.zero()
        for i in range(pres.ngens):
            entry = col.component(i)
            if entry.is_zero():
                continue
            acc = acc + transfer(entry, new_ring) * yvars[i]
        if not acc.is_zero():
            gens.append(acc)
    return SymData(ring, new_ring, gens, b, list(ynames), mus)


def _base_relation_polys(ring):
    return [Poly(ring, dict(t), _reduce=False) for t in ring.base_rel]


def rees_data_for_ideal(ring, ideal_gens, b=None, ynames=None):
    """Rees algebra of an ideal, by eliminating the tag variable.

    Returns a SymData whose ideal_gens present the Rees ring: the kernel
    of A[x, Y] -> A[x][I t], Y_i -> g_i t.
    """
    if ring.ny or ring.gdim != 1:
        raise BadBigrading("Rees construction starts from a singly graded ring")
    gens = [ring.poly(g) for g in ideal_gens]
    mus = [ring.degree_of(g)[0] for g in gens]
    if b is None:
        b = max(mus) if mus else 0
    if ynames is None:
        ynames = _fresh_names("Y", len(gens), set(ring.names))
    tname = _fresh_names("T", 1, set(ring.names) | set(ynames))[0]
    big = make_ring(
        list(ring.xnames),
        [(d[0], 0) for d in ring.degrees[: ring.nx]],
        yvars=list(ynames) + [tname],
        ydegrees=[(mu - b, 1) for mu in mus] + [(-b, 1)],
        params=list(ring.znames),
        relations=[str(g) for g in _base_relation_polys(ring)],
        field=ring.field,
    )
    t = big.var(tname)
    rel = [big.var(yn) - transfer(g, big) * t for yn, g in zip(ynames, gens)]
    elim = groebner.eliminate_ideal(rel, [tname], ring=big)
    target = make_ring(
        list(ring.xnames),
        [(d[0], 0) for d in ring.degrees[: ring.nx]],
        yvars=list(ynames),
        ydegrees=[(mu - b, 1) for mu in mus],
        params=list(ring.znames),
        relations=[str(g) for g in _base_relation_polys(ring)],
        field=ring.field,
    )
    out = [transfer(g, target) for g in elim]
    return SymData(ring, target, out, b, list(ynames), mus)


def _torsion_free_embedding(pres, seed=0):
    """Minimal torsion-free quotient together with an embedding into free.

    The embedding target has rank equal to the module rank; failure to
    find one means the rank is not realizable and powers are undefined.
    """
    pres_min = resolution.minimal_presentation(pres)
    _tors, tf = groebner.torsion_submodule(pres_min)
    tf = resolution.minimal_presentation(tf)
    try:
        emb = groebner.embed_in_free(tf, seed=seed)
    except BaseNotDomain:
        raise
    except AlgebraError as exc:
        raise NoRank(str(exc))
    return tf, emb


def rees_data_for_module(pres, b=None, ynames=None, seed=0):
    """Rees algebra of a module with rank: the symmetric algebra of the
    image inside a free module of the same rank.

    The module is first replaced by its quotient modulo torsion; the
    embedding found there linearizes to tag variables which are then
    eliminated.
    """
    ring = pres.ring
    if ring.ny:
        raise BadBigrading("the module ring already has a second block")
    tf, emb = _torsion_free_embedding(pres, seed=seed)
    mus = [s[0] for s in tf.gens_module.shifts]
    ws = [s[0] for s in emb.target.shifts]
    if b is None:
        b = max(mus) if mus else 0
    bprime = max([b] + ws)
    if ynames is None:
        ynames = _fresh_names("Y", len(mus), set(ring.names))
    tnames = _fresh_names("T", len(ws), set(ring.names) | set(ynames))
    big = make_ring(
        list(ring.xnames),
        [(d[0], 0) for d in ring.degrees[: ring.nx]],
        yvars=list(ynames) + list(tnames),
        ydegrees=[(mu - bprime, 1) for mu in mus] + [(w - bprime, 1) for w in ws],
        params=list(ring.znames),
        relations=[str(g) for g in _base_relation_polys(ring)],
        field=ring.field,
    )
    rel = []
    for j in range(tf.ngens):
        acc = big.var(ynames[j])
        col = emb.cols[j]
        for i in range(emb.target.rank):
            entry = col.component(i)
            if entry.is_zero():
                continue
            acc = acc - transfer(entry, big) * big.var(tnames[i])
        rel.append(acc)
    elim = groebner.eliminate_ideal(rel, list(tnames), ring=big)
    target = make_ring(
        list(ring.xnames),
        [(d[0], 0) for d in ring.degrees[: ring.nx]],
        yvars=list(ynames),
        ydegrees=[(mu - b, 1) for mu in mus],
        params=list(ring.znames),
        relations=[str(g) for g in _base_relation_polys(ring)],
        field=ring.field,
    )
    out = [transfer(g, target) for g in elim]
    return SymData(ring, target, out, b, list(ynames), mus)


# -- power strands ----------------------------------------------------------


def power_strand_dim(sym, k, degree, point=None):
    """dim over the fiber of the degree-`degree` slice of the k-th power.

    The k-th power of the module sits in the Rees ring as the y-count k
    part; its genuine degree D corresponds to ring bidegree (D - b k, k).
    With point=None the count is generic over the base and a certifying
    parameter polynomial comes back alongside.
    """
    ring = sym.ring
    bideg = (degree - sym.b * k, k)
    if point is None:
        gb = _sym_gb(sym)
        dim = groebner.quotient_strand_dim(gb, bideg, generic=ring.nz > 0)
        cert = _certificate_product(gb.generic_lead_coefficients(), ring)
        return dim, cert
    fib = point.fiber_ring(ring)
    if point.is_rational:
        gens = [point.evaluate(g) for g in sym.ideal_gens]
    else:
        gens = [transfer(g, fib) for g in sym.ideal_gens]
    module = FreeModule(fib, [fib.zero_degree()])
    basis = groebner.module_gb([module.element([g]) for g in gens if not g.is_zero()],
                               module)
    return groebner.quotient_strand_dim(basis, bideg, generic=not point.is_rational)


def _sym_gb(sym):
    ring = sym.ring
    module = FreeModule(ring, [ring.zero_degree()])
    return groebner.module_gb([module.element([g]) for g in sym.ideal_gens], module)


def _certificate_product(polys, ring):
    """Squarefree product of the distinct irreducible factors."""
    from .rings import _squarefree_factors

    seen = set()
    acc = ring.one()
    for p in polys:
        p = p.primitive()
        if p.constant_value() is not None:
            continue
        factors = _squarefree_factors(p)
        for f in factors if factors is not None else [p]:
            if f.constant_value() is not None:
                continue
            key = tuple(sorted(f.terms.items()))
            if key in seen:
                continue
            seen.add(key)
            acc = acc * f
    return acc.primitive()


def naive_power_dim(ring, ideal_gens, k, degree, point):
    """dim [I(p)^k]_degree computed directly from evaluated generators."""
    fib = point.fiber_ring(ring)
    gens = [point.evaluate(g) if point.is_rational else transfer(g, fib)
            for g in ideal_gens]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0
    prods = _power_products(gens, k, fib)
    module = FreeModule(fib, [fib.zero_degree()])
    gb = groebner.module_gb([module.element([g]) for g in prods], module)
    return groebner.submodule_strand_dim(gb, (degree,) if fib.gdim == 1 else degree,
                                         generic=not point.is_rational)


def _power_products(gens, k, ring):
    """Generators of the k-th power: the distinct nonzero products of k
    of the generators, repetition allowed, in the order of first appearance."""
    level = {(): ring.one()}
    for _ in range(k):
        level = {combo + (j,): p * gens[j] for combo, p in level.items()
                 for j in range(combo[-1] if combo else 0, len(gens))}
    out = []
    seen = set()
    for p in level.values():
        key = tuple(sorted(p.terms.items()))
        if p.terms and key not in seen:
            seen.add(key)
            out.append(p)
    return out


# -- specialized powers ------------------------------------------------------


class PowersBundle:
    """Everything needed to specialize the powers of one module.

    Holds the torsion-free quotient, its embedding into a graded free
    module of the same rank, and the Rees presentation.  The embedding
    is part of the data on purpose: away from the agreement locus the
    specialized power can depend on it, and callers comparing embeddings
    build two bundles.
    """

    __slots__ = ("ring", "kind", "embedding", "tf", "sym")

    def __init__(self, ring, kind, embedding, tf, sym):
        self.ring = ring
        self.kind = kind
        self.embedding = embedding
        self.tf = tf
        self.sym = sym

    @property
    def b(self):
        return self.sym.b

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
                if point is None:
                    comps.append(entry)
                elif point.is_rational:
                    comps.append(point.evaluate(entry))
                else:
                    comps.append(transfer(entry, ring))
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


def rees_powers(source, ring=None, b=None, seed=0):
    """Bundle the Rees-power data of an ideal or of a presented module.

    Pass a Presentation for the module construction, or a list of ideal
    generators together with their ring.  The base must be a domain so
    torsion and rank make sense.
    """
    if isinstance(source, Presentation):
        mring = source.ring
        if not mring.base_is_domain:
            raise BaseNotDomain("module powers need an integral base")
        tf, emb = _torsion_free_embedding(source, seed=seed)
        sym = rees_data_for_module(source, b=b, seed=seed)
        return PowersBundle(mring, "module", emb, tf, sym)
    if ring is None:
        raise AlgebraError("ideal generators need an explicit ring")
    if not ring.base_is_domain:
        raise BaseNotDomain("ideal powers need an integral base")
    gens = [ring.poly(g) for g in source]
    sym = rees_data_for_ideal(ring, gens, b=b)
    free = FreeModule(ring, [ring.zero_degree()])
    src = FreeModule(ring, [ring.deg_tuple(ring.degree_of(g)) for g in gens])
    emb = FreeMap(src, free, [free.element([g]) for g in gens], check=False)
    tf = Presentation(FreeMap.from_columns(src, [], check=False))
    return PowersBundle(ring, "ideal", emb, tf, sym)


def specialized_power_gens(bundle, k, point):
    """Image generators of the k-th power over the fiber of the point."""
    return bundle.power_vectors(k, point)


def specialize_power(bundle, k, point):
    """Presentation over the fiber of the specialized k-th power.

    This is the image of the power under base change, computed inside
    the k-th symmetric power of the embedding target; for ideals it is
    the plain power of the evaluated generator ideal.
    """
    module, vectors = bundle.power_vectors(k, point)
    if not vectors:
        return Presentation(FreeMap.from_columns(FreeModule(module.ring, []), [],
                                                 check=False))
    pres, _incl = groebner.presentation_of_submodule(vectors, module)
    return pres


def generic_agreement_certificate(bundle, ks, degrees, rng=None, samples=6):
    """Parameter element over whose complement power strands stay generic.

    Every tested (k, degree) strand of the power is a matrix over the
    base; the certifying minors of their generic ranks multiply into one
    element a.  Fibers with a != 0 keep all tested strand dimensions, and
    the verdict checks that claim on sampled rational points.  Sampling
    failures are reported, not raised; counterexamples mean the tested
    window was too small to see the whole structure.
    """
    ring = bundle.ring
    if not ring.base_is_domain:
        raise BaseNotDomain("agreement certificates need an integral base")
    minors = []
    generic_dims = {}
    for k in ks:
        module, vectors = bundle.power_vectors(k)
        incl = FreeMap.from_columns(module, vectors, check=False)
        for deg in degrees:
            sm = strands.strand_matrix(incl, ring.deg_tuple(deg))
            rank, minor = sm.generic_rank()
            generic_dims[(k, deg)] = rank
            minors.append(minor)
    cert = _certificate_product(minors, ring)
    out = {
        "certificate": cert,
        "generic_dims": generic_dims,
        "points": [],
        "counterexamples": [],
    }
    if ring.nz == 0 or samples <= 0:
        out["agrees"] = True
        return out
    import random

    rng = rng or random.Random(0)
    avoid = [] if cert.constant_value() is not None else [cert]
    for _ in range(samples):
        try:
            point = sample_rational_point(ring, rng, avoid=avoid)
        except InvalidFiber:
            break
        out["points"].append(point.describe())
        for k in ks:
            module, vectors = bundle.power_vectors(k, point)
            gb = groebner.module_gb(vectors, module) if vectors else None
            for deg in degrees:
                got = (0 if gb is None else
                       groebner.submodule_strand_dim(gb, deg, generic=False))
                if got != generic_dims[(k, deg)]:
                    out["counterexamples"].append({
                        "point": point.describe(),
                        "k": k,
                        "degree": deg,
                        "dim": got,
                        "generic": generic_dims[(k, deg)],
                    })
    out["agrees"] = not out["counterexamples"]
    return out
