"""Buchberger engine for submodules of graded free modules.

Everything here runs over the flat polynomial ring k[x, y, z].  Over a
base A = k[z]/(relations) a submodule M is computed as M plus the
relation multiples of each ambient basis vector, and one rule reads the
basis over A (_over_base): an element whose lead a relation lead divides
is redundant over A, and every other element is in normal form modulo
the relations.  GBasis and the kernels apply it, so their elements need
no further reduction and their leads are read over the generic fiber
as they stand.

A module term c*x^a*z^b*e_i is ordered by the block (see below), then
x^a in the ring order, then the component i (a lower i is larger), then
z^b: a block order on A[x]^n in which the lead of a vector over the
generic fiber is its (component, x-part) lead, with a coefficient in A.
Bases specialize under that order (Kalkbrener, JSC 1997): the leads of
a basis are those of every fiber off the zeros of the coefficients of
its minimal leads.

Buchberger's loop and every normal form run on int vectors, fraction
free over QQ and on residues mod p over GF(p); reduction takes the
largest pending term off a heap.  Field coefficients are converted only
where generators enter and where bases, normal forms and quotients leave.

Kernels, syzygies and preimages all go through one graph construction:
a Groebner basis of {(phi(e_j), e_j)} in target (+) source with the
target block dominating; basis elements supported in the source block
are exactly a basis of the kernel.  Meets and colons of ideals are
preimages too: {r : r*c_i in J_i for all i} is the preimage of
(+) J_i*e_i under r -> (r*c_i)_i, one graph basis for any number of
ideals (_meet).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import accumulate
from math import gcd
from operator import add, sub

from .errors import AlgebraError, BaseNotDomain, NotStandardGraded, RingMismatch
from . import linalg
from .modules import FreeMap, FreeModule, Presentation, Vector
from .rings import Poly, _from_ints, _to_ints

__all__ = [
    "GBasis",
    "module_gb",
    "ideal_gb",
    "nf_poly",
    "ideal_contains",
    "ideal_equal",
    "kernel_gens",
    "preimage_gens",
    "subquotient_presentation",
    "colon_ideal",
    "saturate_ideal",
    "intersect_ideals",
    "eliminate_ideal",
    "quotient_strand_dim",
    "hilbert_numerator",
    "submodule_strand_dim",
    "quotient_dimension",
    "series_length",
    "quotient_degree",
    "matrix_rank_generic",
    "torsion_submodule",
    "embed_in_free",
]


class _Ctx:
    """Shared state for one Groebner run: the characteristic and the heap
    key of a module term, memoized per term.

    Ascending keys run from the largest term down: the target block
    (components below split) first, then the graded part of the term in
    the ring order, then the lower component, then the parameter part.
    So a lead is the lead over the generic fiber with its coefficient in
    the base, the block order that specialization reads.  An order that
    puts a parameter stage first (an elimination of parameters) keeps
    the ring order ahead of the component.
    """

    __slots__ = ("ring", "shifts", "split", "p", "key")

    def __init__(self, ring, shifts, split):
        self.ring = ring
        self.shifts = shifts
        self.split = split
        self.p = ring.field.char
        xkey, zkey = ring.order.split_heap_key(ring.ngraded) or (ring.order.heap_key,
                                                                 _no_key)
        memo = {}
        if split:
            def key(term, _split=split, _memo=memo):
                k = _memo.get(term)
                if k is None:
                    c, e = term
                    k = _memo[term] = (0 if c < _split else 1,) + xkey(e) + (c,) + zkey(e)
                return k
        else:
            def key(term, _memo=memo):
                k = _memo.get(term)
                if k is None:
                    c, e = term
                    k = _memo[term] = xkey(e) + (c,) + zkey(e)
                return k
        self.key = key

    def lead(self, data):
        return min(data, key=self.key)

    def psi_of_term(self, term):
        c, e = term
        d = self.ring.term_degree(e)
        s = self.shifts[c]
        return self.ring.psi_value(tuple(a + b for a, b in zip(d, s)))


def _no_key(e):
    return ()


# The kernel runs on int vectors: over QQ a vector is scaled to integer
# coefficients, over GF(p) it holds the residues in [0, p).  Field
# elements come in through _to_ints and go out through _from_ints.


def _sub_scaled(data, other, shift_exps, factor, p):
    """data - factor * x^shift * other on int vectors, as a new dict."""
    out = dict(data)
    for (c, e), oc in other.items():
        key = (c, tuple(map(add, e, shift_exps)))
        v = out.get(key)
        w = factor * oc
        if v is None:
            out[key] = -w % p if p else -w
        else:
            v -= w
            if p:
                v %= p
            if v:
                out[key] = v
            else:
                del out[key]
    return out


class _DivisorTable:
    """Leading terms bucketed by component for fast divisor lookup.

    An entry is (lead, tail terms, lead coefficient, its inverse mod p).
    """

    __slots__ = ("p", "by_comp", "entries")

    def __init__(self, p):
        self.p = p
        self.by_comp = {}
        self.entries = []

    def add(self, data, lead):
        idx = len(self.entries)
        a = data[lead]
        tail = [(t, c) for t, c in data.items() if t != lead]
        self.entries.append((lead, tail, a, pow(a, self.p - 2, self.p) if self.p else 1))
        self.by_comp.setdefault(lead[0], []).append(idx)

    def find(self, term):
        c, e = term
        entries = self.entries
        for idx in self.by_comp.get(c, ()):
            le = entries[idx][0][1]
            ok = True
            for a, b in zip(e, le):
                if a < b:
                    ok = False
                    break
            if ok:
                return idx
        return -1


def _reduce_full(ctx, data, table):
    """Fully reduce an int vector against the divisor table.

    Returns (nf, mult) with mult * data = sum of q_i * g_i + nf.  A step
    against g with lead coefficient a clears a term with coefficient c:
    over GF(p) by subtracting c/a times g, over QQ by h <- m*h - f*g with
    (m, f) = (a, c) / gcd(a, c), so mult is the product of the m.  Terms
    come off a heap largest first; a step only adds smaller terms, so a
    popped term never comes back.
    """
    if not data:
        return data, 1
    p = ctx.p
    key = ctx.key
    entries = table.entries
    rest = dict(data)
    heap = [(key(t), t) for t in rest]
    heapify(heap)
    out = {}
    mult = 1
    while heap:
        term = heappop(heap)[1]
        coeff = rest.pop(term, None)
        if coeff is None:
            continue  # cancelled after it was queued
        idx = table.find(term)
        if idx < 0:
            out[term] = coeff
            continue
        lead, tail, a, inv = entries[idx]
        if p:
            f = coeff * inv % p
        elif a == 1:
            f = coeff
        else:
            g = gcd(a, coeff)
            if a < 0:
                g = -g
            m, f = a // g, coeff // g
            if m != 1:
                mult *= m
                rest = {t: v * m for t, v in rest.items()}
                out = {t: v * m for t, v in out.items()}
        shift = tuple(map(sub, term[1], lead[1]))
        for (dc, de), dcoeff in tail:
            t = (dc, tuple(map(add, de, shift)))
            w = f * dcoeff
            v = rest.get(t)
            if v is None:
                rest[t] = -w % p if p else -w
                heappush(heap, (key(t), t))
                continue
            v -= w
            if p:
                v %= p
            if v:
                rest[t] = v
            else:
                del rest[t]
    return out, mult


def _normalize(ctx, data):
    """Primitive over QQ with a positive lead, monic over GF(p)."""
    if not data:
        return data
    a = data[ctx.lead(data)]
    p = ctx.p
    if p:
        if a == 1:
            return data
        inv = pow(a, p - 2, p)
        return {t: c * inv % p for t, c in data.items()}
    g = gcd(*data.values())
    if a < 0:
        g = -g
    if g == 1:
        return data
    return {t: c // g for t, c in data.items()}


def _base_aug_data(ring, nc):
    """Relation multiples of each ambient basis vector, as raw dicts."""
    out = []
    for g in ring.base_basis():
        for c in range(nc):
            out.append({(c, e): co for (_0, e), co in g.data.items()})
    return out


def _over_base(ring, data_list, lead):
    """The vectors of a Groebner basis of M + (relations) F that are not
    redundant over the base A = k[z]/(relations).

    A vector whose lead a relation lead divides is redundant over A: take
    a vector of the module; while a relation lead divides its lead, take
    off a relation multiple, and otherwise the basis lead that divides it
    is a kept one.  So the kept vectors generate M over A.  Each is in
    normal form modulo the relations when the basis is reduced: its lead
    is kept, and no tail term is divisible by a lead of the basis, while
    every relation multiple's lead lies in the lead module.
    """
    if not ring.base_rel:
        return data_list
    rel = [e for _c, e in ring.base_basis().leads()]
    return [d for d in data_list
            if not any(all(a >= b for a, b in zip(lead(d)[1], r)) for r in rel)]


def _buchberger(ctx, gens_data):
    """Reduced Groebner basis of field vectors, as normalized int vectors."""
    key = ctx.key
    p = ctx.p
    G = []
    leads = []
    table = _DivisorTable(p)

    def push(data):
        data = _normalize(ctx, data)
        lead = ctx.lead(data)
        G.append(data)
        leads.append(lead)
        table.add(data, lead)

    for g in gens_data:
        h, _m = _reduce_full(ctx, _to_ints(p, g)[0], table)
        if h:
            push(h)

    # pair queue: a heap keyed by (psi degree of lcm, i, j), same-component
    # pairs only, and no pair of two terms, whose S-vector is zero
    # (Buchberger 1979); the set holds the pairs still queued, and the
    # chain criterion reads every other pair as done
    rank1 = ctx.split == 0 and len(ctx.shifts) == 1
    queue = []
    pairs = set()

    def lcm_exps(a, b):
        return tuple(x if x > y else y for x, y in zip(a, b))

    def add_pairs(j):
        cj, ej = leads[j]
        term = len(G[j]) == 1
        for i in range(j):
            ci, ei = leads[i]
            if ci != cj or (term and len(G[i]) == 1):
                continue
            l = lcm_exps(ei, ej)
            if rank1 and all(x + y == z for x, y, z in zip(ei, ej, l)):
                continue  # coprime leads reduce to zero in the ideal case
            heappush(queue, (ctx.psi_of_term((cj, l)), i, j, l))
            pairs.add((i, j))

    for j in range(len(G)):
        add_pairs(j)

    while queue:
        _psi, i, j, l = heappop(queue)
        pairs.remove((i, j))
        # chain criterion: a third lead dividing the lcm whose pairs are done
        skip = False
        for k in range(len(G)):
            if k in (i, j) or leads[k][0] != leads[i][0]:
                continue
            ek = leads[k][1]
            if all(a <= b for a, b in zip(ek, l)):
                if (min(i, k), max(i, k)) not in pairs and (min(j, k), max(j, k)) not in pairs:
                    skip = True
                    break
        if skip:
            continue
        gi, gj = G[i], G[j]
        li, lj = leads[i], leads[j]
        si = tuple(a - b for a, b in zip(l, li[1]))
        sj = tuple(a - b for a, b in zip(l, lj[1]))
        ci = gi[li]
        cj = gj[lj]
        # S = (cj x^si gi - ci x^sj gj) / gcd(ci, cj); over GF(p) cj/ci is
        # taken mod p instead
        if p:
            fi, fj = 1, ci * pow(cj, p - 2, p) % p
        else:
            g = gcd(ci, cj)
            fi, fj = cj // g, ci // g
        s = {}
        for (c, e), co in gi.items():
            s[(c, tuple(a + b for a, b in zip(e, si)))] = co * fi
        s = _sub_scaled(s, gj, sj, fj, p)
        h, _m = _reduce_full(ctx, s, table)
        if h:
            push(h)
            add_pairs(len(G) - 1)

    # minimalize: drop elements whose lead is divisible by another lead,
    # taking the leads from the smallest up
    order = sorted(range(len(G)), key=lambda i: key(leads[i]), reverse=True)
    keep = []
    kept_leads = []
    for i in order:
        c, e = leads[i]
        dominated = False
        for kc, ke in kept_leads:
            if kc == c and all(a >= b for a, b in zip(e, ke)):
                dominated = True
                break
        if not dominated:
            keep.append(i)
            kept_leads.append(leads[i])
    # tail-reduce for the unique reduced basis; every term below a lead is
    # smaller than it, so no element's own lead divides its tail
    table = _DivisorTable(p)
    for i in keep:
        table.add(G[i], leads[i])
    final = []
    for i in keep:
        lead = leads[i]
        tail, m = _reduce_full(ctx, {t: c for t, c in G[i].items() if t != lead}, table)
        data = {lead: G[i][lead] * m}
        data.update(tail)
        final.append(_normalize(ctx, data))
    final.sort(key=lambda d: key(ctx.lead(d)))
    return final


class GBasis:
    """Reduced Groebner basis of a submodule, with normal form services.

    Built from int vectors (see _to_ints) of a Groebner basis of the
    submodule plus the relation multiples of each ambient basis vector.
    The elements are the field images of those that are not redundant
    over the base (_over_base).  The reducer's table keeps them as int
    vectors, followed by the relation multiples, which together with them
    form a Groebner basis of the same module.
    """

    __slots__ = ("module", "split", "elements", "_ctx", "_table", "_numerator")

    def __init__(self, module, split, data_list):
        self.module = module
        self.split = split
        self._numerator = None
        self._ctx = ctx = _Ctx(module.ring, module.shifts, split)
        p = ctx.p
        kept = _over_base(module.ring, [d for d in data_list if d], ctx.lead)
        self.elements = tuple(Vector(module, _from_ints(p, d)) for d in kept)
        if module.ring.base_rel:
            kept = kept + [_to_ints(p, d)[0] for d in _base_aug_data(module.ring, module.rank)]
        self._table = _DivisorTable(p)
        for d in kept:
            self._table.add(d, ctx.lead(d))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def leads(self):
        return [self._ctx.lead(v.data) for v in self.elements if v.data]

    def generic_lead_coefficients(self):
        """The coefficient in the base of each element's lead over the
        generic fiber, one Poly per lead of leads(): the sum of the
        element's terms whose (component, graded part) is the lead's,
        with the graded part dropped.  Each is in normal form modulo the
        base relations and nonzero there, since its lead term is."""
        ring = self.module.ring
        ng = ring.ngraded
        zpad = (0,) * ng
        out = []
        for v, (c, e) in zip(self.elements, self.leads()):
            out.append(Poly(ring, {zpad + f[ng:]: co for (d, f), co in v.data.items()
                                   if d == c and f[:ng] == e[:ng]}, _reduce=False))
        return out

    def minimal_lead_coefficients(self):
        """One generic lead coefficient per minimal lead over the generic
        fiber, in basis order.  Of several elements with one such lead the
        last, whose coefficient has the smallest lead, stands for them.
        Off the zeros of their product every fiber has these leads, hence
        the Hilbert function of the generic fiber in every degree."""
        ng = self.module.ring.ngraded
        leads = [(c, e[:ng]) for c, e in self.leads()]
        chosen = {}
        for lead, coeff in zip(leads, self.generic_lead_coefficients()):
            if not any(other != lead and other[0] == lead[0]
                       and all(a <= b for a, b in zip(other[1], lead[1])) for other in leads):
                chosen[lead] = coeff
        return list(chosen.values())

    def hilbert_numerator(self):
        """hilbert_numerator of the leads of the basis, memoized."""
        if self._numerator is None:
            self._numerator = hilbert_numerator(self.leads(), self.module)
        return self._numerator

    def _reduce(self, v):
        """(nf, den) of v in int form: v * den reduces to nf."""
        if v.module.ring != self.module.ring or v.module.shifts != self.module.shifts:
            raise RingMismatch("normal form against a basis from another module")
        p = self._ctx.p
        data, den = _to_ints(p, v.data)
        nf, mult = _reduce_full(self._ctx, data, self._table)
        return nf, den * mult

    def nf(self, v):
        nf, den = self._reduce(v)
        return Vector(self.module, _from_ints(self._ctx.p, nf, den))

    def reduce_terms(self, terms):
        """(nf, mult) for an int term dict {exponents: coefficient} of a
        rank-one basis: mult * terms reduces to nf (see _reduce_full)."""
        nf, mult = _reduce_full(self._ctx, {(0, e): c for e, c in terms.items()}, self._table)
        return {e: c for (_0, e), c in nf.items()}, mult

    def contains(self, v):
        return not self._reduce(v)[0]


def module_gb(vectors, module=None, split=0):
    """Reduced Groebner basis of the submodule the vectors generate."""
    vectors = list(vectors)
    if module is None:
        if not vectors:
            raise AlgebraError("cannot infer the ambient module from no vectors")
        module = vectors[0].module
    ring = module.ring
    gens = [v.data for v in vectors if v.data]
    if ring.base_rel:
        gens.extend(_base_aug_data(ring, module.rank))
    ctx = _Ctx(ring, module.shifts, split)
    return GBasis(module, split, _buchberger(ctx, gens))


def ideal_gb(polys, ring=None):
    """Reduced Groebner basis of an ideal, as a list of Polys."""
    polys = list(polys)
    if ring is None:
        if not polys:
            raise AlgebraError("cannot infer the ring from no generators")
        ring = polys[0].ring
    module = FreeModule(ring, [ring.zero_degree()])
    return ideal_basis_polys(module_gb([module.element([p]) for p in polys], module))


def ideal_basis_polys(gb):
    """The polys of a rank-one GBasis, as ideal_gb returns them: over a
    base with relations its elements are already in normal form."""
    return [v.component(0) for v in gb]


def nf_poly(p, gb_polys):
    """Normal form of a poly against a list of Groebner basis polys."""
    if not gb_polys:
        if p.ring.base_rel:
            return Poly(p.ring, p.terms)
        return p
    basis = reduced_ideal_basis(gb_polys, gb_polys[0].ring)
    return basis.nf(basis.module.element([p])).component(0)


def reduced_ideal_basis(gb_polys, ring):
    """The GBasis of an ideal from its reduced basis polys, as ideal_gb
    and saturate_ideal return them, with no Buchberger run."""
    module = FreeModule(ring, [ring.zero_degree()])
    return GBasis(module, 0, [_to_ints(ring.field.char, module.element([g]).data)[0]
                              for g in gb_polys])


def ideal_contains(gb_polys, p):
    return nf_poly(p, gb_polys).is_zero()


def ideal_equal(gens_a, gens_b, ring=None):
    ga = ideal_gb(gens_a, ring=ring) if gens_a else []
    gb = ideal_gb(gens_b, ring=ring) if gens_b else []
    return [g.terms for g in ga] == [g.terms for g in gb]


# -- kernels and friends --------------------------------------------------


def _graph_kernel(fmap, extra_target_gens=()):
    """Source-block basis of the graph GB; generates {v : phi(v) in U}.

    U is the submodule spanned by extra_target_gens (empty for the plain
    kernel).  Over a base with relations the graph GB holds the relation
    multiples of every basis vector, and the vectors redundant over the
    base are left out (_over_base).
    """
    src, tgt = fmap.source, fmap.target
    ring = fmap.ring
    ambient = tgt.direct_sum(src)
    nt = tgt.rank
    gens = []
    for j, col in enumerate(fmap.cols):
        data = dict(col.data)
        data[(nt + j, (0,) * ring.nvars)] = ring.field.one
        gens.append(data)
    for u in extra_target_gens:
        gens.append(dict(u.data))
    if ring.base_rel:
        gens.extend(_base_aug_data(ring, ambient.rank))
    ctx = _Ctx(ring, ambient.shifts, nt)
    out = []
    for data in _over_base(ring, _buchberger(ctx, gens), ctx.lead):
        if all(c >= nt for (c, _e) in data):
            out.append(Vector(src, _from_ints(ctx.p, {(c - nt, e): co
                                                      for (c, e), co in data.items()})))
    return out


def kernel_gens(fmap):
    """Generators (a Groebner basis) of ker(fmap) inside the source."""
    return _graph_kernel(fmap)


def preimage_gens(fmap, target_subgens):
    """Generators of {v in source : fmap(v) lies in <target_subgens>}."""
    return _graph_kernel(fmap, extra_target_gens=target_subgens)


def subquotient_presentation(gens, rel_gens, module):
    """Presentation of <gens>/<rel_gens> inside a common free module."""
    gens = list(gens)
    rel_gens = [v for v in rel_gens if v.data]
    inclusion = FreeMap.from_columns(module, gens, check=False)
    rels = preimage_gens(inclusion, rel_gens)
    rel_map = FreeMap.from_columns(inclusion.source, rels, check=False)
    return Presentation(rel_map), inclusion


# -- ideal arithmetic ------------------------------------------------------


def _meet(cols, ideals, ring):
    """{r : r*cols[i] in ideals[i] for every i}, as ideal generators: the
    preimage of (+) ideals[i]*e_i under r -> (r*cols[i])_i, read off one
    graph basis (Singular's modulo; Greuel & Pfister, 2.8).  Component i
    is shifted by -deg cols[i] so the map is graded; a zero column has no
    degree and keeps shift 0."""
    cols = [ring.poly(c) for c in cols]
    target = FreeModule(ring, [tuple(-a for a in ring.degree_of(c) or ring.zero_degree())
                               for c in cols])
    fmap = FreeMap(FreeModule(ring, [ring.zero_degree()]), target,
                   [target.element(cols)], check=False)
    zeros = [ring.zero()] * len(cols)
    subgens = [target.element(zeros[:i] + [ring.poly(g)] + zeros[i + 1:])
               for i, ideal in enumerate(ideals) for g in ideal]
    out = [v.component(0) for v in preimage_gens(fmap, subgens)]
    return [p for p in out if not p.is_zero()]


def colon_ideal(gens, others, ring=None):
    """(gens) : (others), as the one preimage {r : r*f in (gens) for
    every f in others}."""
    others = list(others)
    if not others:
        raise AlgebraError("colon by the zero ideal")
    ring = ring or others[0].ring
    gens = list(gens)
    return _meet(others, [gens] * len(others), ring)


def saturate_ideal(gens, others, ring=None):
    """(gens) : (others)^infinity, as a reduced Groebner basis.

    Homogeneous ideals saturated by the whole x-block of a standard
    graded grevlex ring take Bayer's route, which returns the unit ideal
    at once when the ideal's own basis shows it primary to that block
    and otherwise meets its per-variable stages in one preimage (_meet);
    every other input iterates colons, each one preimage.  Both return
    the same reduced basis.
    """
    others = list(others)
    ring = ring or others[0].ring
    gens = [ring.poly(g) for g in gens]
    others = [ring.poly(f) for f in others]
    if _bayer_applies(gens, others, ring):
        return _saturate_bayer(gens, ring)
    return _saturate_by_colons(gens, others, ring)


def _bayer_applies(gens, others, ring):
    """True when the saturator is exactly the x-variables, the x-block is
    standard graded and ordered by grevlex ahead of the parameters, there
    is no y-block, and the generators are homogeneous.  Base relations
    are homogeneous of x-degree zero, so the argument holds over any
    base."""
    nx = ring.nx
    if ring.ny or ring.gdim != 1:
        return False
    if any(d != (1,) for d in ring.degrees[:nx]):
        return False
    if ring.order.stages[0] != ("grevlex", tuple(range(nx))):
        return False
    xs = set()
    for f in others:
        if len(f.terms) != 1:
            return False
        (e, c), = f.terms.items()
        if c != ring.field.one or sum(e) != 1 or e.index(1) >= nx:
            return False
        xs.add(e.index(1))
    return len(xs) == nx and all(ring.is_homogeneous(g) for g in gens)


def _saturate_bayer(gens, ring):
    """I : m^infinity as the meet over i of I : x_i^infinity, taken as
    one preimage (_meet) of all nx stages.

    With x_i last in grevlex, x_i divides a homogeneous element exactly
    as often as it divides the element's lead, so dividing every element
    of a Groebner basis of I by its largest power of x_i leaves a basis
    of I : x_i^infinity (Bayer & Stillman, Invent. Math. 87, 1987).

    The basis in the ring's own order is the stage for the last x and is
    built first.  When its leads hold a pure power of every x-variable,
    [R/I]_d vanishes for large d, so m^N lies in I and the saturation is
    the unit ideal, returned with no further stage.  A lead with a
    parameter factor, such as t*x^2, does not count: it puts t*x^2, not
    a power of x, into the lead ideal, and I : m^infinity may then stop
    at (t, ...).
    """
    nx = ring.nx
    native = ideal_gb(gens, ring=ring)
    if _pure_x_powers([g.leading_monomial() for g in native], nx):
        return [ring.one()]
    parts = []
    for i in range(nx):
        if i == nx - 1:
            basis = native
        else:
            idxs = tuple(j for j in range(nx) if j != i) + (i,)
            iring = ring.with_order((("grevlex", idxs),) + ring.order.stages[1:])
            basis = ideal_gb([Poly(iring, dict(g.terms), _reduce=False) for g in gens],
                             ring=iring)
        part = []
        for g in basis:
            a = min(e[i] for e in g.terms)
            part.append(Poly(ring, {e[:i] + (e[i] - a,) + e[i + 1:]: c
                                    for e, c in g.terms.items()}, _reduce=False))
        parts.append(part)
    return ideal_gb(_meet([1] * nx, parts, ring), ring=ring)


def _pure_x_powers(leads, nx):
    """True when, for each of the first nx variables x_i, some lead
    exponent is exactly x_i^a with a > 0 and every other exponent zero,
    parameters included: the leads then bound every x-variable, so a
    homogeneous ideal with these leads holds a power of the x-block."""
    seen = set()
    for e in leads:
        for i in range(nx):
            if e[i] and e[i] == sum(e):
                seen.add(i)
    return len(seen) == nx


def _saturate_by_colons(gens, others, ring):
    """(gens) : (others)^infinity by iterating the colon until it stabilizes;
    the reference route for any saturator."""
    current = ideal_gb(list(gens), ring=ring)
    while True:
        nxt = ideal_gb(colon_ideal(current, others, ring) or [ring.zero()], ring=ring)
        if [g.terms for g in nxt] == [g.terms for g in current]:
            return current
        current = nxt


def intersect_ideals(gens_a, gens_b, ring=None):
    """(gens_a) meet (gens_b), as a reduced Groebner basis.

    A side holding a nonzero constant is the unit ideal, so the meet is
    the other side's reduced basis, returned with no graph kernel: the
    reduced basis is unique, so it is the one the kernel would give.
    The zero poly is no unit.  Otherwise the meet is one preimage
    (_meet) with both columns 1.
    """
    gens_a = list(gens_a)
    gens_b = list(gens_b)
    if ring is None:
        ring = (gens_a or gens_b)[0].ring
    if not gens_a or not gens_b:
        return []
    gens_a = [ring.poly(g) for g in gens_a]
    gens_b = [ring.poly(g) for g in gens_b]
    if _has_unit(gens_a):
        return ideal_gb(gens_b, ring=ring)
    if _has_unit(gens_b):
        return ideal_gb(gens_a, ring=ring)
    out = _meet([1, 1], [gens_a, gens_b], ring)
    return ideal_gb(out, ring=ring) if out else []


def _has_unit(gens):
    # constant_value() is None off the constants and 0 for the zero poly
    return any(g.constant_value() for g in gens)


def eliminate_ideal(gens, varnames, ring=None):
    """Generators of the ideal's intersection with the subring omitting varnames."""
    gens = list(gens)
    if ring is None:
        ring = gens[0].ring
    varnames = list(varnames)
    idxs = tuple(sorted(ring.var_index(n) for n in varnames))
    elim_ring = ring.with_order((("weight", idxs),) + ring.order.stages)
    from .rings import transfer

    moved = [transfer(ring.poly(g), elim_ring) for g in gens]
    gb = ideal_gb(moved, ring=elim_ring)
    banned = set(varnames)
    out = []
    for g in gb:
        if not (g.support_vars() & banned):
            out.append(transfer(g, ring))
    return out


# -- counting --------------------------------------------------------------
#
# Every count of a quotient ambient/<gb> is read off one series: the
# Hilbert numerator of the basis' leads over the generic fiber
# (GBasis.hilbert_numerator), from Bigatti's pivot recursion down to
# leads in at most two variables, read as a staircase.  A strand
# dimension is a coefficient of the series: a sum of numerator
# coefficients times counts of monomials (Ring.monomial_count), none of
# them listed.  Its dimension, degree and length are read at t = 1 once
# each T^mu is sent to t^psi(mu).


def _generic_leads(leads, ring):
    """(component, exponents) leads over the generic fiber of the base.

    Module terms are keyed by their graded part and component before
    their parameter part (_Ctx), so the (component, graded part) of a
    lead is the lead over the generic fiber, and the parameter part is
    set to zero.  The leads are a GBasis' own (GBasis.leads), so none is
    redundant over the base, and each has a coefficient that is nonzero
    in the base (GBasis.generic_lead_coefficients).
    """
    zpad = (0,) * ring.nz
    ng = ring.ngraded
    return [(c, e[:ng] + zpad) for c, e in leads]


def hilbert_numerator(leads, module):
    """Numerator of the Hilbert series of module/<leads> over the generic
    fiber, as {degree: coefficient} with no zero coefficient.

    The series is N(T) / prod_i (1 - T^deg(x_i)) over the graded
    variables, so two quotients of one free module have the same Hilbert
    function in every degree exactly when their numerators agree.  leads
    are (component, exponents) pairs of a GBasis (GBasis.leads), read
    over the generic fiber (_generic_leads); component c adds
    T^shift_c times the numerator of k[x]/(its monomial ideal), from
    Bigatti's pivot recursion (JPAA 119, 1997) down to generators in at
    most two variables, whose numerator is read off their staircase
    (_monomial_numerator).
    """
    ring = module.ring
    ng = ring.ngraded
    degs = ring.degrees[:ng]
    by_comp = [[] for _ in module.shifts]
    for c, e in _generic_leads(leads, ring):
        by_comp[c].append(e[:ng])
    memo = {}
    total = {}
    for gens, shift in zip(by_comp, module.shifts):
        for d, v in _monomial_numerator(gens, degs, memo).items():
            d = tuple(map(add, d, shift))
            total[d] = total.get(d, 0) + v
    return {d: v for d, v in total.items() if v}


def _monomial_numerator(gens, degs, memo):
    """Numerator of k[x]/(gens) for exponent tuples gens, memoized on the
    sorted generators and on their minimal ones.

    Minimal generators in at most two variables x_u, x_v form a
    staircase m_1, ..., m_s, sorted by ascending exponent of x_u, so
    descending in x_v; its numerator is 1 - sum T^deg(m_i) + sum
    T^deg(lcm(m_i, m_(i+1))), the ranks of its Hilbert-Burch resolution.
    Any other ideal pivots on x_j^a, x_j a variable in the most
    generators and a the lower median of its positive exponents there:
    N(I) = N(I + x_j^a) + T^(a deg x_j) N(I : x_j^a).  With x_j in two
    or more minimal generators x_j^a is none of them, and both sides
    have a smaller exponent sum, so the recursion ends at staircases or
    at generators with pairwise disjoint supports, whose numerator is
    prod (1 - T^deg m).
    """
    key = tuple(sorted(set(gens)))
    out = memo.get(key)
    if out is not None:
        return out
    minimal = []
    for e in sorted(key, key=sum):  # a divisor of e comes before it
        if not any(all(a <= b for a, b in zip(f, e)) for f in minimal):
            minimal.append(e)
    mkey = tuple(minimal)
    out = memo.get(mkey)
    if out is None:
        out = _minimal_numerator(minimal, degs, memo)
        memo[mkey] = out
    memo[key] = out
    return out


def _minimal_numerator(gens, degs, memo):
    """_monomial_numerator of minimal generators gens."""
    zero = (0,) * len(degs[0])
    counts = [sum(1 for e in gens if e[j]) for j in range(len(degs))]
    support = [j for j, n in enumerate(counts) if n]
    out = {zero: 1}
    if len(support) <= 2:
        u = support[0] if support else 0
        stairs = sorted(gens, key=lambda e: e[u])
        for e in stairs:
            d = _monomial_degree(e, degs)
            out[d] = out.get(d, 0) - 1
        for e, f in zip(stairs, stairs[1:]):
            d = _monomial_degree(tuple(map(max, e, f)), degs)
            out[d] = out.get(d, 0) + 1
    elif all(n < 2 for n in counts):
        for e in gens:
            d = _monomial_degree(e, degs)
            nxt = dict(out)
            for k, v in out.items():
                k = tuple(map(add, k, d))
                nxt[k] = nxt.get(k, 0) - v
            out = nxt
    else:
        j = counts.index(max(counts))
        exps = sorted(e[j] for e in gens if e[j])
        a = exps[(len(exps) - 1) // 2]
        pivot = tuple(a if i == j else 0 for i in range(len(degs)))
        out = dict(_monomial_numerator(gens + [pivot], degs, memo))
        shift = tuple(a * y for y in degs[j])
        colon = [e[:j] + (max(e[j] - a, 0),) + e[j + 1:] for e in gens]
        for k, v in _monomial_numerator(colon, degs, memo).items():
            k = tuple(map(add, k, shift))
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _monomial_degree(e, degs):
    """Degree of the monomial with exponents e in variables of degrees degs."""
    d = (0,) * len(degs[0])
    for a, y in zip(e, degs):
        if a:
            d = tuple(x + a * c for x, c in zip(d, y))
    return d


def _series_coefficient(ring, numerator, deg):
    """Coefficient of T^deg in numerator / prod_i (1 - T^deg(x_i)) over
    the graded variables: the sum of N_d times the number of graded
    monomials of degree deg - d (Ring.monomial_count)."""
    deg = ring.deg_tuple(deg)
    return sum(v * ring.monomial_count(tuple(map(sub, deg, d)))
               for d, v in numerator.items())


def quotient_strand_dim(gb, deg):
    """dim of the degree-deg slice of ambient/<gb> over the generic fiber."""
    return _series_coefficient(gb.module.ring, gb.hilbert_numerator(), deg)


def free_numerator(module):
    """Hilbert series numerator of a free module: the sum of T^shift."""
    free = {}
    for shift in module.shifts:
        free[shift] = free.get(shift, 0) + 1
    return free


def submodule_strand_dim(gb, deg):
    """dim of the degree-deg slice of the submodule <gb> over the generic
    fiber: the ambient free module's less the quotient's."""
    return (_series_coefficient(gb.module.ring, free_numerator(gb.module), deg)
            - quotient_strand_dim(gb, deg))


def _series_at_one(ring, numerator):
    """(dim, g1) for the Hilbert series numerator / prod_i (1 - T^deg x_i)
    over the graded variables, with each T^mu read as t^psi(mu): dim is
    the order of its pole at t = 1, which is the Krull dimension (-1 for
    the zero series), and g1 is g(1) for N(t) = (1 - t)^(n - dim) g(t),
    n the number of graded variables.  The numerator is a basis' own
    (GBasis.hilbert_numerator) or a sum of such with signs."""
    coeffs = {}
    for d, v in numerator.items():
        k = ring.psi_value(d)
        coeffs[k] = coeffs.get(k, 0) + v
    if not any(coeffs.values()):
        return -1, 0
    poly = [coeffs.get(k, 0) for k in range(min(coeffs), max(coeffs) + 1)]
    dim = ring.ngraded
    while not sum(poly):
        poly = list(accumulate(poly))[:-1]  # exact division by 1 - t
        dim -= 1
    return dim, sum(poly)


def quotient_dimension(gb):
    """Krull dimension of ambient/<gb> over the generic fiber, -1 when
    the quotient is zero."""
    return _series_at_one(gb.module.ring, gb.hilbert_numerator())[0]


def quotient_degree(gb):
    """Degree of ambient/<gb> over the generic fiber of a standard graded
    ring: h(1), where the Hilbert series is h(t) / (1 - t)^dim."""
    ring = gb.module.ring
    if any(ring.psi_value(d) != 1 for d in ring.degrees[:ring.ngraded]):
        raise NotStandardGraded("a degree is read over a standard graded ring")
    return _series_at_one(ring, gb.hilbert_numerator())[1]


def series_length(ring, numerator):
    """Total fiber-field dimension of a graded module over the generic
    fiber whose Hilbert series has this numerator, None if infinite: the
    series at t = 1 when it is a polynomial, that is when its pole at
    t = 1 has order at most 0.  It is then g(1) / prod_i psi(deg x_i)
    (see _series_at_one)."""
    dim, g1 = _series_at_one(ring, numerator)
    if dim > 0:
        return None
    for d in ring.degrees[:ring.ngraded]:
        g1 //= ring.psi_value(d)
    return g1


def presentation_vecdim(pres):
    """Total fiber-field dimension of a presented module over the generic
    fiber, None if infinite (series_length of its relation basis)."""
    return series_length(pres.ring, pres.gb().hilbert_numerator())


# -- rank and torsion ------------------------------------------------------


def matrix_rank_generic(entries, ring):
    """Rank over the fraction field of the ring, with a certifying minor.

    entries is a list of rows of Polys (possibly z-only).  Returns
    (rank, pivot_rows, pivot_cols, minor) where minor is the determinant
    of the pivot submatrix, a nonzero element of the ring certifying the
    rank wherever it does not vanish.  Requires a domain.
    """
    rows = [{j: q for j, p in enumerate(row) if not (q := ring.poly(p)).is_zero()}
            for row in entries]
    rank, piv_rows, piv_cols, minor = linalg.domain_rank(rows, ring)
    return rank, sorted(piv_rows), piv_cols, minor


def torsion_submodule(pres):
    """Torsion of a presented module over a domain, via the double dual.

    Returns (torsion_gens, quotient_presentation) where torsion_gens are
    vectors in the generator module of pres, and the quotient presents
    pres modulo its torsion.
    """
    ring = pres.ring
    if not ring.base_is_domain:
        raise BaseNotDomain("torsion needs an integral base")
    phi = pres.relations
    dual_gens = kernel_gens(phi.transpose())
    f0 = pres.gens_module
    if not dual_gens:
        # no functionals: the whole module is torsion (rank 0)
        torsion = [f0.basis_vector(i) for i in range(f0.rank)]
        quot = Presentation(FreeMap.from_columns(f0, torsion, check=False))
        return torsion, quot
    # evaluation into the free module indexed by the dual generators;
    # its kernel on F0 is exactly what dies in the double dual
    ev = _evaluation_map(f0, dual_gens, ring)
    all_torsion = kernel_gens(ev)
    visible = [v for v in all_torsion if not pres.gb().contains(v)]
    quot_rels = list(phi.cols) + all_torsion
    quot = Presentation(FreeMap.from_columns(f0, quot_rels, check=False))
    return visible, quot


def _evaluation_map(f0, functionals, ring):
    shifts = []
    for k in functionals:
        d = k.degree()
        shifts.append(tuple(-a for a in d) if d is not None else ring.zero_degree())
    w = FreeModule(ring, shifts)
    cols = []
    for i in range(f0.rank):
        cols.append(w.element([k.component(i) for k in functionals]))
    return FreeMap(f0, w, cols, check=False)


def embed_in_free(pres):
    """Embedding of a torsion-free presented module into free of equal rank.

    Returns the evaluation map of the generator module of pres at the
    first dual generators independent over the fraction field K: the
    pivot columns of the matrix whose columns are the dual generators
    (Bareiss pivots a column exactly when it is independent of the ones
    before it).  Over a domain, functionals on a torsion-free module M,
    as many as its rank, map M into free injectively exactly when they
    are independent over K, since the kernel is zero exactly when it is
    zero after tensoring with K.  So the kernel of the map is exactly
    the relations; a kernel element outside them is an engine bug.
    """
    ring = pres.ring
    if not ring.base_is_domain:
        raise BaseNotDomain("free embeddings need an integral base")
    f0 = pres.gens_module
    dual_gens = kernel_gens(pres.relations.transpose())
    _rho, _r, cols, _m = matrix_rank_generic(
        [[k.component(i) for k in dual_gens] for i in range(f0.rank)], ring)
    emb = _evaluation_map(f0, [dual_gens[j] for j in sorted(cols)], ring)
    if not all(pres.gb().contains(v) for v in kernel_gens(emb)):
        raise RuntimeError("independent dual generators do not embed a torsion-free module")
    return emb
