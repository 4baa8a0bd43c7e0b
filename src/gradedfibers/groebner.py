"""Buchberger engine for submodules of graded free modules.

Everything here runs over the flat polynomial ring k[x, y, z]; parameter
relations are handled by augmenting generator sets with relation
multiples of the ambient basis, so normal forms and kernels are computed
over the quotient without special cases downstream.

Kernels, syzygies and preimages all go through one graph construction:
a Groebner basis of {(phi(e_j), e_j)} in target (+) source with the
target block dominating; basis elements supported in the source block
are exactly a basis of the kernel.
"""

from __future__ import annotations

import heapq

from .errors import AlgebraError, BaseNotDomain, RingMismatch
from . import linalg
from .modules import FreeMap, FreeModule, Presentation, Vector
from .rings import Poly

__all__ = [
    "GBasis",
    "module_gb",
    "ideal_gb",
    "nf_poly",
    "ideal_contains",
    "ideal_equal",
    "kernel_gens",
    "syzygies",
    "preimage_gens",
    "presentation_of_submodule",
    "subquotient_presentation",
    "colon_element",
    "colon_ideal",
    "saturate_ideal",
    "intersect_ideals",
    "eliminate_ideal",
    "quotient_strand_dim",
    "submodule_strand_dim",
    "standard_monomials",
    "quotient_dimension",
    "quotient_vecdim",
    "module_rank",
    "matrix_rank_generic",
    "torsion_submodule",
    "embed_in_free",
]


class _Ctx:
    """Shared state for one Groebner run: the order key, memoized per term."""

    __slots__ = ("ring", "shifts", "split", "field", "key")

    def __init__(self, ring, shifts, split):
        self.ring = ring
        self.shifts = shifts
        self.split = split
        self.field = ring.field
        rkey = ring._key
        memo = {}
        if split:
            def key(term, _rkey=rkey, _split=split, _memo=memo):
                k = _memo.get(term)
                if k is None:
                    c, e = term
                    k = _memo[term] = (1 if c < _split else 0, _rkey(e), -c)
                return k
        else:
            def key(term, _rkey=rkey, _memo=memo):
                k = _memo.get(term)
                if k is None:
                    c, e = term
                    k = _memo[term] = (_rkey(e), -c)
                return k
        self.key = key

    def lead(self, data):
        return max(data, key=self.key)

    def psi_of_term(self, term):
        c, e = term
        d = self.ring.term_degree(e)
        s = self.shifts[c]
        return self.ring.psi_value(tuple(a + b for a, b in zip(d, s)))


def _scale_data(data, factor):
    return {t: c * factor for t, c in data.items()}


def _sub_scaled(data, other, shift_exps, factor):
    """data -= factor * x^shift * other, in place on a copy-on-write basis."""
    out = dict(data)
    for (c, e), oc in other.items():
        key = (c, tuple(a + b for a, b in zip(e, shift_exps)))
        v = out.get(key)
        w = factor * oc
        if v is None:
            out[key] = -w
        else:
            v = v - w
            if v:
                out[key] = v
            else:
                del out[key]
    return out


class _DivisorTable:
    """Leading terms bucketed by component for fast divisor lookup."""

    __slots__ = ("by_comp", "entries")

    def __init__(self):
        self.by_comp = {}
        self.entries = []

    def add(self, data, lead):
        idx = len(self.entries)
        self.entries.append((lead, data))
        self.by_comp.setdefault(lead[0], []).append(idx)

    def find(self, term):
        c, e = term
        for idx in self.by_comp.get(c, ()):
            lead, _ = self.entries[idx]
            le = lead[1]
            ok = True
            for a, b in zip(e, le):
                if a < b:
                    ok = False
                    break
            if ok:
                return idx
        return -1


def _reduce_full(ctx, data, table, quotients=None):
    """Fully reduce a term dict against the divisor table."""
    if not data:
        return data
    key = ctx.key
    rest = dict(data)
    out = {}
    while rest:
        term = max(rest, key=key)
        coeff = rest.pop(term)
        idx = table.find(term)
        if idx < 0:
            out[term] = coeff
            continue
        lead, ddata = table.entries[idx]
        shift = tuple(a - b for a, b in zip(term[1], lead[1]))
        factor = coeff / ddata[lead]
        if quotients is not None:
            q = quotients[idx]
            v = q.get(shift)
            q[shift] = factor if v is None else v + factor
        for (dc, de), dcoeff in ddata.items():
            if (dc, de) == lead:
                continue
            t = (dc, tuple(a + b for a, b in zip(de, shift)))
            v = rest.get(t)
            w = factor * dcoeff
            if v is None:
                rest[t] = -w
            else:
                v = v - w
                if v:
                    rest[t] = v
                else:
                    del rest[t]
    return out


def _normalize(ctx, data):
    """Primitive integer form over QQ, monic over GF(p); canonical sign."""
    if not data:
        return data
    if ctx.field.char == 0:
        from math import gcd, lcm
        from fractions import Fraction

        den = lcm(*(c.denominator for c in data.values()))
        num = gcd(*(c.numerator for c in data.values()))
        scale = Fraction(den, num)
        if data[ctx.lead(data)] < 0:
            scale = -scale
        if scale == 1:
            return data
        return {t: c * scale for t, c in data.items()}
    inv = ctx.field.one / data[ctx.lead(data)]
    if inv == ctx.field.one:
        return data
    return {t: c * inv for t, c in data.items()}


def _base_aug_data(ring, nc):
    """Relation multiples of each ambient basis vector, as raw dicts."""
    out = []
    for g in ring.base_gb():
        for c in range(nc):
            out.append({(c, e): co for e, co in g.terms.items()})
    return out


def _buchberger(ctx, gens_data):
    key = ctx.key
    G = []
    leads = []
    table = _DivisorTable()

    def push(data):
        data = _normalize(ctx, data)
        lead = ctx.lead(data)
        G.append(data)
        leads.append(lead)
        table.add(data, lead)

    for g in gens_data:
        h = _reduce_full(ctx, g, table)
        if h:
            push(h)

    # pair queue: a heap keyed by (psi degree of lcm, i, j), same-component
    # pairs only; the set holds the pairs still queued, for the chain criterion
    rank1 = ctx.split == 0 and len(ctx.shifts) == 1
    queue = []
    pairs = set()

    def lcm_exps(a, b):
        return tuple(x if x > y else y for x, y in zip(a, b))

    def add_pairs(j):
        cj, ej = leads[j]
        for i in range(j):
            ci, ei = leads[i]
            if ci != cj:
                continue
            l = lcm_exps(ei, ej)
            if rank1 and all(x + y == z for x, y, z in zip(ei, ej, l)):
                continue  # coprime leads reduce to zero in the ideal case
            heapq.heappush(queue, (ctx.psi_of_term((cj, l)), i, j, l))
            pairs.add((i, j))

    for j in range(len(G)):
        add_pairs(j)

    while queue:
        _psi, i, j, l = heapq.heappop(queue)
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
        # S = (x^si / ci) gi - (x^sj / cj) gj
        s = {}
        for (c, e), co in gi.items():
            s[(c, tuple(a + b for a, b in zip(e, si)))] = co / ci
        s = _sub_scaled(s, gj, sj, ctx.field.one / cj)
        h = _reduce_full(ctx, s, table)
        if h:
            push(h)
            add_pairs(len(G) - 1)

    # minimalize: drop elements whose lead is divisible by another lead
    order = sorted(range(len(G)), key=lambda i: key(leads[i]))
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
    table = _DivisorTable()
    for i in keep:
        table.add(G[i], leads[i])
    final = []
    for i in keep:
        lead = leads[i]
        data = {lead: G[i][lead]}
        data.update(_reduce_full(ctx, {t: c for t, c in G[i].items() if t != lead}, table))
        final.append(_normalize(ctx, data))
    final.sort(key=lambda d: key(ctx.lead(d)), reverse=True)
    return final


class GBasis:
    """Reduced Groebner basis of a submodule, with normal form services."""

    __slots__ = ("module", "split", "elements", "_ctx", "_table")

    def __init__(self, module, split, data_list):
        self.module = module
        self.split = split
        self._ctx = _Ctx(module.ring, module.shifts, split)
        self.elements = tuple(Vector(module, d) for d in data_list)
        self._table = _DivisorTable()
        for v in self.elements:
            if v.data:
                self._table.add(v.data, self._ctx.lead(v.data))

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def leads(self):
        return [self._ctx.lead(v.data) for v in self.elements if v.data]

    def nf(self, v):
        if v.module.ring != self.module.ring or v.module.shifts != self.module.shifts:
            raise RingMismatch("normal form against a basis from another module")
        return Vector(self.module, _reduce_full(self._ctx, v.data, self._table))

    def nf_with_quotients(self, v):
        """Normal form plus quotients: v = sum q_i * g_i + nf."""
        quotients = [dict() for _ in self._table.entries]
        data = _reduce_full(self._ctx, v.data, self._table, quotients=quotients)
        ring = self.module.ring
        qs = [Poly(ring, q, _reduce=False) for q in quotients]
        return Vector(self.module, data), qs

    def contains(self, v):
        return not self.nf(v).data

    def generic_lead_coefficients(self):
        """Leading base coefficients of the basis elements.

        With the block order the leading term over the generic fiber of
        the base is the graded part of the full leading term; its
        coefficient is a parameter-only polynomial.  At points where
        none of them vanish the evaluated basis keeps the same leading
        terms, so standard monomial counts carry over.
        """
        ring = self.module.ring
        ng = ring.ngraded
        out = []
        for v in self.elements:
            if not v.data:
                continue
            c0, e0 = self._ctx.lead(v.data)
            exy = e0[:ng]
            terms = {}
            for (c, e), co in v.data.items():
                if c == c0 and e[:ng] == exy:
                    terms[(0,) * ng + e[ng:]] = co
            out.append(Poly(ring, terms, _reduce=False))
        return out


def module_gb(vectors, module=None, split=0, base_aug=True):
    """Reduced Groebner basis of the submodule the vectors generate."""
    vectors = list(vectors)
    if module is None:
        if not vectors:
            raise AlgebraError("cannot infer the ambient module from no vectors")
        module = vectors[0].module
    ring = module.ring
    gens = [v.data for v in vectors if v.data]
    if base_aug and ring.base_rel:
        gens.extend(_base_aug_data(ring, module.rank))
    ctx = _Ctx(ring, module.shifts, split)
    return GBasis(module, split, _buchberger(ctx, gens))


def ideal_gb(polys, ring=None, _base_aug=True):
    """Reduced Groebner basis of an ideal, as a list of Polys."""
    polys = list(polys)
    if ring is None:
        if not polys:
            raise AlgebraError("cannot infer the ring from no generators")
        ring = polys[0].ring
    module = FreeModule(ring, [ring.zero_degree()])
    vecs = [module.element([p]) for p in polys]
    gb = module_gb(vecs, module, base_aug=_base_aug)
    out = []
    for v in gb:
        p = v.component(0)
        if _base_aug and ring.base_rel:
            p = Poly(ring, dict(p.terms))  # reduce away pure relation multiples
            if p.is_zero():
                continue
        out.append(p)
    return out


def nf_poly(p, gb_polys):
    """Normal form of a poly against a list of Groebner basis polys."""
    if not gb_polys:
        if p.ring.base_rel:
            return Poly(p.ring, p.terms)
        return p
    ring = gb_polys[0].ring
    module = FreeModule(ring, [ring.zero_degree()])
    basis = GBasis(module, 0, [module.element([g]).data for g in gb_polys]
                   + [d for d in (_base_aug_data(ring, 1) if ring.base_rel else [])])
    return basis.nf(module.element([p])).component(0)


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
    kernel).  Works over parameter quotients via relation augmentation.
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
    for data in _buchberger(ctx, gens):
        if not data:
            continue
        if all(c >= nt for (c, _e) in data):
            shifted = {(c - nt, e): co for (c, e), co in data.items()}
            if ring.base_rel:
                from .modules import _reduce_vec_base

                shifted = _reduce_vec_base(ring, shifted)
            if shifted:
                out.append(Vector(src, shifted))
    return out


def kernel_gens(fmap):
    """Generators (a Groebner basis) of ker(fmap) inside the source."""
    return _graph_kernel(fmap)


def syzygies(vectors, module=None):
    """Syzygies among the given vectors, in the free module they index."""
    vectors = list(vectors)
    if module is None:
        module = vectors[0].module
    fmap = FreeMap.from_columns(module, vectors, check=False)
    return kernel_gens(fmap)


def preimage_gens(fmap, target_subgens):
    """Generators of {v in source : fmap(v) lies in <target_subgens>}."""
    return _graph_kernel(fmap, extra_target_gens=target_subgens)


def presentation_of_submodule(vectors, module=None):
    """Presentation of the submodule generated by the vectors.

    Returns (presentation, inclusion) where inclusion maps the
    presentation's generator module into the ambient module.
    """
    vectors = list(vectors)
    if module is None:
        module = vectors[0].module
    inclusion = FreeMap.from_columns(module, vectors, check=False)
    syz = syzygies(vectors, module)
    rel = FreeMap.from_columns(inclusion.source, syz, check=False)
    return Presentation(rel), inclusion


def subquotient_presentation(gens, rel_gens, module):
    """Presentation of <gens>/<rel_gens> inside a common free module."""
    gens = list(gens)
    rel_gens = [v for v in rel_gens if v.data]
    inclusion = FreeMap.from_columns(module, gens, check=False)
    rels = preimage_gens(inclusion, rel_gens)
    rel_map = FreeMap.from_columns(inclusion.source, rels, check=False)
    return Presentation(rel_map), inclusion


# -- ideal arithmetic ------------------------------------------------------


def _as_ideal_vectors(gens, ring):
    module = FreeModule(ring, [ring.zero_degree()])
    return module, [module.element([ring.poly(g)]) for g in gens]


def colon_element(gens, f, ring=None):
    """(gens) : f for an ideal; returns ideal generators."""
    ring = ring or f.ring
    module, vecs = _as_ideal_vectors(gens, ring)
    fmap = FreeMap.from_columns(module, [module.element([f])], check=False)
    pre = preimage_gens(fmap, vecs)
    return [v.component(0) for v in pre if v.data]


def colon_ideal(gens, others, ring=None):
    """(gens) : (others), via intersection over the second ideal's generators."""
    others = list(others)
    if not others:
        raise AlgebraError("colon by the zero ideal")
    ring = ring or others[0].ring
    result = None
    for f in others:
        part = colon_element(gens, ring.poly(f), ring)
        result = part if result is None else intersect_ideals(result, part, ring)
    return result


def saturate_ideal(gens, others, ring=None):
    """(gens) : (others)^infinity, as a reduced Groebner basis.

    Homogeneous ideals saturated by the whole x-block of a standard
    graded grevlex ring take Bayer's route; every other input iterates
    colons.  Both return the same reduced basis.
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
    is no y-block and no base relation, and the generators are
    homogeneous."""
    nx = ring.nx
    if ring.ny or ring.base_rel or ring.gdim != 1:
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
    """I : m^infinity as the meet over i of I : x_i^infinity.

    With x_i last in grevlex, x_i divides a homogeneous element exactly
    as often as it divides the element's lead, so dividing every element
    of a Groebner basis of I by its largest power of x_i leaves a basis
    of I : x_i^infinity (Bayer & Stillman, Invent. Math. 87, 1987).
    """
    nx = ring.nx
    result = None
    for i in range(nx):
        if i == nx - 1:
            iring = ring
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
        result = part if result is None else intersect_ideals(result, part, ring)
    return result if nx > 1 else ideal_gb(result, ring=ring)


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
    """Generators of (gens_a) meet (gens_b)."""
    gens_a = list(gens_a)
    gens_b = list(gens_b)
    if ring is None:
        ring = (gens_a or gens_b)[0].ring
    if not gens_a or not gens_b:
        return []
    target = FreeModule(ring, [ring.zero_degree(), ring.zero_degree()])
    cols = [target.element([ring.one(), ring.one()])]
    for g in gens_a:
        cols.append(target.element([ring.poly(g), ring.zero()]))
    for g in gens_b:
        cols.append(target.element([ring.zero(), ring.poly(g)]))
    fmap = FreeMap.from_columns(target, cols, check=False)
    out = []
    for v in kernel_gens(fmap):
        p = v.component(0)
        if not p.is_zero():
            out.append(p)
    return ideal_gb(out, ring=ring) if out else []


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


def standard_monomials(leads, module, deg, generic=False):
    """Module monomials of the given degree not divisible by any lead.

    leads are (component, exponent tuple) pairs.  With generic=True the
    x/y-part of each lead is used, which is the correct leading term over
    the parameter-generic fiber thanks to the block order.
    """
    ring = module.ring
    ng = ring.ngraded
    deg = ring.deg_tuple(deg)
    by_comp = {}
    for c, e in leads:
        if generic:
            e = e[:ng] + (0,) * ring.nz
        by_comp.setdefault(c, []).append(e)
    out = []
    for i, shift in enumerate(module.shifts):
        want = tuple(a - b for a, b in zip(deg, shift))
        for m in ring.monomials_of_degree(want):
            divisible = False
            for le in by_comp.get(i, ()):
                if all(a >= b for a, b in zip(m, le)):
                    divisible = True
                    break
            if not divisible:
                out.append((i, m))
    return out


def quotient_strand_dim(gb, deg, generic=False):
    """dim of the degree-deg slice of ambient/<gb> over the fiber field."""
    return len(standard_monomials(gb.leads(), gb.module, deg, generic=generic))


def submodule_strand_dim(gb, deg, generic=False):
    """dim of the degree-deg slice of the submodule <gb>."""
    ring = gb.module.ring
    total = 0
    deg_t = ring.deg_tuple(deg)
    for shift in gb.module.shifts:
        want = tuple(a - b for a, b in zip(deg_t, shift))
        total += len(ring.monomials_of_degree(want))
    return total - quotient_strand_dim(gb, deg, generic=generic)


def quotient_dimension(lead_exps_or_gb, ring=None, generic=False):
    """Krull dimension of ring/(monomial ideal of leads), by independent sets.

    With generic=True the count is taken over the generic fiber of the
    base: parameter parts of the leads are dropped and only the graded
    variables may enter an independent set.
    """
    if isinstance(lead_exps_or_gb, GBasis):
        gb = lead_exps_or_gb
        ring = gb.module.ring
        leads = [e for (_c, e) in gb.leads()]
    else:
        leads = list(lead_exps_or_gb)
    n = ring.ngraded if generic else ring.nvars
    if generic:
        leads = [e[: ring.ngraded] for e in leads]
    if not leads:
        return n
    supports = []
    for e in leads:
        supports.append(frozenset(i for i, a in enumerate(e) if a))
    if frozenset() in supports:
        return -1  # unit ideal
    best = 0
    from itertools import combinations

    for size in range(n, 0, -1):
        if size <= best:
            break
        for combo in combinations(range(n), size):
            s = set(combo)
            if all(not sup <= s for sup in supports):
                best = size
                break
        if best == size:
            break
    return best


def quotient_vecdim(gb, ring=None):
    """Vector space dimension of ring/<gb> over the field, or None if infinite."""
    if isinstance(gb, GBasis):
        ring = gb.module.ring
        leads = [e for (_c, e) in gb.leads()]
    else:
        leads = list(gb)
    n = ring.nvars
    bounds = [None] * n
    for e in leads:
        nz = [i for i, a in enumerate(e) if a]
        if len(nz) == 1:
            i = nz[0]
            if bounds[i] is None or e[i] < bounds[i]:
                bounds[i] = e[i]
    if any(b is None for b in bounds):
        return None
    count = 0
    exps = [0] * n

    def rec(i):
        nonlocal count
        if i == n:
            for e in leads:
                if all(a >= b for a, b in zip(exps, e)):
                    return
            count += 1
            return
        for a in range(bounds[i]):
            exps[i] = a
            rec(i + 1)
        exps[i] = 0

    rec(0)
    return count


def presentation_vecdim(pres, generic=False):
    """Total fiber-field dimension of a presented module, None if infinite.

    Counts standard monomials of the relation basis per component; the
    count is finite exactly when every live component's lead set bounds
    every graded variable by a pure power.
    """
    ring = pres.ring
    ng = ring.ngraded
    gb = module_gb(list(pres.relations.cols), pres.gens_module)
    by_comp = {c: [] for c in range(pres.ngens)}
    for c, e in gb.leads():
        if generic:
            e = e[:ng] + (0,) * ring.nz
        by_comp[c].append(e[:ng])
    total = 0
    for c in range(pres.ngens):
        leads = by_comp[c]
        if any(not any(e) for e in leads):
            continue  # a unit relation kills this component
        bounds = [None] * ng
        for e in leads:
            pos = [i for i, a in enumerate(e) if a]
            if len(pos) == 1 and (bounds[pos[0]] is None or e[pos[0]] < bounds[pos[0]]):
                bounds[pos[0]] = e[pos[0]]
        if any(b is None for b in bounds):
            return None
        exps = [0] * ng

        def rec(i):
            got = 0
            if i == ng:
                for e in leads:
                    if all(a >= b for a, b in zip(exps, e)):
                        return 0
                return 1
            for a in range(bounds[i]):
                exps[i] = a
                got += rec(i + 1)
            exps[i] = 0
            return got

        total += rec(0)
    return total


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


def _exact_det(rows, ring):
    """Determinant over the ring; Bareiss on lifts, reduced at the end."""
    return linalg.domain_det([{j: p for j, p in enumerate(row) if not p.is_zero()}
                              for row in rows], ring)


def module_rank(pres):
    """Generic rank of a presented module over the fraction field of R."""
    entries = pres.relations.entries()
    if not entries or not entries[0]:
        return pres.ngens
    rank, _r, _c, _m = matrix_rank_generic(entries, pres.ring)
    return pres.ngens - rank


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
    rel_cols = [c for c in phi.cols if c.data]
    rel_gb = module_gb(rel_cols, f0) if rel_cols else None
    visible = [v for v in all_torsion
               if (rel_gb is None and v.data) or (rel_gb is not None and not rel_gb.contains(v))]
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


def _in_submodule(v, gens, module):
    gens = [g for g in gens if g.data]
    if not gens:
        return not v.data
    gb = module_gb(gens, module)
    return gb.contains(v)


def embed_in_free(pres, seed=0):
    """Embedding of a torsion-free presented module into free of equal rank.

    Returns a FreeMap from the generator module of pres to a free module
    of rank equal to the module rank; its columns-by-rows composite kills
    exactly the relations.  Tries coordinate projections of the double
    dual first, then seeded random combinations.
    """
    ring = pres.ring
    if not ring.base_is_domain:
        raise BaseNotDomain("free embeddings need an integral base")
    rho = module_rank(pres)
    phi = pres.relations
    f0 = pres.gens_module
    if rho == 0:
        return FreeMap(f0, FreeModule(ring, []), [FreeModule(ring, []).zero() for _ in range(f0.rank)], check=False)
    dual_gens = kernel_gens(phi.transpose())
    p = len(dual_gens)
    if p < rho:
        raise AlgebraError("dual has too few generators; module is not torsion free")
    rel_gb = module_gb(list(phi.cols), f0) if phi.cols else None

    def build(selection_rows):
        return _evaluation_map(f0, selection_rows, ring)

    def injective_mod_rels(emb):
        for v in kernel_gens(emb):
            if rel_gb is None:
                if v.data:
                    return False
            elif not rel_gb.contains(v):
                return False
        return True

    from itertools import combinations

    tried = 0
    for combo in combinations(range(p), rho):
        emb = build([dual_gens[i] for i in combo])
        if injective_mod_rels(emb):
            return emb
        tried += 1
        if tried >= 60:
            break
    import random

    rng = random.Random(seed)
    for _ in range(40):
        picks = []
        for _i in range(rho):
            coeffs = [ring.field.coerce(rng.randint(-3, 3)) for _j in range(p)]
            acc = None
            for c, k in zip(coeffs, dual_gens):
                if not c:
                    continue
                term = Vector(k.module, _scale_data(k.data, c))
                acc = term if acc is None else acc + term
            if acc is None or not acc.data:
                break
            picks.append(acc)
        if len(picks) != rho:
            continue
        try:
            emb = build(picks)
        except Exception:
            continue
        if injective_mod_rels(emb):
            return emb
    raise AlgebraError("no injective projection found; increase the search budget")
