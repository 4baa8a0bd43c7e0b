"""Closed loci in the parameter space where fiber behavior jumps.

All loci come out as ideals of the base (parameter-only polynomials).
Unions are ideal intersections, so the results stay honest over reduced
non-irreducible bases.  No locus resolves a module; each reads the
resolution its presentation owns.

The non-free locus of a module is read off one Groebner stratification
of its relation basis (Presentation.gb), as in the paper's generic
freeness: off the zeros of the generic lead coefficients the fiber has
the basis' leads, hence one Hilbert function in every degree, and below
them the basis is redone over the base with one lead coefficient
adjoined (Suzuki & Sato, ISSAC 2006, after Kalkbrener, JSC 1997).  The
locus is where a cell's Hilbert function differs from the generic one,
or, over a base whose components are not known, where the closures of
two cells with different ones meet.  It builds no strand matrix.  The
jump loci of H^i read the inverse strands of the resolution
(localcohom.cohomology_strands): each strand's rank drops where the
cokernel of its unit-free reduction stops being free, a non-free locus
again (rank_drop_locus), so no minor is enumerated.  The duality
exclusion locus reads the Ext modules and the top dual cokernel kept on
the complex.
"""

from __future__ import annotations

from .errors import AlgebraError, InvalidFiber
from . import groebner, localcohom, resolution
from .modules import FreeMap, FreeModule, Presentation
from .rings import irreducible_factors, squarefree_part, transfer
from .specialize import FiberPoint, sample_rational_point


def _squarefree_gens(gens):
    """Squarefree part of each generator, deduplicated.

    Multiplicities of individual generators never change the common
    vanishing set, and dropping them keeps unions of loci from piling up
    powers.
    """
    return list(dict.fromkeys(squarefree_part(g) for g in gens))


def rank_drop_locus(sm, ring):
    """Ideal of the points where the strand's rank falls below its
    generic rank; the unit ideal encodes the empty locus.

    The unit pivots stay pivots at every point, so the rank drops where
    that of the unit-free reduction does.  A reduction with no rows or
    no columns never drops, and a square one of full generic rank drops
    on the zeros of its determinant, the certifying minor of
    generic_rank.  Otherwise the rank drops where the reduction's
    cokernel, presented over the ring with every shift 0, stops being
    free of the generic rank, so the locus is the cokernel's
    nonfree_locus: the fiber of that module has the Hilbert function of
    a free module whose rank is the number of rows less the rank at the
    point.  No minor is enumerated.
    """
    red, piv = sm.reduced()
    if not red.rows or not red.cols:
        return [ring.one()]
    rank, minor = sm.generic_rank()
    if red.nrows == red.ncols == rank - piv:
        return [squarefree_part(minor)]
    zero = ring.zero_degree()
    target = FreeModule(ring, [zero] * red.nrows)
    cols = [target.element([row.get(j, ring.zero()) for row in red.data])
            for j in range(red.ncols)]
    coker = Presentation(FreeMap(FreeModule(ring, [zero] * red.ncols), target, cols,
                                 check=False))
    return nonfree_locus(coker)["ideal"]


def nonfree_locus(pres, window=None):
    """Ideal of base points where some graded piece of the module is not
    free, in every degree, or over the given degrees only.

    Over a base that is a domain the relation basis is stratified (see
    the module docstring).  Each cell is a piece V(E) - V(h) of the
    base, where E is the base relations plus the lead coefficients
    adjoined on the way down and h the product of the generic lead
    coefficients of the basis over A/E, one per minimal lead over the
    generic fiber; every fiber in the cell has the leads of that basis.
    A cell lies in the locus when its Hilbert function differs from
    that of the generic cell: its hilbert_numerator, or with a window
    its strand dimensions there.  Over a reduced base with several
    components the locus is the union of the loci over A/P for the
    minimal primes P.  Over a reduced base whose components are not
    known the whole base is stratified, and a point is in the locus
    when the closures of two cells with different Hilbert functions
    meet there: the fiber dimension is not locally constant at it.

    Returns a dict with the ideal generators and their strings, is_empty,
    the coverage ("all degrees" or the window's degrees), the
    certificate (the product of the generic lead coefficients, one per
    component, or one for the whole base when its components are not
    known) and the cells, each with the ideal adjoined to the base
    (adjoined), the product h, the Hilbert function its fibers share
    (hilbert), whether it is empty and, over a stratum not known to be
    prime, its closure E : h^infinity (None otherwise).
    """
    ring = pres.ring
    degrees = None if window is None else [ring.deg_tuple(mu) for mu in window]

    def hilbert(gb):
        if degrees is None:
            return gb.hilbert_numerator()
        return [groebner.quotient_strand_dim(gb, mu) for mu in degrees]

    cells = []
    if ring.base_is_domain or ring.minimal_primes():
        roots = [([], pres)] if ring.base_is_domain else [
            (list(prime), pres.evaluate(FiberPoint.generic(ring, list(prime))))
            for prime in ring.minimal_primes()]
        certificate = []
        bad = []
        for adjoined, piece in roots:
            first = len(cells)
            whole, part = _stratum(piece, adjoined, True, None, hilbert, ring, cells, {})
            certificate.append(cells[first]["h"])
            bad.extend([adjoined] if whole else part)
    else:
        _stratum(pres, [], False, None, hilbert, ring, cells, {})
        certificate = [cells[0]["h"]]
        live = [cell for cell in cells if not cell["empty"]]
        bad = [a["closure"] + b["closure"] for i, a in enumerate(live)
               for b in live[i + 1:] if a["hilbert"] != b["hilbert"]]
    gens = _union_of_closures(bad, ring)
    return {
        "ideal": gens,
        "ideal_strings": [str(g) for g in gens],
        "is_empty": _is_unit_ideal(gens, ring),
        "coverage": "all degrees" if degrees is None else degrees,
        "certificate": certificate,
        "cells": cells,
    }


def _product(polys, ring):
    """The product of the distinct polys, content dropped."""
    acc = ring.one()
    for f in dict.fromkeys(polys):
        acc = acc * f
    return acc.primitive()


def _stratum(pres, adjoined, prime, reference, hilbert, ring, cells, seen):
    """(whole, bad) for the stratum V(E) of a base A/E over which pres is
    presented: whole is True when every nonempty cell in it lies in the
    locus, and otherwise bad lists ideals of the original base whose
    zero sets cover the cells that do.

    adjoined holds the generators of E beyond the relations of ring, the
    original base; reference is the Hilbert function of the generic
    cell, None for the stratum of a whole component, whose generic cell
    it is; prime says E is known to be prime.  Then the generic
    cell is dense in V(E), so it is not empty, and when it lies in the
    closed locus the whole stratum does.  Otherwise the cell is empty
    when E : h^infinity is the unit ideal.  Below the cell, each factor
    f of a minimal lead coefficient gives the stratum V(E + f), read off
    the basis redone over A/(E + f).  A stratum that two orders of
    factors reach, as (s, t) from s and from t, is computed once: seen
    maps the reduced relation basis of each stratum below this
    component to its (whole, bad).
    """
    gb = pres.gb()
    base = pres.ring
    coeffs = gb.minimal_lead_coefficients()
    h = _product(coeffs, base)
    closure = None if prime else _cell_closure(base, h)
    empty = closure is not None and groebner._has_unit(closure)
    fiber_hilbert = hilbert(gb)
    if reference is None:
        reference = fiber_hilbert  # the generic cell of a component
    cell_bad = not empty and fiber_hilbert != reference
    cells.append({"adjoined": adjoined, "h": transfer(h, ring), "hilbert": fiber_hilbert,
                  "empty": empty,
                  "closure": None if closure is None else
                  [g for g in (transfer(f, ring) for f in closure) if not g.is_zero()]})
    if cell_bad and prime:
        return True, []
    factors = []
    for f in coeffs:
        factors.extend(irreducible_factors(f))
    whole = empty or cell_bad
    bad = [closure] if cell_bad else []
    # over a polynomial base one irreducible factor cuts out a prime
    prime_below = not adjoined and not ring.base_rel and ring.field.char == 0
    for f in dict.fromkeys(g for g in factors if g.constant_value() is None):
        # the generic point of V(E + f), where E + f need not be prime:
        # the basis over A/(E + f) stratifies it all the same
        fiber = FiberPoint(base, "generic", prime_gens=(f,),
                           residue_ring=base.with_extra_relations([f]))
        rels = [v.component(0) for v in fiber.residue_ring.base_basis()]
        if groebner._has_unit(rels):
            continue  # f is a unit on this stratum
        child = adjoined + [transfer(f, ring)]
        key = tuple(rels)
        if key not in seen:
            seen[key] = _stratum(pres.evaluate(fiber), child, prime_below,
                                 reference, hilbert, ring, cells, seen)
        child_whole, child_bad = seen[key]
        whole = whole and child_whole
        bad.extend([child] if child_whole else child_bad)
    return whole, bad


def _cell_closure(base, h):
    """Generators of E : h^infinity in the relation-free ring, where E
    are the relations of base: the ideal of the closure of V(E) - V(h),
    the unit ideal when that cell is empty."""
    basis = base.base_basis()
    flat = basis.module.ring
    rels = [v.component(0) for v in basis]
    return groebner.saturate_ideal(rels, [transfer(h, flat)], flat)


def _union_of_closures(ideals, ring):
    """Reduced generators of the union of the zero sets of the ideals, in
    the original base: an ideal whose zeros lie in an earlier one's is
    left out, and the rest are intersected."""
    kept = []
    for gens in ideals:
        gens = [transfer(g, ring) for g in gens]
        if any(_zeros_inside(gens, other, ring) for other in kept):
            continue
        kept = [other for other in kept if not _zeros_inside(other, gens, ring)]
        kept.append(gens)
    acc = None
    for gens in kept:
        acc = _union(acc, groebner.ideal_gb(gens, ring=ring), ring)
    return [ring.one()] if acc is None else _squarefree_gens(acc)


def _zeros_inside(gens, other, ring):
    """V(gens) inside V(other): each generator of other lies in the
    radical of (gens) plus the relations of the base."""
    basis = ring.base_basis()
    flat = basis.module.ring if basis is not None else ring
    ideal = [transfer(g, flat) for g in gens]
    if basis is not None:
        ideal += [v.component(0) for v in basis]
    return all(groebner._has_unit(groebner.saturate_ideal(ideal, [transfer(g, flat)], flat))
               for g in other)


def _union(acc, gens, ring):
    """Ideal of the union of the locus acc with the locus of gens.

    acc None is the empty start; [] is the whole base, which absorbs.
    A side holding a unit is the empty locus, so the other side is the
    union as it stands.
    """
    if acc == [] or not gens:
        return []
    if acc is None or groebner._has_unit(acc):
        return gens
    if groebner._has_unit(gens):
        return acc
    return groebner.intersect_ideals(acc, gens, ring)


def _is_unit_ideal(gens, ring):
    if not gens:
        return False  # zero ideal: the locus is everything
    return groebner._has_unit(groebner.ideal_gb(list(gens), ring=ring))


def cohomology_jump_loci(pres, degrees):
    """Union over degrees and cohomological indices of the jump loci.

    The jump locus of [H^i]_mu is where its fiber dimension exceeds the
    generic value, that is where the rank of one of the two inverse
    strands around it (localcohom.cohomology_strands) drops below its
    generic rank: the union of their rank_drop_locus.  Each strand of a
    degree serves two indices, and its locus is built once.  Needs an
    irreducible base, since the generic strand ranks are compared
    against their pointwise values.  The strands and their generic ranks
    are those kept on the presentation's resolution.
    """
    ring = pres.ring
    if not ring.base_is_domain:
        raise AlgebraError("per-component analysis is needed over a reducible base")
    res = pres.resolution()
    acc = None
    detail = {}
    for mu in degrees:
        mu = ring.deg_tuple(mu)
        pairs = localcohom.cohomology_strands(res, mu)
        drops = {}
        for pair in pairs:
            for sm in pair:
                if id(sm) not in drops:
                    drops[id(sm)] = rank_drop_locus(sm, ring)
                    acc = _union(acc, drops[id(sm)], ring)
        for i, (lam_in, lam_out) in enumerate(pairs):
            gens = _union(drops[id(lam_in)], drops[id(lam_out)], ring)
            detail[(i, mu)] = [str(g) for g in gens]
    return {"ideal": [ring.one()] if acc is None else acc, "detail": detail}


def duality_exclusion_locus(pres, window=None):
    """Locus to avoid when reading fiber cohomology off the generic one.

    Union of the non-free loci (nonfree_locus) of the module itself, of
    its Ext modules against the ring, and of the top dual cokernel, the
    last two read off the module's one resolution.  Off this closed set
    evaluation commutes with everything we compute.  Each piece's locus
    is read off its relation basis, so no strand matrix is built and no
    minor enumerated.  "module" holds the module's own nonfree_locus,
    which is computed once with these arguments.
    """
    ring = pres.ring
    module = nonfree_locus(pres, window=window)
    res = pres.resolution()
    acc = None
    detail = {}
    if pres.ngens == 0:
        detail["module"] = ["1"]  # the zero module is free everywhere
    else:
        detail["module"] = module["ideal_strings"]
        acc = _union(None, module["ideal"], ring)
    pieces = [("ext%d" % jj, e) for jj, e in
              enumerate(resolution.ext_presentations(res))]
    pieces.append(("top_dual", resolution.top_dual_cokernel(res)))
    for name, piece in pieces:
        if piece.ngens == 0:
            detail[name] = ["1"]
            continue
        info = nonfree_locus(piece, window=window)
        detail[name] = info["ideal_strings"]
        acc = _union(acc, info["ideal"], ring)
    gens = [ring.one()] if acc is None else acc
    return {"ideal": gens, "ideal_strings": [str(g) for g in gens],
            "detail": detail, "module": module}


# -- radicals and components (parameter-only ideals) -------------------------


def locus_radical(gens, ring):
    """(radical generators, exact flag) for a parameter-only ideal.

    Principal ideals get squarefree parts; zero-dimensional ideals get
    the classical univariate-eliminant treatment; anything else is
    returned as-is with the flag down.  Over a base with relations the
    radical is that of the ideal plus the relations in the relation-free
    ring: a squarefree generator need not give a radical ideal there, as
    s over the cusp s^2 = t^3, where t^3 lies in (s) and t does not.
    """
    gens = [g for g in (ring.poly(g) for g in gens) if not g.is_zero()]
    if not gens:
        return [], True
    if ring.base_rel:
        basis = ring.base_basis()
        flat = basis.module.ring
        rad, exact = locus_radical([transfer(g, flat) for g in gens]
                                   + [v.component(0) for v in basis], flat)
        return groebner.ideal_gb([transfer(g, ring) for g in rad], ring=ring), exact
    gb = groebner.ideal_gb(gens, ring=ring)
    if len(gb) == 1:
        return [squarefree_part(gb[0])], True
    leads = [g.leading_term()[0] for g in gb]
    znames = list(ring.znames)
    zidx = [ring.var_index(n) for n in znames]
    pure = {}
    for e in leads:
        nzpos = [k for k, a in enumerate(e) if a]
        if len(nzpos) == 1 and nzpos[0] in zidx:
            pure[nzpos[0]] = True
    if len(pure) == len(zidx) and ring.field.char == 0:
        # zero dimensional in the parameters: add squarefree eliminants
        extra = []
        for name in znames:
            others = [n for n in znames if n != name]
            eliminated = groebner.eliminate_ideal(gb, others, ring=ring)
            univ = [g for g in eliminated if g.support_vars() <= {name}]
            if univ:
                extra.append(squarefree_part(univ[0]))
        rad = groebner.ideal_gb(list(gb) + extra, ring=ring)
        return rad, True
    return gb, False


def _not_in_component(g, prime_gb, ring):
    if not prime_gb:
        return not g.is_zero()
    return not groebner.nf_poly(g, prime_gb).is_zero()


# -- constancy harness -------------------------------------------------------


def constancy_report(pres, degrees, seed=0, samples=2, locus=()):
    """Fiber cohomology across the components of the base.

    For every minimal prime the generic point of its component gives the
    per-component table; rational sample points on the component (off
    the other components) must reproduce it.  The samples of a component
    are distinct, and none lies on the closed locus given by the
    generators in locus (a jump locus, where the table is known to
    differ), so a point at which all of them vanish is drawn again.
    Returns per-component dims, the sample evidence, and whether the
    function is constant within components and across them.  A component
    where samples were asked for and no rational point was found has
    samples_match None, and then locally_constant is None unless some
    sample disagreed.
    """
    import random

    ring = pres.ring
    if ring.nz == 0:
        table = localcohom.local_cohomology_table(pres, degrees)
        return {
            "components": {"(field base)": {
                "generic_dims": sorted_dims(table),
                "samples": [],
                "samples_found": 0,
                "samples_match": True,
            }},
            "locally_constant": True,
            "globally_constant": True,
        }
    locus = [ring.poly(g) for g in locus]

    def on_locus(pt):
        return bool(locus) and not any(pt.evaluate_scalar(g) for g in locus)

    comps = ring.minimal_primes()
    if not comps:
        comps = ((),)
    report = {}
    dims_per_comp = []
    verdicts = []
    for prime in comps:
        key = "(" + ", ".join(str(q) for q in prime) + ")" if prime else "(0)"
        point = FiberPoint.generic(ring, list(prime)) if prime else None
        table = localcohom.local_cohomology_table(pres, degrees, point=point)
        gdims = sorted_dims(table)
        sample_rows = []
        ok = True
        other_avoid = []
        pgb = groebner.ideal_gb(list(prime), ring=ring) if prime and len(comps) > 1 else []
        for other in comps:
            if other == prime:
                continue
            for q in other:
                if _not_in_component(q, pgb, ring):
                    other_avoid.append(q)
                    break
        rng = random.Random(seed)  # a component's samples do not hang on the others
        drawn = set()
        for _ in range(samples):
            try:
                pt = sample_rational_point(
                    ring, rng, avoid=other_avoid, on=list(prime),
                    reject=lambda pt: pt.values in drawn or on_locus(pt))
            except InvalidFiber:
                break  # no rational points found on this component
            drawn.add(pt.values)
            t2 = localcohom.local_cohomology_table(pres, degrees, point=pt)
            sdims = sorted_dims(t2)
            match = sdims == gdims
            ok = ok and match
            sample_rows.append({"point": pt.describe(), "dims": sdims, "match": match})
        if samples and not sample_rows:
            ok = None
        verdicts.append(ok)
        report[key] = {
            "generic_dims": gdims,
            "samples": sample_rows,
            "samples_found": len(sample_rows),
            "samples_match": ok,
        }
        dims_per_comp.append(tuple(sorted(gdims.items())))
    globally_constant = len(set(dims_per_comp)) <= 1
    if False in verdicts:
        locally_constant = False
    elif None in verdicts:
        locally_constant = None
    else:
        locally_constant = True
    return {
        "components": report,
        "locally_constant": locally_constant,
        "globally_constant": globally_constant,
    }


def sorted_dims(table):
    return {"%d@%s" % (i, ",".join(str(a) for a in deg)): d
            for (i, deg), d in sorted(table.dims.items())}
