"""Closed loci in the parameter space where fiber behavior jumps.

All loci come out as ideals of the base (parameter-only polynomials).
The basic building block is the exactness-defect locus of two composable
strand matrices: the points where the ranks fail to add up to the exact
value.  Unions over degrees are ideal intersections, so the results stay
honest over reduced non-irreducible bases.  No locus resolves a module;
each reads the resolution its presentation owns: the non-free locus its
raw d_1 and d_2, the jump loci and the duality exclusion locus its
inverse strands (localcohom.cohomology_strands), Ext modules and top
dual cokernel, all kept on the complex for the next reader.
"""

from __future__ import annotations

from .errors import AlgebraError, InvalidFiber
from . import groebner, localcohom, resolution, strands
from .rings import irreducible_factors, squarefree_part
from .specialize import FiberPoint, sample_rational_point

# nonfree_locus scans WINDOW_SLACK degrees past the largest shift, then grows the
# window until the ideal is unchanged for STABLE_SPAN degrees, by at most MAX_GROW
WINDOW_SLACK = 2
MAX_GROW = 24
STABLE_SPAN = 3


def _squarefree_gens(gens):
    """Squarefree part of each generator, deduplicated.

    Multiplicities of individual generators never change the common
    vanishing set, and dropping them lets unions over growing degree
    windows reach a stable ideal instead of piling up powers.
    """
    out = []
    seen = set()
    for g in gens:
        s = squarefree_part(g)
        key = tuple(sorted(s.terms.items()))
        if key not in seen:
            seen.add(key)
            out.append(s)
    return out


def defect_locus(sm_in, sm_out, target_sum, ring):
    """Ideal of points where rank(sm_in) + rank(sm_out) < target_sum.

    The unit ideal encodes the empty locus, no generators the full base.
    Over QQ[t] a rank drops only at the primes of the certifying minor of
    the generic rank, so the locus is read off the ranks at those finitely
    many points: the product of the prime factors where the two ranks sum
    below target_sum.  Over any other base the condition splits over the
    ways to cap the two ranks, so the locus is the intersection over
    a + b = target_sum - 1 of the ideals (minors of size a+1 of sm_in) +
    (minors of size b+1 of sm_out).
    """
    if target_sum <= 0:
        return [ring.one()]  # ranks are never negative: nothing can fail
    if ring.nz == 1 and not ring.base_rel and ring.field.char == 0:
        return _univariate_defect_locus(sm_in, sm_out, target_sum, ring)
    # rank caps beyond the matrix size are vacuous; after clamping, drop
    # the (a, b) pairs whose locus sits inside another pair's locus
    cap_in = min(sm_in.nrows, sm_in.ncols)
    cap_out = min(sm_out.nrows, sm_out.ncols)
    pairs = {(min(a, cap_in), min(target_sum - 1 - a, cap_out))
             for a in range(target_sum)}
    pairs = [p for p in pairs
             if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pairs)]
    acc = None
    for a, b in sorted(pairs):
        part = sm_in.minors_ideal(a + 1) + sm_out.minors_ideal(b + 1)
        if not part:
            # both rank caps hold identically: every point is in the locus
            return []
        part = groebner.ideal_gb(_squarefree_gens(part), ring=ring)
        if not part:
            return []  # all minors vanish on the base
        acc = part if acc is None else groebner.intersect_ideals(acc, part, ring)
        if not acc:
            return []
    return _squarefree_gens(acc)


def _univariate_defect_locus(sm_in, sm_out, target_sum, ring):
    (rank_in, minor_in), (rank_out, minor_out) = sm_in.generic_rank(), sm_out.generic_rank()
    if rank_in + rank_out < target_sum:
        return []  # the generic point is in the locus, so every point is
    acc = ring.one()
    for f in dict.fromkeys(irreducible_factors(minor_in) + irreducible_factors(minor_out)):
        point = FiberPoint.generic(ring, [f])
        if sm_in.rank_at(point) + sm_out.rank_at(point) < target_sum:
            acc = acc * f
    return [acc.primitive()]


def presentation_defect_at(res, mu, ring):
    """Locus where the evaluated resolution stops being exact at F_1 in
    degree mu, i.e. where the mu-strand of the module jumps."""
    sm1 = strands.strand_matrix(res.map(1), mu)
    sm2 = strands.strand_matrix(res.map(2), mu)
    v = sm1.ncols  # dim of the F_1 strand
    return defect_locus(sm2, sm1, v, ring)


def nonfree_locus(pres, window=None):
    """Ideal of base points where some strand of the module jumps.

    Scans the degree window (auto-grown until the accumulated ideal is
    stable for STABLE_SPAN consecutive degrees on the high end; the low
    end is exact since strands vanish below the smallest shift) and
    intersects the per-degree defect loci.

    Returns a dict with the ideal generators, the window that was used,
    whether it stabilized, and the per-degree contributions.
    """
    ring = pres.ring
    if ring.gdim != 1 and window is None:
        raise AlgebraError("multigraded loci need an explicit degree window")
    res = pres.resolution().raw
    per_degree = {}
    acc = None

    def push(mu):
        nonlocal acc
        gens = presentation_defect_at(res, ring.deg_tuple(mu), ring)
        per_degree[mu] = [str(g) for g in gens]
        before = acc
        acc = _union(acc, gens, ring)
        return before is None or [g.terms for g in acc] != [g.terms for g in before]

    if window is not None:
        for mu in window:
            push(mu)
        stabilized = True
        used = list(window)
    else:
        shifts = [s[0] for m in res.modules[:3] for s in m.shifts]  # F_0, F_1, F_2
        lo = min(shifts) if shifts else 0
        hi = (max(shifts) if shifts else 0) + WINDOW_SLACK
        used = list(range(lo, hi + 1))
        for mu in used:
            push(mu)
        stable = 0
        steps = 0
        stabilized = False
        mu = hi
        while steps < MAX_GROW:
            mu += 1
            steps += 1
            used.append(mu)
            if push(mu):
                stable = 0
            else:
                stable += 1
                if stable >= STABLE_SPAN:
                    stabilized = True
                    break
    gens = [ring.one()] if acc is None else acc
    return {
        "ideal": gens,
        "ideal_strings": [str(g) for g in gens],
        "window": used,
        "stabilized": stabilized,
        "per_degree": per_degree,
        "is_empty": _is_unit_ideal(gens, ring),
    }


def _union(acc, gens, ring):
    """Ideal of the union of the locus acc with the locus of gens.

    acc None is the empty start; [] is the whole base, which absorbs.
    A side holding a unit is the empty locus, so the union is the other
    side, as the reduced basis that intersect_ideals would return.
    """
    if acc == [] or not gens:
        return []
    if acc is None:
        return gens
    if _has_unit(acc):
        return groebner.ideal_gb(gens, ring=ring)
    if _has_unit(gens):
        return groebner.ideal_gb(acc, ring=ring)
    return groebner.intersect_ideals(acc, gens, ring)


def _has_unit(gens):
    # constant_value() is None off the constants and 0 for the zero poly
    return any(g.constant_value() for g in gens)


def _is_unit_ideal(gens, ring):
    if not gens:
        return False  # zero ideal: the locus is everything
    return _has_unit(groebner.ideal_gb(list(gens), ring=ring))


def cohomology_jump_loci(pres, degrees):
    """Union over degrees and cohomological indices of the jump loci.

    The jump locus of [H^i]_mu is where its fiber dimension exceeds the
    generic value, that is where the ranks of the two inverse strands
    around it (localcohom.cohomology_strands) drop below their generic
    sum.  Needs an irreducible base, since the generic strand ranks are
    compared against their pointwise values.  The strands and their
    generic ranks are those kept on the presentation's resolution.
    """
    ring = pres.ring
    if not ring.base_is_domain:
        raise AlgebraError("per-component analysis is needed over a reducible base")
    res = pres.resolution()
    acc = None
    detail = {}
    for mu in degrees:
        mu = ring.deg_tuple(mu)
        for i, (lam_in, lam_out) in enumerate(localcohom.cohomology_strands(res, mu)):
            target = lam_out.generic_rank()[0] + lam_in.generic_rank()[0]
            gens = defect_locus(lam_in, lam_out, target, ring)
            detail[(i, mu)] = [str(g) for g in gens]
            acc = _union(acc, gens, ring)
    return {"ideal": [ring.one()] if acc is None else acc, "detail": detail}


def duality_exclusion_locus(pres, window=None):
    """Locus to avoid when reading fiber cohomology off the generic one.

    Union of the jump loci of the module itself, of its Ext modules
    against the ring, and of the top dual cokernel, the last two read
    off the module's one resolution.  Off this closed set evaluation
    commutes with everything we compute.  "module" holds the module's
    own nonfree_locus, which is computed once with these arguments.
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
    returned as-is with the flag down.
    """
    gens = [g for g in (ring.poly(g) for g in gens) if not g.is_zero()]
    if not gens:
        return [], True
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


def constancy_report(pres, degrees, seed=0, samples=2):
    """Fiber cohomology across the components of the base.

    For every minimal prime the generic point of its component gives the
    per-component table; rational sample points on the component (off
    the other components) must reproduce it.
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
        for other in comps:
            if other == prime:
                continue
            pgb = groebner.ideal_gb(list(prime), ring=ring) if prime else []
            for q in other:
                if _not_in_component(q, pgb, ring):
                    other_avoid.append(q)
                    break
        rng = random.Random(seed)  # a component's samples do not hang on the others
        for _ in range(samples):
            try:
                pt = sample_rational_point(ring, rng, avoid=other_avoid, on=list(prime))
            except InvalidFiber:
                break  # no rational points found on this component
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
