"""Rational maps between projective spaces over a parameter base.

A map is a tuple of forms of one common degree in the standard graded
x-block.  Per fiber we compute the image ideal by elimination, read the
analytic spread and the image degree off the Hilbert function of the
special fiber ring, extract the map degree from the growth of the first
local cohomology of powers, and cross all of it against the saturated
fiber multiplicity and the j-multiplicity.  The limits in the
definitions become finite differences with an explicit stability rule:
the last two difference values must agree, otherwise UnstableLimit asks
for a larger cutoff instead of extrapolating silently.
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import (AlgebraError, BaseNotDomain, InvalidFiber,
                     NotGenericallyFinite, NotHomogeneous, NotStandardGraded,
                     UnstableLimit)
from . import groebner
from .rings import make_ring, transfer
from .specialize import (FiberPoint, _fresh_names, _power_products,
                         sample_rational_point)


class RationalMap:
    """Forms g_0..g_s of one degree d > 0 defining x -> (g_0 : ... : g_s)."""

    __slots__ = ("ring", "forms", "form_degree", "_cache")

    def __init__(self, ring, forms):
        if ring.ny:
            raise NotStandardGraded("rational maps live on a pure x-block ring")
        if ring.gdim != 1 or any(d[0] != 1 for d in ring.degrees[: ring.nx]):
            raise NotStandardGraded("the source must be standard graded")
        if ring.nx < 2:
            raise AlgebraError("the source projective space needs at least two coordinates")
        polys = [ring.poly(g) for g in forms]
        if not polys:
            raise AlgebraError("a rational map needs at least one form")
        d = None
        for g in polys:
            if g.is_zero():
                continue
            if not ring.is_homogeneous(g):
                raise NotHomogeneous("map forms must be homogeneous")
            dg = ring.degree_of(g)[0]
            if d is None:
                d = dg
            elif dg != d:
                raise AlgebraError("map forms must share one degree")
        if d is None or d <= 0:
            raise AlgebraError("map forms must be nonconstant")
        self.ring = ring
        self.forms = tuple(polys)
        self.form_degree = d
        self._cache = {}


def _default_cutoff(fring):
    # a plane source needs deeper powers than a space one at desk scale
    return 6 if fring.nx <= 2 else 4


def _point_key(point):
    if point is None:
        return "generic"
    return repr(point.describe())


def _stable_tail(values, order):
    """Order-th finite difference once its last two values agree, else None."""
    seq = list(values)
    for _ in range(order):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    if len(seq) >= 2 and seq[-1] == seq[-2]:
        return seq[-1]
    return None


def _forms_at(ring, forms, point):
    """(fiber ring, evaluated forms, generic flag) for a fiber choice.

    point=None over a parameter base means the generic point of the
    whole base, which must then be a domain.
    """
    forms = [ring.poly(g) for g in forms]
    if point is None:
        if ring.nz == 0:
            return ring, forms, False
        if not ring.base_is_domain:
            raise BaseNotDomain("pick a component for the generic fiber")
        return ring, forms, True
    if point.is_rational:
        fring = point.fiber_ring(ring)
        return fring, [point.evaluate(g) for g in forms], False
    fring = point.fiber_ring(ring)
    if not fring.base_is_domain:
        raise BaseNotDomain("generic points need a prime relation ideal")
    return fring, [transfer(g, fring) for g in forms], True


def _ideal_gb_object(gens, ring):
    module, vecs = groebner._as_ideal_vectors(
        [g for g in gens if not g.is_zero()], ring)
    return groebner.module_gb(vecs, module=module)


def _ideal_strand_dim(gens, deg, ring, generic):
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0
    gb = _ideal_gb_object(gens, ring)
    return groebner.submodule_strand_dim(gb, deg, generic=generic)


# -- the special fiber ring --------------------------------------------------


def _image_data(rmap, point):
    key = _point_key(point)
    if key in rmap._cache:
        return rmap._cache[key]
    fring, forms, generic = _forms_at(rmap.ring, rmap.forms, point)
    if all(g.is_zero() for g in forms):
        raise InvalidFiber("every form vanishes at this fiber")
    d = rmap.form_degree
    m = len(forms)
    ynames = _fresh_names("y", m, set(fring.names))
    big = make_ring(
        list(fring.xnames) + ynames,
        [1] * fring.nx + [d] * m,
        params=list(fring.znames),
        relations=[str(g) for g in _base_polys(fring)],
        field=fring.field,
    )
    rel = [big.var(yn) - transfer(g, big) for yn, g in zip(ynames, forms)]
    elim = groebner.eliminate_ideal(rel, list(fring.xnames), ring=big)
    tring = make_ring(
        ynames,
        [1] * m,
        params=list(fring.znames),
        relations=[str(g) for g in _base_polys(fring)],
        field=fring.field,
    )
    gens = [transfer(g, tring) for g in elim]
    gb = _ideal_gb_object(gens, tring)
    spread = groebner.quotient_dimension(gb, generic=generic)
    data = {
        "fring": fring,
        "forms": forms,
        "generic": generic,
        "tring": tring,
        "gens": gens,
        "gb": gb,
        "spread": spread,
    }
    rmap._cache[key] = data
    return data


def _base_polys(ring):
    from .rings import Poly

    return [Poly(ring, dict(t), _reduce=False) for t in ring.base_rel]


def image_ideal(rmap, point=None):
    """Kernel of k(fiber)[y] -> k(fiber)[x], y_i -> g_i, by elimination."""
    return list(_image_data(rmap, point)["gens"])


def generically_finite(rmap, point=None):
    """True when the special fiber ring reaches the source dimension."""
    data = _image_data(rmap, point)
    return data["spread"] == data["fring"].nx


def image_degree(rmap, point=None):
    """Degree of the closed image inside its projective target."""
    data = _image_data(rmap, point)
    if data["spread"] != data["fring"].nx:
        raise NotGenericallyFinite(
            "analytic spread %d < %d" % (data["spread"], data["fring"].nx))
    order = data["spread"] - 1

    def hilb(n):
        return groebner.quotient_strand_dim(data["gb"], (n,), generic=data["generic"])

    vals = [hilb(n) for n in range(order + 3)]
    while True:
        v = _stable_tail(vals, order)
        if v is not None:
            return v
        if len(vals) > 40:
            raise UnstableLimit("image Hilbert function refuses to stabilize")
        vals.append(hilb(len(vals)))


# -- powers and their first local cohomology ---------------------------------


class _Powers:
    """The powers I^k of one ideal over one fiber ring, and their
    saturations I^k : m^inf, each computed at most once."""

    __slots__ = ("ring", "gens", "generic", "_powers", "_saturated")

    def __init__(self, ring, gens, generic):
        self.ring = ring
        self.gens = gens
        self.generic = generic
        self._powers = {}
        self._saturated = {}

    def power(self, k):
        if k not in self._powers:
            self._powers[k] = _power_products(self.gens, k, self.ring)
        return self._powers[k]

    def saturated(self, k):
        if k not in self._saturated:
            xgens = [self.ring.var(n) for n in self.ring.xnames]
            self._saturated[k] = groebner.saturate_ideal(self.power(k), xgens,
                                                         ring=self.ring)
        return self._saturated[k]


def _map_powers(rmap, point):
    """The powers of the ideal of the map's forms at a fiber, kept in the
    map's cache so every invariant of that fiber shares them."""
    key = ("powers", _point_key(point))
    if key not in rmap._cache:
        fring, forms, generic = _forms_at(rmap.ring, rmap.forms, point)
        forms = [g for g in forms if not g.is_zero()]
        if not forms:
            raise InvalidFiber("every form vanishes at this fiber")
        rmap._cache[key] = _Powers(fring, forms, generic)
    return rmap._cache[key]


def power_h1_dims(rmap, point=None, cutoff=None):
    """dim [H^1_m(I^k)]_{k d} for k = 1..cutoff at the fiber.

    Since the ambient polynomial ring has depth at least two, this is
    the dimension of [(I^k : m^inf) / I^k] in degree k d.
    """
    powers = _map_powers(rmap, point)
    fring, generic = powers.ring, powers.generic
    if cutoff is None:
        cutoff = _default_cutoff(fring)
    d = rmap.form_degree
    out = []
    for k in range(1, cutoff + 1):
        deg = (k * d,)
        out.append(_ideal_strand_dim(powers.saturated(k), deg, fring, generic)
                   - _ideal_strand_dim(powers.power(k), deg, fring, generic))
    return out


def map_degree(rmap, point=None, cutoff=None):
    """Degree of the map onto its image, from the growth of H^1 of powers.

    deg(Y) (deg(G) - 1) equals the degree-r growth coefficient of
    dim [H^1_m(I^k)]_{k d} with r the source dimension; the returned
    dict carries the power table used.
    """
    degY = image_degree(rmap, point)
    fring = _image_data(rmap, point)["fring"]
    r = fring.nx - 1
    dims = power_h1_dims(rmap, point, cutoff=cutoff)
    v = _stable_tail(dims, r)
    if v is None:
        raise UnstableLimit("H^1 power growth not stabilized; raise the cutoff")
    if v % degY:
        raise UnstableLimit("growth coefficient %d not a multiple of deg Y" % v)
    return {"degG": 1 + v // degY, "degY": degY, "h1_dims": dims}


def saturated_fiber_multiplicity(rmap, point=None, cutoff=None, check=True):
    """Multiplicity of the saturated special fiber algebra.

    Hilbert values are dim [(I^n : m^inf)]_{n d}; the multiplicity is
    the stabilized r-th difference.  With check=True the product
    identity against deg(Y) deg(G) is asserted.
    """
    data = _image_data(rmap, point)
    if data["spread"] != data["fring"].nx:
        raise NotGenericallyFinite("saturated fiber multiplicity needs a finite map")
    powers = _map_powers(rmap, point)
    fring = powers.ring
    if cutoff is None:
        cutoff = _default_cutoff(fring) + 2
    d = rmap.form_degree
    r = fring.nx - 1
    vals = [_ideal_strand_dim(powers.saturated(n), (n * d,), fring, powers.generic)
            for n in range(1, cutoff + 1)]
    e = _stable_tail(vals, r)
    if e is None:
        raise UnstableLimit("saturated Hilbert values not stabilized; raise the cutoff")
    if check:
        md = map_degree(rmap, point, cutoff=None)
        if e != md["degY"] * md["degG"]:
            raise AlgebraError(
                "multiplicity identity failed: e=%d, degY=%d, degG=%d"
                % (e, md["degY"], md["degG"]))
    return e


# -- j-multiplicity -----------------------------------------------------------


def j_multiplicity(ring, ideal_gens, point=None, cutoff=None):
    """Normalized growth of the finite-length piece of J^n/J^n+1.

    Works for any homogeneous ideal; vanishes when the analytic spread
    is not maximal, and agrees with the Hilbert-Samuel multiplicity for
    ideals primary to the irrelevant maximal ideal.
    """
    if ring.ny or ring.gdim != 1:
        raise NotStandardGraded("ideal multiplicities live on a singly graded x-block")
    fring, gens, generic = _forms_at(ring, ideal_gens, point)
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0
    return _j_multiplicity(_Powers(fring, gens, generic), cutoff)


def _j_multiplicity(powers, cutoff):
    fring, generic = powers.ring, powers.generic
    if cutoff is None:
        cutoff = _default_cutoff(fring)
    r = fring.nx - 1
    vals = []
    for n in range(1, cutoff + 1):
        jn = powers.power(n)
        jn1 = powers.power(n + 1)
        num = groebner.intersect_ideals(powers.saturated(n + 1), jn, fring)
        one_module, num_vecs = groebner._as_ideal_vectors(num, fring)
        _m, den_vecs = groebner._as_ideal_vectors(jn1, fring)
        pres, _incl = groebner.subquotient_presentation(
            num_vecs, den_vecs, one_module)
        length = groebner.presentation_vecdim(pres, generic=generic)
        if length is None:
            raise AlgebraError("torsion piece of J^n/J^n+1 came out infinite")
        vals.append(length)
    j = _stable_tail(vals, r)
    if j is None:
        raise UnstableLimit("j-multiplicity lengths not stabilized; raise the cutoff")
    return j


def hilbert_samuel_multiplicity(ring, ideal_gens, point=None, cutoff=None):
    """Multiplicity of an ideal primary to the irrelevant maximal ideal,
    from lengths of R/J^n; the classical cross-check for j_multiplicity."""
    if ring.ny or ring.gdim != 1:
        raise NotStandardGraded("ideal multiplicities live on a singly graded x-block")
    fring, gens, generic = _forms_at(ring, ideal_gens, point)
    gens = [g for g in gens if not g.is_zero()]
    if cutoff is None:
        cutoff = _default_cutoff(fring) + 2
    from .modules import Presentation

    vals = []
    for n in range(1, cutoff + 1):
        pres = Presentation.cyclic(fring, _power_products(gens, n, fring))
        length = groebner.presentation_vecdim(pres, generic=generic)
        if length is None:
            raise AlgebraError("the ideal is not primary to the irrelevant ideal")
        vals.append(length)
    e = _stable_tail(vals, fring.nx)
    if e is None:
        raise UnstableLimit("Hilbert-Samuel lengths not stabilized; raise the cutoff")
    return e


# -- the preimage-counting oracle ---------------------------------------------


def preimage_count(rmap, point=None, seed=0, tries=40):
    """Number of source points over a random rational target point.

    Solves g(x) proportional to g(p) by saturating the 2x2 minors by a
    coordinate that is nonzero at the target, which discards the base
    locus.  On a plane source the count is the squarefree degree of the
    principal eliminant, so branch targets are detected and resampled;
    higher sources return the stabilized Hilbert count.
    """
    fring, forms, _generic = _forms_at(rmap.ring, rmap.forms, point)
    if fring.nz:
        raise InvalidFiber("the preimage oracle needs an explicit field fiber")
    forms = list(forms)
    field = fring.field
    rng = random.Random(seed)
    for attempt in range(tries):
        box = 3 + attempt
        coords = [field.coerce(rng.randint(-box, box)) for _ in range(fring.nx)]
        if not any(coords):
            continue
        c = [_eval_at_coords(g, coords, field) for g in forms]
        live = [j for j, v in enumerate(c) if v]
        if not live:
            continue  # the target is undefined there: base locus
        j0 = live[0]
        minors = []
        for i, j in combinations(range(len(forms)), 2):
            m = fring.constant(c[j]) * forms[i] - fring.constant(c[i]) * forms[j]
            if not m.is_zero():
                minors.append(m)
        if not minors:
            raise NotGenericallyFinite("the map is constant: no fiber equations")
        sat = groebner.saturate_ideal(minors, [forms[j0]], ring=fring)
        gb = _ideal_gb_object(sat, fring)
        if groebner.quotient_dimension(gb) != 1:
            continue  # positive dimensional fiber: pick another target
        vals = [groebner.quotient_strand_dim(gb, (n,)) for n in range(fring.nx + 3)]
        while True:
            v = _stable_tail(vals, 0)
            if v is not None:
                break
            if len(vals) > 40:
                v = None
                break
            vals.append(groebner.quotient_strand_dim(gb, (len(vals),)))
        if v is None:
            continue
        if fring.nx == 2:
            if len(sat) != 1:
                continue
            from .loci import squarefree_part

            distinct = fring.degree_of(squarefree_part(sat[0]))[0]
            if distinct != v:
                continue  # branch target: multiplicities present
            return distinct
        return v
    raise InvalidFiber("no usable target point found for the preimage oracle")


def _eval_at_coords(g, coords, field):
    total = field.zero
    ng = g.ring.ngraded
    for e, co in g.terms.items():
        v = co
        for i in range(ng):
            for _ in range(e[i]):
                v = v * coords[i]
        total = total + v
    return total


# -- per-fiber bundles and constancy ------------------------------------------


def fiber_invariants(rmap, point=None, cutoff=None):
    """The full invariant bundle at one fiber, JSON-friendly."""
    out = {
        "fiber": point.describe() if point is not None else {"type": "generic", "prime": []},
        "degY": None,
        "degG": None,
        "e_sat": None,
        "j": None,
        "stable": True,
        "power_table": [],
    }
    finite = generically_finite(rmap, point)
    out["generically_finite"] = finite
    if finite:
        try:
            md = map_degree(rmap, point, cutoff=cutoff)
            out["degY"] = md["degY"]
            out["degG"] = md["degG"]
            out["power_table"] = md["h1_dims"]
            e = saturated_fiber_multiplicity(rmap, point, cutoff=cutoff, check=False)
            out["e_sat"] = e
            if e != md["degY"] * md["degG"]:
                raise AlgebraError(
                    "multiplicity identity failed: e=%d, degY=%d, degG=%d"
                    % (e, md["degY"], md["degG"]))
        except UnstableLimit:
            out["stable"] = False
    try:
        out["j"] = _j_multiplicity(_map_powers(rmap, point), cutoff)
    except UnstableLimit:
        out["stable"] = False
    return out


def map_constancy_report(rmap, seed=0, samples=2, avoid=(), cutoff=None):
    """Invariants across the components of the parameter space.

    Each component gets the bundle at its generic point plus rational
    samples; sampled fibers disagreeing with the generic bundle are the
    empirical jump set.
    """
    ring = rmap.ring
    keys = ("degY", "degG", "e_sat", "j")
    if ring.nz == 0:
        bundle = fiber_invariants(rmap, None, cutoff=cutoff)
        return {
            "components": {"(field base)": {
                "generic": bundle, "samples": [], "samples_match": True}},
            "locally_constant": True,
            "globally_constant": True,
        }
    rng = random.Random(seed)
    comps = ring.minimal_primes()
    if not comps:
        comps = ((),)
    report = {}
    signatures = []
    locally = True
    for prime in comps:
        key = "(" + ", ".join(str(q) for q in prime) + ")" if prime else "(0)"
        gpoint = FiberPoint.generic(ring, list(prime)) if prime else None
        if not generically_finite(rmap, gpoint):
            raise NotGenericallyFinite("the map is not finite at the generic point of %s" % key)
        bundle = fiber_invariants(rmap, gpoint, cutoff=cutoff)
        rows = []
        ok = True
        for _ in range(samples):
            try:
                pt = sample_rational_point(ring, rng, avoid=list(avoid), on=list(prime))
            except InvalidFiber:
                break
            try:
                b2 = fiber_invariants(rmap, pt, cutoff=cutoff)
            except InvalidFiber:
                continue  # all forms died at the point: record nothing
            match = all(b2[k] == bundle[k] for k in keys)
            ok = ok and match
            rows.append({"point": pt.describe(),
                         "values": {k: b2[k] for k in keys},
                         "match": match})
        locally = locally and ok
        report[key] = {"generic": bundle, "samples": rows, "samples_match": ok}
        signatures.append(tuple(bundle[k] for k in keys))
    return {
        "components": report,
        "locally_constant": locally,
        "globally_constant": len(set(signatures)) <= 1,
    }
