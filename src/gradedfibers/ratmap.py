"""Rational maps between projective spaces over a parameter base.

A map is a tuple of forms of one common degree in the standard graded
x-block.  Per fiber we compute the image ideal by elimination, read the
analytic spread and the image degree off the Hilbert series of the
special fiber ring, which makes both exact, extract the map degree from
the growth of the first local cohomology of powers, and cross all of it
against the saturated fiber multiplicity and the j-multiplicity.  The
limits over powers become finite differences with an explicit stability
rule: the last two difference values must agree, otherwise
UnstableLimit asks for a larger cutoff instead of extrapolating
silently.

The powers I^k of the forms' ideal are built once per fiber on the
ladder of specialize.PowersBundle, of which _Powers is the rank-one case
(F = R): each from the products of the reduced basis of the power below
with that of I, and each keeps one reduced basis that the H^1 strands,
the saturation and the j lengths all read.  Every saturation (I^k)^sat
is the unit ideal, with no basis computed, when the generic leads of
I's basis show I primary to m over the generic fiber, whose counts are
the only ones read; otherwise it is saturated once per power, from
that power's basis.  The j lengths are alternating sums of Hilbert
numerators, which take one basis of an ideal sum per power, or none
when the saturation is the unit ideal.  The image ideal keeps its
basis the same way (Presentation.gb).  The identity e_sat = degY degG
is asserted in one place, saturated_fiber_multiplicity.
"""

from __future__ import annotations

import random
from itertools import combinations

from .errors import (AlgebraError, BaseNotDomain, InvalidFiber, MultiplicityMismatch,
                     NotGenericallyFinite, NotHomogeneous, NotStandardGraded,
                     UnstableLimit)
from . import groebner
from .modules import Presentation
from .rings import squarefree_part, transfer
from .specialize import PowersBundle, ideal_embedding, point_key


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


def _stable_tail(values, order):
    """Order-th finite difference once its last two values agree, else None."""
    seq = list(values)
    for _ in range(order):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    if len(seq) >= 2 and seq[-1] == seq[-2]:
        return seq[-1]
    return None


def _forms_at(ring, forms, point):
    """(fiber ring, evaluated forms) for a fiber choice.

    point=None over a parameter base means the generic point of the
    whole base, which must then be a domain.  Counts over a fiber ring
    with parameters read the generic fiber of its base.
    """
    forms = [ring.poly(g) for g in forms]
    if point is None:
        if ring.nz and not ring.base_is_domain:
            raise BaseNotDomain("pick a component for the generic fiber")
        return ring, forms
    fring = point.fiber_ring(ring)
    if not point.is_rational and not fring.base_is_domain:
        raise BaseNotDomain("generic points need a prime relation ideal")
    return fring, [point.evaluate(g) for g in forms]


# -- the special fiber ring --------------------------------------------------


def _fresh_names(stem, count, taken):
    out = []
    i = 0
    while len(out) < count:
        cand = "%s%d" % (stem, i)
        if cand not in taken:
            out.append(cand)
        i += 1
    return out


def _image_data(rmap, point):
    key = point_key(point)
    if key in rmap._cache:
        return rmap._cache[key]
    fring, forms = _forms_at(rmap.ring, rmap.forms, point)
    if all(g.is_zero() for g in forms):
        raise InvalidFiber("every form vanishes at this fiber")
    d = rmap.form_degree
    m = len(forms)
    ynames = _fresh_names("y", m, set(fring.names))
    big = fring.with_graded(list(fring.xnames) + ynames, [1] * fring.nx + [d] * m)
    rel = [big.var(yn) - transfer(g, big) for yn, g in zip(ynames, forms)]
    elim = groebner.eliminate_ideal(rel, list(fring.xnames), ring=big)
    tring = fring.with_graded(ynames, [1] * m)
    gens = [transfer(g, tring) for g in elim]
    gb = Presentation.cyclic(tring, gens).gb()
    spread = groebner.quotient_dimension(gb)
    data = {
        "fring": fring,
        "tring": tring,
        "gens": gens,
        "gb": gb,
        "spread": spread,
    }
    rmap._cache[key] = data
    return data


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
    return groebner.quotient_degree(data["gb"])


# -- powers and their first local cohomology ---------------------------------


class _Powers(PowersBundle):
    """The powers I^k of one homogeneous ideal over one fiber ring, and
    their saturations (I^k)^sat = I^k : m^inf.

    The powers are the rank-one case of PowersBundle: F = R, embedded by
    the row of I's generators, read at the generic point of the fiber
    ring, so basis(k) is the reduced basis of I^k, built from the
    products of the bases of I^(k-1) and I.  The H^1 strands, the j
    lengths and the saturation all read it.  When the generic leads of
    I's basis (groebner._generic_leads, parameter parts dropped) hold a
    pure power of every x-variable (the lead test of Bayer's early exit
    in groebner.saturate_ideal), a power of m lies in I over the generic
    fiber, and since I^k has the radical of I, every (I^k)^sat is the
    unit ideal there: one basis {1} serves them all, with no Buchberger
    run.  Otherwise saturate_ideal starts from the power's reduced basis,
    once per power.
    """

    __slots__ = ("_saturated",)

    def __init__(self, ring, gens):
        super().__init__(ring, ideal_embedding(ring, gens))
        self._saturated = {}

    def primary(self):
        """True when the generic leads of I's basis show I primary to m
        over the generic fiber, the only fiber whose counts are read."""
        leads = groebner._generic_leads(self.basis(1).leads(), self.ring)
        return groebner._pure_x_powers([e for _c, e in leads], self.ring.nx)

    def saturated(self, k):
        """The reduced basis of (I^k)^sat, computed at most once; when I
        is primary one basis of the unit ideal, keyed 0, serves every k."""
        key = 0 if self.primary() else k
        if key not in self._saturated:
            if key:
                xgens = [self.ring.var(n) for n in self.ring.xnames]
                sat = groebner.saturate_ideal(groebner.ideal_basis_polys(self.basis(k)),
                                              xgens, ring=self.ring)
            else:
                sat = [self.ring.one()]
            self._saturated[key] = groebner.reduced_ideal_basis(sat, self.ring)
        return self._saturated[key]


def _map_powers(rmap, point):
    """The powers of the ideal of the map's forms at a fiber, kept in the
    map's cache so every invariant of that fiber shares them."""
    key = ("powers", point_key(point))
    if key not in rmap._cache:
        fring, forms = _forms_at(rmap.ring, rmap.forms, point)
        if all(g.is_zero() for g in forms):
            raise InvalidFiber("every form vanishes at this fiber")
        rmap._cache[key] = _Powers(fring, forms)
    return rmap._cache[key]


def power_h1_dims(rmap, point=None, cutoff=None):
    """dim [H^1_m(I^k)]_{k d} for k = 1..cutoff at the fiber.

    Since the ambient polynomial ring has depth at least two, this is
    the dimension of [(I^k : m^inf) / I^k] in degree k d.
    """
    powers = _map_powers(rmap, point)
    fring = powers.ring
    if cutoff is None:
        cutoff = _default_cutoff(fring)
    d = rmap.form_degree
    out = []
    for k in range(1, cutoff + 1):
        deg = (k * d,)
        out.append(groebner.submodule_strand_dim(powers.saturated(k), deg)
                   - groebner.submodule_strand_dim(powers.basis(k), deg))
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


def saturated_fiber_multiplicity(rmap, point=None, cutoff=None):
    """Multiplicity of the saturated special fiber algebra.

    Hilbert values are dim [(I^n : m^inf)]_{n d}; the multiplicity is
    the stabilized r-th difference.  The identity e_sat = deg(Y) deg(G)
    is asserted against map_degree at the same cutoff, which reads the
    same saturated powers and their bases from the map's cache.
    """
    data = _image_data(rmap, point)
    if data["spread"] != data["fring"].nx:
        raise NotGenericallyFinite("saturated fiber multiplicity needs a finite map")
    powers = _map_powers(rmap, point)
    fring = powers.ring
    sat_cutoff = _default_cutoff(fring) + 2 if cutoff is None else cutoff
    d = rmap.form_degree
    r = fring.nx - 1
    vals = [groebner.submodule_strand_dim(powers.saturated(n), (n * d,))
            for n in range(1, sat_cutoff + 1)]
    e = _stable_tail(vals, r)
    if e is None:
        raise UnstableLimit("saturated Hilbert values not stabilized; raise the cutoff")
    md = map_degree(rmap, point, cutoff=cutoff)
    if e != md["degY"] * md["degG"]:
        raise MultiplicityMismatch(
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
    fring, gens = _forms_at(ring, ideal_gens, point)
    if all(g.is_zero() for g in gens):
        return 0
    return _j_multiplicity(_Powers(fring, gens), cutoff)


def _j_multiplicity(powers, cutoff):
    fring = powers.ring
    if cutoff is None:
        cutoff = _default_cutoff(fring)
    j = _stable_tail(_j_lengths(powers, cutoff), fring.nx - 1)
    if j is None:
        raise UnstableLimit("j-multiplicity lengths not stabilized; raise the cutoff")
    return j


def _j_lengths(powers, cutoff):
    """Lengths of ((I^(n+1))^sat meet I^n) / I^(n+1) for n = 1..cutoff.

    With S the saturation, A = I^n and B = I^(n+1), the Hilbert series
    of the meet is HS(S) + HS(A) - HS(S + A), so in quotient numerators
    the length is N(R/B) + N(R/(S + A)) - N(R/S) - N(R/A) read at t = 1.
    That takes one basis of the sum S + A, and none when S is the unit
    ideal over the generic fiber, where both R/S and R/(S + A) vanish.
    """
    fring = powers.ring
    out = []
    for n in range(1, cutoff + 1):
        below = powers.basis(n)
        sat = powers.saturated(n + 1)
        signed = [(powers.basis(n + 1), 1), (below, -1)]
        if sat.hilbert_numerator():
            total = Presentation.cyclic(fring, groebner.ideal_basis_polys(sat)
                                        + groebner.ideal_basis_polys(below)).gb()
            signed += [(total, 1), (sat, -1)]
        num = {}
        for gb, sign in signed:
            for d, v in gb.hilbert_numerator().items():
                num[d] = num.get(d, 0) + sign * v
        length = groebner.series_length(fring, num)
        if length is None:
            raise AlgebraError("torsion piece of J^n/J^n+1 came out infinite")
        out.append(length)
    return out


def hilbert_samuel_multiplicity(ring, ideal_gens, point=None, cutoff=None):
    """Multiplicity of an ideal primary to the irrelevant maximal ideal,
    from lengths of R/J^n; the classical cross-check for j_multiplicity."""
    if ring.ny or ring.gdim != 1:
        raise NotStandardGraded("ideal multiplicities live on a singly graded x-block")
    fring, gens = _forms_at(ring, ideal_gens, point)
    if cutoff is None:
        cutoff = _default_cutoff(fring) + 2
    powers = _Powers(fring, gens)
    vals = []
    for n in range(1, cutoff + 1):
        length = groebner.series_length(fring, powers.basis(n).hilbert_numerator())
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
    higher sources return the degree of the fiber, read off its Hilbert
    series.
    """
    fring, forms = _forms_at(rmap.ring, rmap.forms, point)
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
        gb = Presentation.cyclic(fring, sat).gb()
        if groebner.quotient_dimension(gb) != 1:
            continue  # positive dimensional fiber: pick another target
        v = groebner.quotient_degree(gb)
        if fring.nx == 2:
            if len(sat) != 1:
                continue
            distinct = fring.degree_of(squarefree_part(sat[0]))[0]
            if distinct != v:
                continue  # branch target: multiplicities present
            return distinct
        return v
    raise InvalidFiber("no usable target point found for the preimage oracle")


def _eval_at_coords(g, coords, field):
    """Value of a form of a field-coefficient ring at the point whose
    graded coordinates are coords."""
    total = field.zero
    for e, co in g.terms.items():
        for x, a in zip(coords, e):
            co = co * x ** a
        total = total + co
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
        out["degY"] = image_degree(rmap, point)  # exact: no power limit is read
        try:
            md = map_degree(rmap, point, cutoff=cutoff)
            out["degG"] = md["degG"]
            out["power_table"] = md["h1_dims"]
            out["e_sat"] = saturated_fiber_multiplicity(rmap, point, cutoff=cutoff)
        except UnstableLimit:
            out["stable"] = False
    powers = _map_powers(rmap, point)
    try:
        out["j"] = _j_multiplicity(powers, cutoff)
    except UnstableLimit:
        out["stable"] = False
    if out["j"] is not None:
        _check_primary_j(out["j"], powers, rmap.form_degree)
    return out


def _check_primary_j(j, powers, d):
    """Assert j = d^r, r the number of x-variables, when the generic
    leads of the forms' reduced basis show their ideal primary to m
    (_Powers.primary).

    r general combinations of the forms then generate a reduction of the
    ideal, a complete intersection of degree d^r, so the j-multiplicity,
    here the Hilbert-Samuel multiplicity, is d^r.  The lead test is
    saturate_ideal's early exit.
    """
    nx = powers.ring.nx
    if powers.primary() and j != d ** nx:
        raise MultiplicityMismatch("multiplicity identity failed: j=%d, d^r=%d"
                                   % (j, d ** nx))
