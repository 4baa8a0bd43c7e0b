"""Rational map invariants: image degree, map degree, multiplicities."""

import json
import random

import pytest

from gradedfibers.errors import (AlgebraError, NotGenericallyFinite,
                                 NotHomogeneous, NotStandardGraded, UnstableLimit)
from gradedfibers.modules import FreeModule, Presentation
from gradedfibers.rings import PrimeField, make_ring
from gradedfibers import cli, groebner, ratmap, script, specialize
from gradedfibers.specialize import FiberPoint
from test_groebner import ref_degree


R = make_ring(["x", "y"], [1, 1])
Rt = make_ring(["x", "y"], [1, 1], params=["t"])


def test_validation():
    with pytest.raises(AlgebraError):
        ratmap.RationalMap(R, ["x^2", "y"])  # mixed degrees
    with pytest.raises(NotHomogeneous):
        ratmap.RationalMap(R, ["x^2 + y", "y^2"])
    with pytest.raises(AlgebraError):
        ratmap.RationalMap(R, ["1", "2"])  # constants carry no map
    with pytest.raises(AlgebraError):
        ratmap.RationalMap(make_ring(["x"], [1]), ["x"])
    B = make_ring(["u"], [(1, 0)], yvars=["x"], ydegrees=[(0, 1)])
    with pytest.raises(NotStandardGraded):
        ratmap.RationalMap(B, ["u"])


def test_veronese_of_the_line():
    rm = ratmap.RationalMap(R, ["x^2", "x*y", "y^2"])
    img = ratmap.image_ideal(rm)
    assert [str(g) for g in img] == ["y1^2 - y0*y2"]
    assert ratmap.generically_finite(rm)
    assert ratmap.image_degree(rm) == 2
    md = ratmap.map_degree(rm)
    assert md["degG"] == 1
    # I^k is saturated in degree 2k, so the H^1 strand sequence vanishes
    assert set(md["h1_dims"]) == {0}
    assert ratmap.saturated_fiber_multiplicity(rm) == 2
    assert ratmap.preimage_count(rm) == 1


def test_coordinate_squares():
    rm = ratmap.RationalMap(R, ["x^2", "y^2"])
    assert ratmap.image_ideal(rm) == []
    assert ratmap.image_degree(rm) == 1
    md = ratmap.map_degree(rm)
    assert md["degG"] == 2
    assert md["h1_dims"] == [1, 2, 3, 4, 5, 6]
    assert ratmap.saturated_fiber_multiplicity(rm) == 2
    assert ratmap.preimage_count(rm) == 2


def test_twisted_cubic():
    rm = ratmap.RationalMap(R, ["x^3", "x^2*y", "x*y^2", "y^3"])
    img = sorted(str(g) for g in ratmap.image_ideal(rm))
    assert img == ["y1*y2 - y0*y3", "y1^2 - y0*y2", "y2^2 - y1*y3"]
    assert ratmap.image_degree(rm) == 3
    assert ratmap.map_degree(rm)["degG"] == 1
    assert ratmap.saturated_fiber_multiplicity(rm) == 3
    assert ratmap.preimage_count(rm) == 1


def test_identity_map():
    rm = ratmap.RationalMap(R, ["x", "y"])
    inv = ratmap.fiber_invariants(rm)
    assert (inv["degY"], inv["degG"], inv["e_sat"]) == (1, 1, 1)
    assert inv["j"] == 1
    assert inv["stable"] is True


def test_multiplicity_identity_on_desk_examples():
    for forms in (["x^2", "x*y", "y^2"], ["x^2", "y^2"],
                  ["x^3", "x^2*y", "x*y^2", "y^3"]):
        inv = ratmap.fiber_invariants(ratmap.RationalMap(R, forms))
        assert inv["e_sat"] == inv["degY"] * inv["degG"]
        assert inv["degG"] == ratmap.preimage_count(ratmap.RationalMap(R, forms))


MAPS = {
    "rees_qq veronese": (R, ["x^2", "x*y", "y^2"], None),
    "rees_qq double cover": (R, ["x^2", "y^2"], None),
    "ratmap_p2 squares": (make_ring(["x", "y", "z"], [1, 1, 1]), ["x^2", "y^2", "z^2"], None),
    "ratmap_p2 cremona": (make_ring(["x", "y", "z"], [1, 1, 1]), ["y*z", "x*z", "x*y"], None),
    "ratmap_cusp": (make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"]),
                    ["x^2", "s*x*y", "t*y^2"], {"s": 1, "t": 1}),
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_degrees_match_the_finite_differences(name, monkeypatch):
    # image_degree and preimage_count read a degree off the Hilbert series;
    # each degree read equals the stabilized finite difference of the
    # Hilbert function, counted by standard monomials
    ring, forms, values = MAPS[name]
    read = []
    real = groebner.quotient_degree
    monkeypatch.setattr(groebner, "quotient_degree",
                        lambda gb: read.append((gb, real(gb))) or read[-1][1])
    rm = ratmap.RationalMap(ring, forms)
    degY = ratmap.image_degree(rm)
    point = FiberPoint.rational(ring, values) if values else None
    degG = ratmap.preimage_count(rm, point)
    assert (degY, degG) == (ratmap.image_degree(rm, point), ratmap.map_degree(rm)["degG"])
    assert len(read) >= 3
    for gb, degree in read:
        assert degree == ref_degree(gb, groebner.quotient_dimension(gb) - 1)


def test_degenerate_map_not_finite():
    rm = ratmap.RationalMap(R, ["x^2", "x^2"])
    assert not ratmap.generically_finite(rm)
    with pytest.raises(NotGenericallyFinite):
        ratmap.image_degree(rm)


def test_unstable_cutoff_is_reported():
    rm = ratmap.RationalMap(R, ["x^2", "y^2"])
    with pytest.raises(UnstableLimit):
        ratmap.map_degree(rm, cutoff=2)


def test_j_multiplicity_values():
    assert ratmap.j_multiplicity(R, ["x^2", "x*y", "y^2"]) == 4
    assert ratmap.j_multiplicity(R, ["x", "y"]) == 1
    # analytic spread of a principal ideal is 1 < 2: no contribution
    assert ratmap.j_multiplicity(R, ["x"]) == 0
    assert ratmap.hilbert_samuel_multiplicity(R, ["x^2", "x*y", "y^2"]) == 4


def test_parameterized_conic_jumps_at_origin():
    rm = ratmap.RationalMap(Rt, ["x^2", "x*y", "t*y^2"])
    generic = ratmap.fiber_invariants(rm)
    assert (generic["degY"], generic["degG"], generic["e_sat"], generic["j"]) \
        == (2, 1, 2, 4)
    pt0 = FiberPoint.rational(Rt, {"t": 0})
    special = ratmap.fiber_invariants(rm, pt0)
    assert (special["degY"], special["j"]) == (1, 2)
    assert [str(g) for g in ratmap.image_ideal(rm, pt0)] == ["y2"]


def test_map_constancy_report_off_the_jump():
    # off the jump at t = 0 every fiber reads the generic bundle (every key
    # but the fiber itself)
    rm = ratmap.RationalMap(Rt, ["x^2", "x*y", "t*y^2"])
    generic = ratmap.fiber_invariants(rm)
    assert generic["degY"] == 2
    del generic["fiber"]
    for t in (2, -1):
        at = ratmap.fiber_invariants(rm, FiberPoint.rational(Rt, {"t": t}))
        del at["fiber"]
        assert at == generic


def _spy(monkeypatch, module, name, calls):
    real = getattr(module, name)

    def spied(*args, **kwargs):
        calls.append((name, args))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)


def _spy_power_builds(monkeypatch, built):
    """Record the power k of each basis the power ladder builds:
    power_vectors runs once per basis, when the basis is built."""
    real = specialize.PowersBundle.power_vectors

    def power_vectors(self, k, point=None):
        built.append(k)
        return real(self, k, point)

    monkeypatch.setattr(specialize.PowersBundle, "power_vectors", power_vectors)


def test_fiber_invariants_saturate_each_power_once(monkeypatch):
    # degG reads k = 1..6, e_sat n = 1..8 and j the powers 1..7.  Both
    # ideals are m-primary, so every saturation is the unit ideal with no
    # basis computed: no saturation, graph kernel or intersection runs,
    # and the Buchberger runs are the image's two (the elimination and
    # its special fiber basis) and one per power I^1..I^7.
    calls = []
    for name in ("saturate_ideal", "_graph_kernel", "intersect_ideals", "_buchberger"):
        _spy(monkeypatch, groebner, name, calls)
    built = []
    _spy_power_builds(monkeypatch, built)
    for forms in (["x^2", "x*y", "y^2"], ["x^2", "y^2"]):
        calls.clear()
        built.clear()
        inv = ratmap.fiber_invariants(ratmap.RationalMap(R, forms))
        assert (inv["e_sat"], inv["j"]) == (2, 4)
        assert [name for name, _args in calls] == ["_buchberger"] * 9
        assert built == [1, 2, 3, 4, 5, 6, 7]
    # the Cremona map has base points: one saturation per power
    # I^1..I^6, each from that power's reduced basis
    calls.clear()
    Q = make_ring(["x", "y", "z"], [1, 1, 1])
    powers = ratmap._Powers(Q, [Q.poly(g) for g in ("y*z", "x*z", "x*y")])
    monkeypatch.setattr(ratmap, "_map_powers", lambda rmap, point: powers)
    inv = ratmap.fiber_invariants(ratmap.RationalMap(Q, ["y*z", "x*z", "x*y"]))
    assert (inv["degY"], inv["degG"], inv["e_sat"], inv["j"]) == (1, 1, 1, 2)
    saturated = [args[0] for name, args in calls if name == "saturate_ideal"]
    assert [[g.terms for g in gens] for gens in saturated] \
        == [[g.terms for g in groebner.ideal_basis_polys(powers.basis(k))]
            for k in range(1, 7)]


def test_j_reads_the_power_basis_where_the_saturation_is_the_unit_ideal(monkeypatch):
    # every saturation of the Veronese ideal is the unit ideal, so the j
    # lengths are read off the power bases alone: no basis of an ideal
    # sum is built, and nothing is intersected
    sums, built = [], []
    real = ratmap.Presentation.cyclic

    def cyclic(ring, gens):
        sums.append(gens)
        return real(ring, gens)

    monkeypatch.setattr(ratmap.Presentation, "cyclic", cyclic)
    _spy_power_builds(monkeypatch, built)
    powers = ratmap._Powers(R, [R.poly(g) for g in ("x^2", "x*y", "y^2")])
    assert ratmap._j_lengths(powers, 3) == [7, 11, 15]  # first differences 4 = j
    assert (built, sums) == ([1, 2, 3, 4], [])  # the bases of I^1..I^4
    # the Cremona map keeps its saturations proper: with them and the
    # power bases in hand, each length takes one basis of the sum
    # (I^(n+1))^sat + I^n, and no intersection
    Q = make_ring(["x", "y", "z"], [1, 1, 1])
    cremona = [Q.poly(g) for g in ("y*z", "x*z", "x*y")]
    powers = ratmap._Powers(Q, cremona)
    for n in (1, 2, 3, 4):
        powers.saturated(n)
    meets = []
    _spy(monkeypatch, groebner, "intersect_ideals", meets)
    sums.clear()
    built.clear()
    lengths = ratmap._j_lengths(powers, 3)
    assert (len(sums), built, meets) == (3, [], [])
    assert lengths == [_reference_j_length(Q, cremona, n) for n in (1, 2, 3)]


def _distinct(polys):
    """The distinct nonzero polys, in order of first appearance."""
    out = []
    seen = set()
    for p in polys:
        key = tuple(sorted(p.terms.items()))
        if p.terms and key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _products(gens, k, ring):
    """The generators of I^k as every power used to be built: each product
    of k generators, repetition allowed, rebuilt from the generators."""
    level = {(): ring.one()}
    for _ in range(k):
        level = {combo + (j,): p * gens[j] for combo, p in level.items()
                 for j in range(combo[-1] if combo else 0, len(gens))}
    return _distinct(level.values())


def _ladder(gens, k, ring):
    """The generators of I^k as the power ladder builds them, with both
    factor lists rebuilt from scratch: the products of the reduced basis
    of I^(k-1), taken from the raw products, and I's reduced basis."""
    if k == 1:
        return _products(gens, 1, ring)
    below = groebner.ideal_gb(_products(gens, k - 1, ring), ring=ring)
    return _distinct([g * h for g in below for h in groebner.ideal_gb(gens, ring=ring)])


POWER_BASES = {
    "QQ": ({}, ()),
    "GF(32003)": ({"field": PrimeField(32003)}, ()),
    "QQ[t]": ({"params": ["t"]}, ("t",)),
    "QQ[s,t]": ({"params": ["s", "t"]}, ("s", "t")),
    "cusp": ({"params": ["s", "t"], "relations": ["s^2 - t^3"]}, ("s", "t")),
}


def _seeded_quadrics(name, seed):
    """A plane ring over the named base and three seeded quadrics of two
    or three terms, whose coefficients are small constants and the
    parameters."""
    kwargs, params = POWER_BASES[name]
    ring = make_ring(["x", "y"], [1, 1], **kwargs)
    rng = random.Random(seed)
    coeffs = [ring.constant(c) for c in (-2, -1, 1, 2)] + [ring.var(z) for z in params]
    forms = []
    while len(forms) < 3:
        f = sum((rng.choice(coeffs) * ring.monomial(m)
                 for m in ring.monomials_of_degree((2,)) if rng.random() < 0.6), ring.zero())
        if len(f.terms) >= 2:
            forms.append(f)
    return ring, forms


@pytest.mark.parametrize("ring, gens", [
    (R, ["x^2", "x*y", "y^2"]),
    (make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"]),
     ["x^2", "s*x*y", "t*y^2"]),
] + [pytest.param(*_seeded_quadrics(name, 30 + i), id=name)
     for i, name in enumerate(POWER_BASES)])
def test_power_basis_polys_are_the_ideal_basis(ring, gens):
    # each power above the first is built from the reduced bases of the
    # power below and of I, and its reduced basis is the one the raw
    # products of k generators give, term for term
    gens = [ring.poly(g) for g in gens]
    powers = ratmap._Powers(ring, gens)
    for n in (1, 2, 3, 4):
        _module, vectors = powers.power_vectors(n)
        assert [v.component(0).terms for v in vectors] \
            == [g.terms for g in _ladder(gens, n, ring)]
        got = groebner.ideal_basis_polys(powers.basis(n))
        want = groebner.ideal_gb(_products(gens, n, ring), ring=ring)
        assert [g.terms for g in got] == [g.terms for g in want]


def _xs(ring):
    return [ring.var(n) for n in ring.xnames]


def _reference_j_length(ring, gens, n):
    """Length of ((I^(n+1))^sat meet I^n) / I^(n+1) through an
    intersection and a subquotient presentation, from the raw products."""
    sat = groebner.saturate_ideal(_products(gens, n + 1, ring), _xs(ring), ring=ring)
    meet = groebner.intersect_ideals(sat, _products(gens, n, ring), ring)
    module = FreeModule(ring, [ring.zero_degree()])
    vecs = [module.element([p]) for p in meet]
    rels = [module.element([p]) for p in _products(gens, n + 1, ring)]
    pres, _incl = groebner.subquotient_presentation(vecs, rels, module)
    return groebner.presentation_vecdim(pres)


def _reference_h1_dim(ring, gens, k, d):
    """dim [(I^k)^sat / I^k]_(k d), saturating the raw products."""
    power = _products(gens, k, ring)
    sat = groebner.saturate_ideal(power, _xs(ring), ring=ring)
    return (groebner.submodule_strand_dim(Presentation.cyclic(ring, sat).gb(), (k * d,))
            - groebner.submodule_strand_dim(Presentation.cyclic(ring, power).gb(), (k * d,)))


RANDOM_BASES = {
    "QQ": ({}, ()),
    "GF(32003)": ({"field": PrimeField(32003)}, ()),
    "cusp": ({"params": ["s", "t"], "relations": ["s^2 - t^3"]}, ("s", "t")),
}


def _random_ideal(ring, rng, coeffs, shared, deg):
    """nx linearly independent random forms of degree deg, m-primary for
    most draws, or two to nx independent linear forms times one common
    linear form, never m-primary."""
    count = rng.randint(2, ring.nx) if shared else ring.nx
    if shared:
        deg = 1
    while True:
        forms = []
        for _ in range(count):
            f = ring.zero()
            for m in ring.monomials_of_degree((deg,)):
                if rng.random() < 0.7:
                    f = f + rng.choice(coeffs) * ring.monomial(m)
            forms.append(f)
        basis = Presentation.cyclic(ring, forms).gb()
        if groebner.submodule_strand_dim(basis, (deg,)) == count:
            break
    if shared:
        line = ring.zero()
        while line.is_zero():
            line = sum((rng.choice(coeffs) * x for x in _xs(ring) if rng.random() < 0.7),
                       ring.zero())
        forms = [line * f for f in forms]
    return forms


@pytest.mark.parametrize("base", sorted(RANDOM_BASES))
@pytest.mark.parametrize("nx", [2, 3])
def test_j_lengths_and_h1_dims_match_the_reference_routes(base, nx):
    # seeded equigenerated ideals, m-primary or not: the j lengths read off
    # Hilbert numerators equal the meet and subquotient of the raw
    # products, and the H^1 strands off the shared power bases equal the
    # saturations of the raw products
    kwargs, params = RANDOM_BASES[base]
    ring = make_ring(["x", "y", "z"][:nx], [1] * nx, **kwargs)
    constants = [ring.constant(c) for c in (-2, -1, 1, 2)]
    rng = random.Random(20 + nx)
    kinds = set()
    for trial in range(4):
        # over the cusp the last two plane draws take s and t as
        # coefficients.  Bayer's intersections take seconds on larger
        # draws: quadrics with a point for base locus in three variables,
        # and in three variables or in degree 2 with s and t coefficients.
        coeffs = constants + [ring.var(z) for z in params if trial >= 2 and nx == 2]
        deg = 1 if params or nx == 3 else rng.randint(1, 2)
        gens = _random_ideal(ring, rng, coeffs, trial % 2 == 1, deg)
        powers = ratmap._Powers(ring, gens)
        kinds.add(powers.primary())
        assert ratmap._j_lengths(powers, 3) \
            == [_reference_j_length(ring, gens, n) for n in (1, 2, 3)]
        d = ring.degree_of(gens[0])[0]
        rmap = ratmap.RationalMap(ring, gens)
        assert ratmap.power_h1_dims(rmap, cutoff=3) \
            == [_reference_h1_dim(ring, gens, k, d) for k in (1, 2, 3)]
    assert kinds == {True, False}


def test_primary_j_identity_is_asserted(monkeypatch):
    # the forms' leads x^2 and y^2 show the Veronese ideal m-primary, so
    # its j-multiplicity must be 2^2; a j of 3 is caught
    monkeypatch.setattr(ratmap, "_j_multiplicity", lambda powers, cutoff: 3)
    with pytest.raises(AlgebraError, match=r"multiplicity identity failed: j=3, d\^r=4"):
        ratmap.fiber_invariants(ratmap.RationalMap(R, ["x^2", "x*y", "y^2"]))
    # the Cremona map has base points, so its ideal is not m-primary
    # and the same patched j goes through unasserted
    Q = make_ring(["x", "y", "z"], [1, 1, 1])
    inv = ratmap.fiber_invariants(ratmap.RationalMap(Q, ["y*z", "x*z", "x*y"]))
    assert inv["j"] == 3


def test_failed_multiplicity_identity_is_an_engine_bug(monkeypatch, tmp_path):
    # a broken identity means the engine is wrong, not the input, so its
    # payload is filed internal
    monkeypatch.setattr(ratmap, "_j_multiplicity", lambda powers, cutoff: 3)
    text = "ring R base QQ vars x:1 y:1;\ncmd ratmap (x^2, x*y, y^2);\n"
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 1
    error = json.loads((tmp_path / "01_ratmap.json").read_text())["error"]
    assert (error["type"], error["kind"]) == ("MultiplicityMismatch", "internal")
    assert error["message"] == "multiplicity identity failed: j=3, d^r=4"


def test_multiplicity_identity_is_still_asserted(monkeypatch):
    # saturated_fiber_multiplicity is the one place e_sat = degY*degG is
    # asserted, and fiber_invariants goes through it.  Ideal strands that
    # count one more per degree leave the H^1 differences behind degG
    # alone and shift e_sat.
    real = groebner.submodule_strand_dim
    monkeypatch.setattr(groebner, "submodule_strand_dim",
                        lambda gb, deg: real(gb, deg) + deg[0])
    with pytest.raises(AlgebraError, match="multiplicity identity failed"):
        ratmap.fiber_invariants(ratmap.RationalMap(R, ["x^2", "y^2"]))
    monkeypatch.undo()
    monkeypatch.setattr(ratmap, "map_degree",
                        lambda *a, **k: {"degG": 3, "degY": 1, "h1_dims": []})
    with pytest.raises(AlgebraError, match="multiplicity identity failed"):
        ratmap.fiber_invariants(ratmap.RationalMap(R, ["x^2", "y^2"]))


def _invariant_tuple(inv):
    return (inv["generically_finite"], inv["degY"], inv["degG"], inv["e_sat"], inv["j"])


def test_generic_fiber_on_a_base_with_relations_matches_a_point():
    # module_gb adds multiples of the base relations, whose leads are pure
    # parameter terms; over the generic fiber they must not count as units
    G = FiberPoint.generic(Rt, ["t - 1"])
    at_one = FiberPoint.rational(Rt, {"t": 1})
    rm = ratmap.RationalMap(Rt, ["x^2", "t*x*y", "y^2"])
    assert _invariant_tuple(ratmap.fiber_invariants(rm, G)) \
        == _invariant_tuple(ratmap.fiber_invariants(rm, at_one)) == (True, 2, 1, 2, 4)
    Q = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"])
    rq = ratmap.RationalMap(Q, ["x^2", "x*y", "y^2"])
    assert _invariant_tuple(ratmap.fiber_invariants(rq)) == (True, 2, 1, 2, 4)


def test_generic_j_over_a_two_relation_base_matches_a_point():
    # the base is QQ[a] presented as the twisted cubic in a, b, c; the
    # generic `ratmap (x^2, a*x*y, y^2)` read j = 2 there while module
    # terms were keyed by the whole ring order before the component.
    # Powers up to the third show it at a tenth of the default cutoff's
    # cost.
    A = make_ring(["x", "y"], [1, 1], params=["a", "b", "c"],
                  relations=["b - a^2", "c - a^3"],
                  minimal_primes=[["b - a^2", "c - a^3"]])
    gens = ["x^2", "a*x*y", "y^2"]
    at_one = FiberPoint.rational(A, {"a": 1, "b": 1, "c": 1})
    assert ratmap.j_multiplicity(A, gens, at_one, cutoff=3) == 4
    assert ratmap.j_multiplicity(A, gens, cutoff=3) == 4


def test_capacity_cusp_linear_map():
    # three linear forms over the cusp s^2 = t^3 with parameters in their
    # leads.  With each power built from products of the raw forms, and
    # every saturation run by Bayer's stages over the base, the generic
    # map ran past 120 s; its generic leads show the forms m-primary, so
    # no saturation runs now.  Its invariants are those of the rational
    # points (1, 1) and (8, 4) of the cusp, where det = 4 - s is nonzero.
    Q = make_ring(["x", "y", "z"], [1, 1, 1], params=["s", "t"], relations=["s^2 - t^3"])
    rm = ratmap.RationalMap(Q, ["s*x + t*y + 2*z", "-2*x + 2*y - z", "-y"])
    generic = ratmap.fiber_invariants(rm)
    assert generic["stable"]
    assert _invariant_tuple(generic) == (True, 1, 1, 1, 1)
    for point in ({"s": 1, "t": 1}, {"s": 8, "t": 4}):
        at = ratmap.fiber_invariants(rm, FiberPoint.rational(Q, point))
        assert at["stable"] and _invariant_tuple(at) == _invariant_tuple(generic)


@pytest.mark.parametrize("forms, bayer", [
    (["x^2", "s*x*y"], 8),
    (["x^3", "s*x^2*y", "t*x*y^2"], 8),
    # m-primary over the generic fiber, though s and t sit in the leads
    (["x^2", "s*x*y", "t*y^2"], 0),
    (["s*x + t*y + 2*z", "-2*x + 2*y - z", "-y"], 0),
])
def test_saturations_over_the_cusp_read_the_generic_leads(forms, bayer, monkeypatch):
    # only forms that are not m-primary over the generic fiber saturate
    # their powers, by Bayer's stages over the base
    names = ["x", "y", "z"] if any("z" in f for f in forms) else ["x", "y"]
    Q = make_ring(names, [1] * len(names), params=["s", "t"], relations=["s^2 - t^3"])
    calls = []
    _spy(monkeypatch, groebner, "_saturate_bayer", calls)
    assert ratmap.fiber_invariants(ratmap.RationalMap(Q, forms))["stable"]
    assert len(calls) == bayer
