"""Saturation by the irrelevant ideal: Bayer's route against the colon loop.

``saturate_ideal`` reads I : x_i^inf off one grevlex basis with x_i last
when the input meets Bayer and Stillman's conditions, over any base, and
iterates colons otherwise.  Bayer's route returns the unit ideal at its
first basis when that basis has a pure power of every x-variable among
its leads.  The colon loop is the reference: on every input both routes
must return the same reduced basis, term for term.
"""

import random
from fractions import Fraction

import pytest

from gradedfibers import groebner, ratmap, specialize
from gradedfibers.rings import MonomialOrder, Poly, PrimeField, make_ring


def _xgens(ring):
    return [ring.var(n) for n in ring.xnames]


def _terms(basis):
    return [g.terms for g in basis]


def _power(ring, forms, k):
    """The generators of (forms)^k, as the power ladder builds them."""
    _module, vectors = specialize.rees_powers(forms, ring=ring).power_vectors(k)
    return [v.component(0) for v in vectors]


def _agree(ring, gens, bayer=True):
    """Saturate by both routes; assert the route taken and equal bases."""
    gens = [ring.poly(g) for g in gens]
    xs = _xgens(ring)
    assert groebner._bayer_applies(gens, xs, ring) is bayer
    got = groebner.saturate_ideal(gens, xs, ring=ring)
    want = groebner._saturate_by_colons(gens, xs, ring)
    assert _terms(got) == _terms(want)
    return got


def _random_form(ring, deg, rng):
    terms = {}
    for m in ring.monomials_of_degree((deg,)):
        c = rng.randint(-2, 2)
        if c:
            terms[m] = ring.field.coerce(c)
    return Poly(ring, terms)


def _seeded_ideals(ring, seed, count):
    """f*m + (g) for random forms f, g: saturating recovers at least f."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = _random_form(ring, rng.randint(1, 2), rng)
        g = _random_form(ring, rng.randint(2, 3), rng)
        if f.is_zero() or g.is_zero():
            continue
        out.append([f * x for x in _xgens(ring)] + [g])
    return out


@pytest.mark.parametrize("field", ["QQ", "GF"])
def test_seeded_ideals_over_fields(field):
    ring = make_ring(["x", "y", "z"], [1, 1, 1],
                     **({"field": PrimeField(32003)} if field == "GF" else {}))
    for gens in _seeded_ideals(ring, 7, 4):
        sat = _agree(ring, gens)
        # gens[0] = f*x and f lies in the saturation
        f = Poly(ring, {(e[0] - 1,) + e[1:]: c for e, c in gens[0].terms.items()})
        assert groebner.ideal_contains(sat, f)


def test_seeded_ideals_over_a_parameter_base():
    ring = make_ring(["x", "y"], [1, 1], params=["t"])
    t = ring.var("t")
    rng = random.Random(11)
    for _ in range(3):
        f = _random_form(ring, 1, rng) + t * _random_form(ring, 1, rng)
        g = _random_form(ring, 2, rng) * (t + ring.constant(rng.randint(1, 3)))
        if f.is_zero():
            continue
        _agree(ring, [f * x for x in _xgens(ring)] + [g])


def test_embedded_primary_component_is_peeled():
    # C * m for the twisted cubic C: an m-primary component sits inside
    # the prime C, and saturation strips it
    ring = make_ring(["a", "b", "c", "d"], [1, 1, 1, 1])
    cubic = [ring.poly(g) for g in ("a*c - b^2", "a*d - b*c", "b*d - c^2")]
    gens = [g * x for g in cubic for x in _xgens(ring)]
    sat = _agree(ring, gens)
    assert _terms(sat) == _terms(groebner.ideal_gb(cubic, ring=ring))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_veronese_powers(k):
    ring = make_ring(["x", "y"], [1, 1])
    for forms in (["x^2", "x*y", "y^2"], ["x^2 - 2*x*y + y^2", "x*y - y^2", "y^2"]):
        power = _power(ring, forms, k)
        # (x, y)^{2k} is m-primary: its saturation is the unit ideal
        assert [str(g) for g in _agree(ring, power)] == ["1"]


def test_weighted_x_block_takes_the_colon_loop():
    # x has degree 2: grevlex no longer refines the grading, and dividing
    # a grevlex basis of (y^2 + x)(x, y^2) by powers of y leaves
    # (y^4 - x^2, x*y^2 + x^2), not the saturation (y^2 + x)
    ring = make_ring(["x", "y"], [2, 1])
    sat = _agree(ring, ["x*y^2 + x^2", "y^4 + x*y^2"], bayer=False)
    assert [str(g) for g in sat] == ["y^2 + x"]


def test_single_form_saturator_takes_the_colon_loop():
    # preimage_count saturates the fiber minors by one form of the map;
    # these are the minors of the Veronese map over the target (1 : 2 : 4)
    ring = make_ring(["x", "y"], [1, 1])
    minors = [ring.poly(g) for g in ("2*x^2 - x*y", "4*x^2 - y^2", "4*x*y - 2*y^2")]
    form = ring.poly("x^2")
    assert groebner._bayer_applies(minors, [form], ring) is False
    got = groebner.saturate_ideal(minors, [form], ring=ring)
    assert _terms(got) == _terms(groebner._saturate_by_colons(minors, [form], ring))
    assert ratmap.preimage_count(ratmap.RationalMap(ring, ["x^2", "x*y", "y^2"])) == 1


def test_partial_or_scaled_saturators_take_the_colon_loop():
    ring = make_ring(["x", "y", "z"], [1, 1, 1])
    gens = [ring.poly("x^2*y"), ring.poly("x*y*z")]
    x, y, z = _xgens(ring)
    assert not groebner._bayer_applies(gens, [x, y], ring)
    assert not groebner._bayer_applies(gens, [x, y, ring.constant(Fraction(2)) * z], ring)
    assert not groebner._bayer_applies(gens + [ring.poly("x + y^2")], [x, y, z], ring)
    assert groebner._bayer_applies(gens, [z, y, x, x], ring)


def test_lex_ordered_ring_takes_the_colon_loop():
    # under lex x*z - y^2 leads with x*z, so a lead no longer shows the
    # power of z dividing an element; dividing a lex basis of
    # x^2*m + (x*z - y^2) by powers of z misses x^2
    ring = make_ring(["x", "y", "z"], [1, 1, 1],
                     order=MonomialOrder([("lex", [0, 1, 2])]))
    sat = _agree(ring, ["x^3", "x^2*y", "x^2*z", "x*z - y^2"], bayer=False)
    assert [str(g) for g in sat] == ["x^2", "x*y^2", "x*z - y^2", "y^4"]


def _native_leads_bound_every_x(ring, gens):
    basis = groebner.ideal_gb([ring.poly(g) for g in gens], ring=ring)
    return groebner._pure_x_powers([g.leading_monomial() for g in basis], ring.nx)


def test_parameter_factor_in_a_lead_takes_the_stages():
    # t*x^2 leads t*x^2 + x*y, so the leads bound y but not x: the ideal
    # is m-primary over the generic fiber, not over QQ[t], and its
    # saturation stays proper
    ring = make_ring(["x", "y"], [1, 1], params=["t"])
    gens = ["t*x^2 + x*y", "y^2"]
    assert not _native_leads_bound_every_x(ring, gens)
    sat = _agree(ring, gens)
    assert [str(g) for g in sat] == ["y^2", "x*t + y", "y*t", "t^2"]


def test_m_primary_ideal_over_a_prime_field_exits_early():
    ring = make_ring(["x", "y", "z"], [1, 1, 1], field=PrimeField(32003))
    gens = ["x^2 + y*z", "y^2 - 3*x*z", "z^2 + 5*x*y"]
    assert _native_leads_bound_every_x(ring, gens)
    assert [str(g) for g in _agree(ring, gens)] == ["1"]


@pytest.mark.parametrize("gens, want, early", [
    (["x^3"], ["1"], True),
    (["t*x^2"], ["t"], False),
    (["t*x^3 + x^3"], ["t + 1"], False),
])
def test_one_variable_x_block(gens, want, early):
    ring = make_ring(["x"], [1], params=["t"])
    assert _native_leads_bound_every_x(ring, gens) is early
    assert [str(g) for g in _agree(ring, gens)] == want


CUSP = {"params": ["s", "t"], "relations": ["s^2 - t^3"]}
TWISTED_CUBIC = {"params": ["a", "b", "c"], "relations": ["b - a^2", "c - a^3"],
                 "minimal_primes": [["b - a^2", "c - a^3"]]}


@pytest.mark.parametrize("xvars, base, forms", [
    (["x", "y"], CUSP, ["x^2", "s*x*y", "t*y^2"]),
    (["x", "y", "z"], CUSP, ["x*y", "s*y*z", "t*x*z"]),
    (["x", "y"], TWISTED_CUBIC, ["x^2", "a*x*y", "c*y^2"]),
], ids=["cusp", "cusp-3", "two-relations"])
def test_powers_over_a_base_with_relations_take_bayers_route(xvars, base, forms):
    # the relations have x-degree zero, so Bayer's argument holds over the
    # quotient base; the colon loop stays the reference
    ring = make_ring(xvars, [1] * len(xvars), **base)
    for k in (1, 2, 3):
        power = _power(ring, forms, k)
        sat = _agree(ring, power)
        # proper: where the parameters vanish, the forms are not primary
        # to the irrelevant ideal
        assert [str(g) for g in sat] != ["1"]


# Two cubes that Bayer's route once took seconds or minutes on, while it
# met its per-variable stages pairwise; CI runs them under a timeout.

@pytest.mark.parametrize("xvars, base, forms", [
    (["x", "y", "z"], {},
     ["x*y + y^2 - x*z - 2*y*z + 2*z^2", "2*x*y + 2*y^2 - 2*x*z - 2*y*z - z^2",
      "x^2 + x*y + x*z + 2*y*z + 2*z^2"]),
    (["x", "y"], CUSP, ["x^2 - 2*x*y + y^2", "s*x^2 - y^2"]),
], ids=["QQ", "cusp"])
def test_capacity_cube_saturates_by_bayers_route(xvars, base, forms):
    ring = make_ring(xvars, [1] * len(xvars), **base)
    power = _power(ring, forms, 3)
    sat = _agree(ring, power)
    assert [str(g) for g in sat] != ["1"]
