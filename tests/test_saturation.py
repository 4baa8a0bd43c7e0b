"""Saturation by the irrelevant ideal: Bayer's route against the colon loop.

``saturate_ideal`` reads I : x_i^inf off one grevlex basis with x_i last
when the input meets Bayer and Stillman's conditions, and iterates colons
otherwise.  The colon loop is the reference: on every input both routes
must return the same reduced basis, term for term.
"""

import random
from fractions import Fraction

import pytest

from gradedfibers import groebner, ratmap
from gradedfibers.rings import MonomialOrder, Poly, PrimeField, make_ring
from gradedfibers.specialize import _power_products


def _xgens(ring):
    return [ring.var(n) for n in ring.xnames]


def _terms(basis):
    return [g.terms for g in basis]


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
        assert groebner.ideal_contains(sat, gens[0].exact_div(ring.var("x")))


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
        power = _power_products([ring.poly(f) for f in forms], k, ring)
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
