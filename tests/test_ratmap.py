"""Rational map invariants: image degree, map degree, multiplicities."""

import pytest

from gradedfibers.errors import (AlgebraError, NotGenericallyFinite,
                                 NotHomogeneous, NotStandardGraded, UnstableLimit)
from gradedfibers.rings import make_ring
from gradedfibers import groebner, ratmap
from gradedfibers.specialize import FiberPoint


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
    rm = ratmap.RationalMap(Rt, ["x^2", "x*y", "t*y^2"])
    rep = ratmap.map_constancy_report(rm, seed=1, samples=2, avoid=[Rt.poly("t")])
    assert rep["locally_constant"] is True
    comp = rep["components"]["(0)"]
    assert comp["generic"]["degY"] == 2
    assert comp["samples_match"]
    assert all(row["match"] for row in comp["samples"])


def test_fiber_invariants_saturate_each_power_once(monkeypatch):
    # degG reads k = 1..6, e_sat n = 1..8 and j the powers 2..7: eight
    # distinct saturated powers, each computed once
    calls = []
    saturate = groebner.saturate_ideal

    def counted(gens, others, ring=None):
        calls.append(len(gens))
        return saturate(gens, others, ring=ring)

    monkeypatch.setattr(groebner, "saturate_ideal", counted)
    inv = ratmap.fiber_invariants(ratmap.RationalMap(R, ["x^2", "x*y", "y^2"]))
    assert (inv["degY"], inv["degG"], inv["e_sat"], inv["j"]) == (2, 1, 2, 4)
    assert len(calls) == 8


def test_multiplicity_identity_is_still_asserted(monkeypatch):
    rm = ratmap.RationalMap(R, ["x^2", "y^2"])
    real = ratmap.saturated_fiber_multiplicity
    monkeypatch.setattr(ratmap, "saturated_fiber_multiplicity",
                        lambda *a, **k: real(*a, **k) + 1)
    with pytest.raises(AlgebraError, match="multiplicity identity failed"):
        ratmap.fiber_invariants(rm)
    monkeypatch.undo()
    monkeypatch.setattr(ratmap, "map_degree",
                        lambda *a, **k: {"degG": 3, "degY": 1, "h1_dims": []})
    with pytest.raises(AlgebraError, match="multiplicity identity failed"):
        ratmap.saturated_fiber_multiplicity(ratmap.RationalMap(R, ["x^2", "y^2"]))
