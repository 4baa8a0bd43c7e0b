"""Rational map invariants: image degree, map degree, multiplicities."""

import json

import pytest

from gradedfibers.errors import (AlgebraError, NotGenericallyFinite,
                                 NotHomogeneous, NotStandardGraded, UnstableLimit)
from gradedfibers.rings import make_ring
from gradedfibers import cli, groebner, ratmap, script
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


def test_fiber_invariants_saturate_each_power_once(monkeypatch):
    # degG reads k = 1..6, e_sat n = 1..8 and j the powers 2..7: eight
    # distinct saturated powers, each computed once.  Every power of the
    # Veronese ideal is m-primary, so each saturation leaves Bayer's
    # route at its first basis and runs no graph kernel.
    kernels = []  # one entry per graph kernel run
    per_saturation = []  # graph kernel runs inside each saturation
    saturate = groebner.saturate_ideal
    graph_kernel = groebner._graph_kernel

    def counted(gens, others, ring=None):
        before = len(kernels)
        out = saturate(gens, others, ring=ring)
        per_saturation.append(len(kernels) - before)
        return out

    def spied(*args, **kwargs):
        kernels.append(args)
        return graph_kernel(*args, **kwargs)

    monkeypatch.setattr(groebner, "saturate_ideal", counted)
    monkeypatch.setattr(groebner, "_graph_kernel", spied)
    inv = ratmap.fiber_invariants(ratmap.RationalMap(R, ["x^2", "x*y", "y^2"]))
    assert (inv["degY"], inv["degG"], inv["e_sat"], inv["j"]) == (2, 1, 2, 4)
    assert per_saturation == [0] * 8


def test_j_reads_the_power_basis_where_the_saturation_is_the_unit_ideal(monkeypatch):
    # every saturation of the Veronese ideal is the unit ideal, so j meets
    # nothing: the numerator is I^n itself, read off the basis its power
    # already holds, and the lengths stay those of the intersection
    meets = []
    intersect = groebner.intersect_ideals

    def spied(a, b, ring=None):
        meets.append((a, b))
        return intersect(a, b, ring)

    monkeypatch.setattr(groebner, "intersect_ideals", spied)
    inv = ratmap.fiber_invariants(ratmap.RationalMap(R, ["x^2", "x*y", "y^2"]))
    assert inv["j"] == 4 and meets == []
    # the Cremona map keeps its saturations proper, so j still meets them
    Q = make_ring(["x", "y", "z"], [1, 1, 1])
    assert ratmap.fiber_invariants(ratmap.RationalMap(Q, ["y*z", "x*z", "x*y"]))["j"] == 2
    assert meets


@pytest.mark.parametrize("ring, gens", [
    (R, ["x^2", "x*y", "y^2"]),
    (make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"]),
     ["x^2", "s*x*y", "t*y^2"]),
])
def test_power_basis_polys_are_the_ideal_basis(ring, gens):
    powers = ratmap._Powers(ring, [ring.poly(g) for g in gens])
    for n in (1, 2, 3):
        got = groebner.ideal_basis_polys(powers.power(n).gb())
        want = groebner.ideal_gb(ratmap._gens(powers.power(n)), ring=ring)
        assert [g.terms for g in got] == [g.terms for g in want]


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
