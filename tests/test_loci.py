"""Jump loci, certificates, radicals, and the constancy harness."""

import json
from pathlib import Path

import pytest

from gradedfibers.errors import AlgebraError
from gradedfibers.modules import FreeModule, FreeMap, Presentation
from gradedfibers.rings import Poly, Ring, irreducible_factors, make_ring
from gradedfibers import cli, groebner, localcohom, loci, resolution, script, strands
from gradedfibers.specialize import FiberPoint


Rt = make_ring(["x", "y"], [1, 1], params=["t"])


def rank_two_example():
    # cokernel of [[x^2, x y], [t x, y]]: free off t = 1, where the
    # second column becomes a multiple of the first generator pattern
    gens = FreeModule(Rt, [(0,), (1,)])
    cols = [gens.element([Rt.poly("x^2"), Rt.poly("t*x")]),
            gens.element([Rt.poly("x*y"), Rt.poly("y")])]
    return Presentation(FreeMap.from_columns(gens, cols))


def test_nonfree_locus_of_multiplication_by_t():
    info = loci.nonfree_locus(Presentation.cyclic(Rt, [Rt.poly("t")]))
    assert info["ideal_strings"] == ["t"]
    assert info["stabilized"]
    assert not info["is_empty"]


def test_nonfree_locus_of_free_module():
    free = Presentation(FreeMap.from_columns(FreeModule(Rt, [(0,)]), []))
    info = loci.nonfree_locus(free)
    assert info["is_empty"]
    assert info["ideal_strings"] == ["1"]


def test_nonfree_locus_rank_two_example():
    info = loci.nonfree_locus(rank_two_example())
    assert info["ideal_strings"] == ["t - 1"]
    assert info["stabilized"]


def test_window_growth_leaves_locus_unchanged(monkeypatch):
    a = loci.nonfree_locus(rank_two_example())
    monkeypatch.setattr(loci, "WINDOW_SLACK", 4)
    b = loci.nonfree_locus(rank_two_example())
    assert a["ideal_strings"] == b["ideal_strings"]
    assert b["window"][:len(a["window"])] == a["window"] != b["window"]


def test_smith_module_is_locally_free():
    # projective-but-not-free happens globally; the local obstruction is empty
    A = make_ring(["x"], [1], params=["t"], relations=["t^2 - t"])
    pres = Presentation.cyclic(A, [A.poly("x"), A.poly("t")])
    info = loci.nonfree_locus(pres)
    assert info["is_empty"]


def test_duality_exclusion_of_free_module():
    free = Presentation(FreeMap.from_columns(FreeModule(Rt, [(0,)]), []))
    out = loci.duality_exclusion_locus(free)
    assert out["ideal_strings"] == ["1"]


def test_duality_exclusion_rank_two_example():
    out = loci.duality_exclusion_locus(rank_two_example())
    assert out["ideal_strings"] == ["t - 1"]
    assert out["detail"]["ext1"] == ["t - 1"]


def test_duality_exclusion_contains_bad_fiber():
    Rx = make_ring(["x"], [1], params=["t"])
    out = loci.duality_exclusion_locus(Presentation.cyclic(Rx, [Rx.poly("t*x")]))
    assert out["ideal_strings"] == ["t"]
    assert out["detail"]["module"] == ["t"]
    assert out["detail"]["ext1"] == ["t"]


def test_squarefree_part_and_factors():
    p = Rt.poly("t^3 - 2*t^2 + t")  # t (t-1)^2
    assert str(loci.squarefree_part(p)) == "t^2 - t"
    K = make_ring(["u"], [1], params=["s", "t"])
    facs = sorted(str(q) for q in loci.irreducible_factors(K.poly("s^2*t + s*t^2")))
    assert facs == ["s", "s + t", "t"]


def test_locus_radical_cases():
    K = make_ring(["u"], [1], params=["s", "t"])
    rad, exact = loci.locus_radical([K.poly("t^3 - t^2")], K)
    assert exact and [str(g) for g in rad] == ["t^2 - t"]
    rad, exact = loci.locus_radical([K.poly("s^2"), K.poly("t^2")], K)
    assert exact and sorted(str(g) for g in rad) == ["s", "t"]
    # positive dimensional and not principal: returned as-is, flag down
    rad, exact = loci.locus_radical([K.poly("s*t"), K.poly("s^2 + s*t")], K)
    assert not exact


def katzman_presentation():
    K = make_ring(["u", "v"], [(1, 0), (1, 0)],
                  yvars=["x", "y"], ydegrees=[(0, 1), (0, 1)],
                  params=["s", "t"])
    f = K.poly("s*x^2*v^2 - (t + s)*x*y*u*v + t*y^2*u^2")
    return K, Presentation.cyclic(K, [f])


def test_katzman_jump_locus_designated_bidegrees():
    # the (-d, d) strand of H^2 tears exactly along s t (t^(d-1) + ... + s^(d-1))
    K, pres = katzman_presentation()
    out = loci.cohomology_jump_loci(pres, [(-2, 2)])
    assert [str(g) for g in out["ideal"]] == ["s^2*t + s*t^2"]
    facs = sorted(str(q) for q in loci.irreducible_factors(out["ideal"][0]))
    assert facs == ["s", "s + t", "t"]

    out3 = loci.cohomology_jump_loci(pres, [(-3, 3)])
    assert [str(g) for g in out3["ideal"]] == ["s^3*t + s^2*t^2 + s*t^3"]
    facs3 = sorted(str(q) for q in loci.irreducible_factors(out3["ideal"][0]))
    assert facs3 == ["s", "s^2 + s*t + t^2", "t"]


def test_cohomology_jump_locus_guards():
    A = make_ring(["x"], [1], params=["t"], relations=["t^2 - t"])
    with pytest.raises(AlgebraError, match="reducible base"):
        loci.cohomology_jump_loci(Presentation.cyclic(A, [A.poly("x")]), [(0,)])


def test_jump_loci_resolve_once(monkeypatch):
    # one resolution per call, whatever the number of degrees and indices
    seen = []
    real = resolution.free_resolution

    def spy(pres, length):
        seen.append(pres)
        return real(pres, length)

    monkeypatch.setattr(resolution, "free_resolution", spy)
    out = loci.cohomology_jump_loci(rank_two_example(), [(0,), (1,), (2,)])
    assert len(seen) == 1
    assert sorted(out["detail"]) == [(i, (d,)) for i in range(3) for d in range(3)]


def test_cmd_loci_runs_the_module_locus_once(tmp_path, monkeypatch):
    # the nonfree payload is the module piece of the duality exclusion
    seen = []
    real = loci.nonfree_locus

    def spy(pres, *args, **kwargs):
        seen.append(pres)
        return real(pres, *args, **kwargs)

    monkeypatch.setattr(loci, "nonfree_locus", spy)
    text = ("ring R base poly(QQ, t) vars x:1 y:1;\n"
            "module M = coker [x^2, x*y; t*x, y] shifts (0, 1);\ncmd loci M;\n")
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 0
    assert sum(1 for p in seen if p is seen[0]) == 1
    payload = json.loads((tmp_path / "01_loci.json").read_text())
    assert payload["nonfree"]["generators"] == payload["duality_exclusion"]["detail"]["module"]


def test_a_session_resolves_its_module_once(tmp_path, monkeypatch):
    # the table, the locus and the harness read the complex the module's
    # presentation owns; the Ext pieces and the evaluated fibers are other
    # modules, resolved on their own
    seen = []
    real = resolution.free_resolution

    def spy(pres, length):
        seen.append(pres)
        return real(pres, length)

    monkeypatch.setattr(resolution, "free_resolution", spy)
    text = ("ring R base poly(QQ, t) vars x:1 y:1;\n"
            "ideal X = (x^2, t*x*y, (t - 1)*y^2);\nfiber P = point(t = 2);\n"
            "cmd localcoh X window [-2, 2];\ncmd invariants X at P;\n"
            "cmd loci X;\ncmd harness X window [-2, 2];\n")
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 0
    assert [p for p in seen if p is seen[0]] == seen[:1]
    assert len(seen) > 1


def test_jump_loci_reuse_the_strands_of_a_table(monkeypatch):
    # the generic table keeps its inverse strands on the module's complex,
    # so the jump loci build only those of a degree it did not read
    pres = rank_two_example()
    localcohom.local_cohomology_table(pres, [(0,), (1,)])
    built = []
    real = strands.inverse_strand_matrix

    def spy(fmap, mu):
        built.append(mu)
        return real(fmap, mu)

    monkeypatch.setattr(strands, "inverse_strand_matrix", spy)
    out = loci.cohomology_jump_loci(pres, [(0,), (1,), (2,)])
    assert set(built) == {(2,)}
    assert out == loci.cohomology_jump_loci(rank_two_example(), [(0,), (1,), (2,)])


def test_constancy_report_locally_but_not_globally_constant():
    A = make_ring(["x"], [1], params=["t"], relations=["t^2 - t"])
    pres = Presentation.cyclic(A, [A.poly("x"), A.poly("t")])
    rep = loci.constancy_report(pres, [(0,), (1,)], seed=3, samples=2)
    assert rep["locally_constant"] is True
    assert rep["globally_constant"] is False
    assert rep["components"]["(t)"]["generic_dims"]["0@0"] == 1
    assert rep["components"]["(t - 1)"]["generic_dims"]["0@0"] == 0
    for comp in rep["components"].values():
        assert comp["samples_match"]
        for row in comp["samples"]:
            assert row["match"]


def test_constancy_report_on_a_cuspidal_base_samples_its_component():
    A = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"])
    pres = Presentation.cyclic(A, [A.poly(g) for g in ("x^2", "s*x*y", "t*y^2")])
    rep = loci.constancy_report(pres, [(0,), (1,), (2,)], seed=0, samples=2)
    (comp,) = rep["components"].values()
    assert comp["samples_found"] == 2
    assert comp["samples_match"] is True
    assert rep["locally_constant"] is True


def test_constancy_report_without_rational_points_is_unverified():
    # QQ[t]/(t^2 + 1) is a domain with no rational point to sample
    A = make_ring(["x", "y"], [1, 1], params=["t"], relations=["t^2 + 1"])
    pres = Presentation.cyclic(A, [A.poly(g) for g in ("x^2", "t*x*y", "y^2")])
    rep = loci.constancy_report(pres, [(0,), (1,), (2,)], seed=0, samples=2)
    (comp,) = rep["components"].values()
    assert comp["samples_found"] == 0 and comp["samples"] == []
    assert comp["samples_match"] is None
    assert rep["locally_constant"] is None
    assert loci.constancy_report(pres, [(0,)], samples=0)["locally_constant"] is True


def test_constancy_report_samples_do_not_hang_on_component_order(monkeypatch):
    A = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s*t - t"])
    pres = Presentation.cyclic(A, [A.poly(g) for g in ("x^2", "s*x*y", "t*y^2")])
    primes = A.minimal_primes()
    assert len(primes) == 2
    samples = []
    for order in (primes, primes[::-1]):
        monkeypatch.setattr(type(A), "minimal_primes", lambda self, order=order: order)
        rep = loci.constancy_report(pres, [(0,), (1,)], seed=1, samples=2)
        samples.append({key: [row["point"] for row in comp["samples"]]
                        for key, comp in rep["components"].items()})
    assert all(len(points) == 2 for points in samples[0].values())
    assert samples[0] == samples[1]


def test_constancy_report_field_base():
    R = make_ring(["x", "y"], [1, 1])
    pres = Presentation.cyclic(R, [R.poly("x")])
    rep = loci.constancy_report(pres, [(0,), (-1,)])
    assert rep["globally_constant"] is True
    assert "(field base)" in rep["components"]


def test_locus_excludes_exactly_the_jumping_fibers():
    pres = rank_two_example()
    window = range(0, 5)
    generic = [strands.presentation_strand_dim(pres, (mu,))[0] for mu in window]
    for tv in (2, 3, -1):
        pt = FiberPoint.rational(Rt, {"t": tv})
        dims = [strands.presentation_strand_dim(pres, (mu,), pt) for mu in window]
        assert dims == generic, tv
    bad = FiberPoint.rational(Rt, {"t": 1})
    dims_bad = [strands.presentation_strand_dim(pres, (mu,), bad) for mu in window]
    assert dims_bad != generic
    assert dims_bad[3] == generic[3] + 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: minor enumeration hits its cap (ROADMAP item 2)")
def test_loci_over_a_base_with_a_relation(tmp_path):
    # without a window it stops at an 11 x 14 strand, later; [0, 1] hits
    # the cap at once
    from gradedfibers import cli, script

    text = ("ring R base quotient(poly(QQ, s, t), ideal(s^2 - t^3)) vars x:1 y:1;\n"
            "ideal I = (x^2, s*x*y, t*y^2);\ncmd loci I window [0, 1];\n")
    cli.run(script.parse(text), out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "01_loci.json").read_text())
    assert "error" not in payload, payload["error"]["message"]


def test_union_with_the_unit_ideal_skips_the_intersection(monkeypatch):
    # the unit ideal is the empty locus: the union is the other side's
    # reduced basis, which is what intersect_ideals returns for it
    K = make_ring(["x"], [1], params=["s", "t"])
    one, zero = K.one(), K.zero()
    other = [K.poly("s^2*t - s*t"), K.poly("2*s*t^2")]
    cases = [([one], other), (other, [one]), ([K.poly("3/2"), K.poly("s")], other),
             ([one], [zero]), ([zero, one], other), ([one], [one])]
    want = [groebner.intersect_ideals(a, b, K) for a, b in cases]
    # a zero generator is no unit, so this pair still intersects
    with_zero = ([zero, K.poly("s")], other)
    want_zero = groebner.intersect_ideals(*with_zero, K)
    met = []
    real = groebner.intersect_ideals
    monkeypatch.setattr(groebner, "intersect_ideals",
                        lambda *a, **k: met.append(a) or real(*a, **k))
    for (a, b), w in zip(cases, want):
        assert [g.terms for g in loci._union(a, b, K)] == [g.terms for g in w], (a, b)
    assert met == []
    assert [g.terms for g in loci._union(*with_zero, K)] == [g.terms for g in want_zero]
    assert len(met) == 1


def test_factor_memo_agrees_with_a_fresh_ring(monkeypatch, tmp_path):
    # every poly the loci benchmark scripts factor, and every factor the
    # memo records as its own factorization, factors the same on a fresh
    # ring with an empty memo
    rings = []
    init = Ring.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rings.append(self)

    monkeypatch.setattr(Ring, "__init__", keep)
    scripts = Path(__file__).resolve().parent.parent / "perfbench" / "scripts"
    for path in sorted(scripts.glob("loci_*.gf")):
        assert cli.run(script.parse(path.read_text(encoding="utf-8")),
                       out_dir=str(tmp_path / path.stem)) == 0
    monkeypatch.undo()
    memos = [(ring, key, got) for ring in rings for key, got in ring._factors.items()]
    assert len(memos) > 20
    for ring, key, got in memos:
        fresh = ring._replace()
        want = irreducible_factors(Poly(fresh, dict(key)))
        assert [f.terms for f in got] == [f.terms for f in want], dict(key)
