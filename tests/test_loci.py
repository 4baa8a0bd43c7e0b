"""Jump loci, certificates, radicals, and the constancy harness."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gradedfibers.errors import AlgebraError, InvalidFiber
from gradedfibers.modules import FreeModule, FreeMap, Presentation
from gradedfibers.rings import Poly, PrimeField, Ring, irreducible_factors, make_ring
from gradedfibers import cli, groebner, linalg, localcohom, loci, resolution, script, strands
from gradedfibers.specialize import FiberPoint, sample_rational_point
from test_strands import same_locus

SCRIPTS = Path(__file__).resolve().parent.parent / "perfbench" / "scripts"


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
    assert info["coverage"] == "all degrees"
    assert not info["is_empty"]


def test_nonfree_locus_of_free_module():
    free = Presentation(FreeMap.from_columns(FreeModule(Rt, [(0,)]), []))
    info = loci.nonfree_locus(free)
    assert info["is_empty"]
    assert info["ideal_strings"] == ["1"]


def test_nonfree_locus_rank_two_example():
    info = loci.nonfree_locus(rank_two_example())
    assert info["ideal_strings"] == ["t - 1"]
    assert info["coverage"] == "all degrees"


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
    real = strands.inverse_strand_basis

    def spy(module, mu):
        built.append(mu)
        return real(module, mu)

    monkeypatch.setattr(strands, "inverse_strand_basis", spy)
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


def test_constancy_report_builds_each_component_basis_once(monkeypatch):
    # three components: each prime's basis tests the generators of both
    # others, and is built once
    A = make_ring(["x"], [1], params=["t"], relations=["t^3 - t"])
    pres = Presentation.cyclic(A, [A.poly("x"), A.poly("t")])
    built = []
    real = groebner.ideal_gb

    def spy(gens, *args, **kwargs):
        built.append(tuple(str(g) for g in gens))
        return real(gens, *args, **kwargs)

    monkeypatch.setattr(groebner, "ideal_gb", spy)
    rep = loci.constancy_report(pres, [(0,)], seed=3, samples=1)
    assert built == [tuple(str(g) for g in p) for p in A.minimal_primes()]
    assert rep["locally_constant"] is True and rep["globally_constant"] is False


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


def test_loci_over_a_base_with_a_relation(tmp_path):
    # over the cusp s^2 = t^3 the module is free off the cusp point; no
    # pair asks for a minor above a strand's generic rank, so no strand
    # reaches the enumeration cap
    text = ("ring R base quotient(poly(QQ, s, t), ideal(s^2 - t^3)) vars x:1 y:1;\n"
            "ideal I = (x^2, s*x*y, t*y^2);\ncmd loci I;\n")
    cli.run(script.parse(text), out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "01_loci.json").read_text())
    assert "error" not in payload, payload["error"]["message"]
    assert payload["nonfree"]["coverage"] == "all degrees"
    A = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"])
    gens = [A.poly(g) for g in payload["nonfree"]["generators"]]
    for values, inside in (((0, 0), True), ((1, 1), False), ((8, 4), False)):
        point = FiberPoint.rational(A, dict(zip("st", values)))
        assert all(not point.evaluate_scalar(g) for g in gens) == inside, values


def test_factor_memo_agrees_with_a_fresh_ring(monkeypatch, tmp_path):
    # every poly the loci benchmark scripts and the loci goldens factor
    # gets sympy's factors, also when it never reached sympy, and every
    # factor list the memo records (a factor as its own factorization, a
    # squarefree product as its factors) factors the same on a fresh ring
    # with an empty memo
    from gradedfibers import rings as rings_module, specialize
    from gradedfibers.rings import _sympy_factors

    rings, calls = [], []
    init = Ring.__init__

    def keep(self, *args, **kwargs):
        init(self, *args, **kwargs)
        rings.append(self)

    def spy(p):
        got = irreducible_factors(p)
        calls.append((p, got))
        return got

    monkeypatch.setattr(Ring, "__init__", keep)
    for module in (rings_module, loci, specialize):
        monkeypatch.setattr(module, "irreducible_factors", spy)
    here = Path(__file__).resolve().parent
    paths = sorted((here.parent / "perfbench" / "scripts").glob("loci_*.gf"))
    paths += [here / "golden" / (name + ".gf") for name in ("module_loci", "loci_points")]
    for path in paths:
        assert cli.run(script.parse(path.read_text(encoding="utf-8")),
                       out_dir=str(tmp_path / path.stem)) == 0
    monkeypatch.undo()
    calls = [(p, got) for p, got in calls
             if p.constant_value() is None and not p.ring.field.char]
    assert len(calls) > 20
    for p, got in calls:
        want = _sympy_factors(Poly(p.ring._replace(), p.terms))
        assert [f.terms for f in got] == [f.terms for f in want], p
    memos = [(ring, key, got) for ring in rings for key, got in ring._factors.items()]
    assert len(memos) > 10
    for ring, key, got in memos:
        fresh = ring._replace()
        want = irreducible_factors(Poly(fresh, dict(key)))
        assert [f.terms for f in got] == [f.terms for f in want], dict(key)


# -- the stratified non-free locus against its references --------------------


def cyclic(ring, gens):
    return Presentation.cyclic(ring, [ring.poly(g) for g in gens])


def module(ring, rows, shifts):
    target = FreeModule(ring, [(d,) for d in shifts])
    cols = [target.element([ring.poly(row[j]) for row in rows]) for j in range(len(rows[0]))]
    return Presentation(FreeMap.from_columns(target, cols))


Rst = make_ring(["x", "y"], [1, 1], params=["s", "t"])
Rst3 = make_ring(["x", "y", "z"], [1, 1, 1], params=["s", "t"])
Rcusp = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"])
Ridem = make_ring(["x", "y"], [1, 1], params=["t"], relations=["t^2 - t"])
Rx = make_ring(["x"], [1], params=["t"], relations=["t^2 - t"])

LOCUS_CASES = {
    "rank two": rank_two_example,
    "multiplication by t": lambda: cyclic(Rt, ["t"]),
    "smith": lambda: cyclic(Rx, ["x", "t"]),
    "cusp": lambda: cyclic(Rcusp, ["x^2", "s*x*y", "t*y^2"]),
    "points M": lambda: module(Rt, [["x^2", "x*y"], ["(t^2 + 1)*x", "y"]], [0, 1]),
    "points N": lambda: module(Rt, [["x^2", "(t^2 - 1)*x*y"], ["t*x", "y"]], [0, 1]),
    "points I": lambda: cyclic(Rt, ["(t^2 + 2)*x^2", "x*y", "(t - 3)*y^2"]),
}

# inputs whose strands once ran into the minor enumeration cap
CAPACITY_CASES = {
    "ladder": lambda: cyclic(Rst3, ["s*x^2 + t*y*z", "x*y - t*z^2", "y^3 - s*x*z^2"]),
    "coker over QQ[s,t]": lambda: module(Rst, [["x^2", "x*y"], ["s*x", "t*y"]], [0, 1]),
    "idempotent base": lambda: cyclic(Ridem, ["x^2", "t*x*y", "y^2"]),
}


# bases whose components are not known: one relation over GF(p), where
# nothing is factored, or several relations with none declared
Ridem7 = make_ring(["x", "y"], [1, 1], params=["t"], relations=["t^2 - t"], field=PrimeField(7))
Rcusp7 = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"],
                   field=PrimeField(7))
Rmeet = make_ring(["x", "y"], [1, 1], params=["s", "t", "u"], relations=["s*t", "s*u"])

# name: (ring, generators, the locus, components that, declared, give a
# locus with the same zeros)
UNSPLIT = {
    # two points apart: the module is free at each, though not of one rank
    "idempotent over GF(7)": (Ridem7, ["x^2", "t*x*y", "y^2"], ["1"], [["t"], ["t - 1"]]),
    "cusp over GF(7)": (Rcusp7, ["x^2", "s*x*y", "t*y^2"], ["s", "t"], [["s^2 - t^3"]]),
    # the plane s = 0 jumps along t = 0, the line t = u = 0 at the origin
    "plane and line": (Rmeet, ["s*x", "t*y"], ["s", "t"], [["s"], ["t", "u"]]),
    "plane and line, ladder": (Rmeet, ["x^2", "(s + t)*x*y", "u*y^2"], ["t*u", "s"],
                               [["s"], ["t", "u"]]),
    # the lead x at t != 0 drops to y at t = 0, and the fibers agree
    "plane and line, linear": (Rmeet, ["t*x + y"], ["1"], [["s"], ["t", "u"]]),
}
UNSPLIT_CASES = {name: (lambda ring=ring, gens=gens: cyclic(ring, gens))
                 for name, (ring, gens, _, _) in UNSPLIT.items()}


def pair_locus(sm_in, sm_out, target, ring):
    """Ideal of the points where rank(sm_in) + rank(sm_out) < target, as
    minors: the intersection over a + b = target - 1 of (minors of size
    a+1 of sm_in) + (minors of size b+1 of sm_out), squarefree.  A cap at
    or above a strand's size, or on a domain base at or above its generic
    rank, holds everywhere, so the caps are clamped there, and a pair
    whose locus lies inside another pair's is left out.  [] is the whole
    base."""
    if target <= 0:
        return [ring.one()]
    cap_in = min(sm_in.nrows, sm_in.ncols)
    cap_out = min(sm_out.nrows, sm_out.ncols)
    if ring.base_is_domain:
        cap_in = min(cap_in, sm_in.generic_rank()[0])
        cap_out = min(cap_out, sm_out.generic_rank()[0])
    pairs = {(min(a, cap_in), min(target - 1 - a, cap_out)) for a in range(target)}
    pairs = [p for p in pairs
             if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in pairs)]
    acc = None
    for a, b in sorted(pairs):
        part = sm_in.minors_ideal(a + 1) + sm_out.minors_ideal(b + 1)
        if not part:
            return []
        part = groebner.ideal_gb(part, ring=ring)
        part = groebner.ideal_gb(loci._squarefree_gens(part), ring=ring)
        if not part:
            return []
        acc = part if acc is None else groebner.intersect_ideals(acc, part, ring)
        if not acc:
            return []
    return loci._squarefree_gens(acc)


def window_scan_locus(pres, degrees):
    """The non-free locus as the window scan read it: the union over the
    degrees of the points where the raw resolution's d_2 and d_1 strands
    stop being exact at F_1."""
    ring = pres.ring
    res = pres.resolution().raw
    acc = None
    for mu in degrees:
        sm1 = strands.strand_matrix(res.map(1), mu)
        sm2 = strands.strand_matrix(res.map(2), mu)
        acc = loci._union(acc, pair_locus(sm2, sm1, sm1.ncols, ring), ring)
    return [ring.one()] if acc is None else acc


@pytest.mark.parametrize("name", sorted(LOCUS_CASES))
def test_locus_has_the_zeros_of_the_window_scan(name):
    # the scan ran from the smallest shift of F_0..F_2 to a few degrees
    # past the largest; the two ideals may differ, but not their zeros
    pres = LOCUS_CASES[name]()
    res = pres.resolution().raw
    shifts = [s[0] for m in res.modules[:3] for s in m.shifts]
    degrees = [(d,) for d in range(min(shifts), max(shifts) + 7)]
    info = loci.nonfree_locus(pres)
    assert info["coverage"] == "all degrees"
    assert same_locus(info["ideal"], window_scan_locus(pres, degrees), pres.ring)


def fiber_numerator(pres, point):
    gb = pres.evaluate(point).gb()
    return groebner.hilbert_numerator(gb.leads(), gb.module)


@pytest.mark.parametrize("name", sorted(LOCUS_CASES) + sorted(CAPACITY_CASES)
                         + sorted(UNSPLIT_CASES))
def test_each_cell_has_its_hilbert_function_at_a_seeded_point(name):
    pres = {**LOCUS_CASES, **CAPACITY_CASES, **UNSPLIT_CASES}[name]()
    rng = random.Random(50)
    cells = loci.nonfree_locus(pres)["cells"]
    sampled = 0
    for cell in cells:
        if cell["empty"]:
            continue
        try:
            point = sample_rational_point(pres.ring, rng, avoid=[cell["h"]],
                                          on=cell["adjoined"])
        except InvalidFiber:
            continue  # no rational point in the cell, as on t^2 + 1 = 0
        assert fiber_numerator(pres, point) == cell["hilbert"], (cell["adjoined"], point)
        sampled += 1
    assert sampled >= min(2, len(cells))


@pytest.mark.parametrize("name", sorted(LOCUS_CASES) + sorted(CAPACITY_CASES)
                         + sorted(UNSPLIT_CASES))
def test_each_stratum_is_one_cell(name):
    # a stratum that two orders of lead coefficients reach is computed
    # once: over the cusp the point (s, t) lies below s and below t
    pres = {**LOCUS_CASES, **CAPACITY_CASES, **UNSPLIT_CASES}[name]()
    ring = pres.ring
    ideals = [tuple(str(g) for g in groebner.ideal_gb(cell["adjoined"], ring=ring))
              for cell in loci.nonfree_locus(pres)["cells"]]
    assert len(set(ideals)) == len(ideals), ideals
    if name == "cusp":
        assert ideals == [(), ("s",), ("s", "t"), ("s^2", "t")]


@pytest.mark.parametrize("name", sorted(CAPACITY_CASES))
def test_inputs_past_the_minor_cap_return_a_locus(name):
    # a seeded point lies on the locus exactly when its fiber's Hilbert
    # function differs from that of the generic point of its component;
    # a strand jump inside a window, read by the strand route, puts it
    # on the locus
    pres = CAPACITY_CASES[name]()
    ring = pres.ring
    gens = loci.duality_exclusion_locus(pres)["module"]["ideal"]
    comps = ring.minimal_primes() if not ring.base_is_domain else [()]
    rng = random.Random(51)
    factors = [f for g in gens for f in irreducible_factors(g)]
    window = [(d,) for d in range(0, 8)]
    for prime in comps:
        generic = pres if not prime else pres.evaluate(FiberPoint.generic(ring, list(prime)))
        want = groebner.hilbert_numerator(generic.gb().leads(), generic.gb().module)
        generic_dims = None
        if ring.base_is_domain:
            generic_dims = [strands.presentation_strand_dim(pres, mu)[0] for mu in window]
        on_locus = 0
        for on in [[]] * 4 + [[f] for f in factors]:
            try:
                point = sample_rational_point(ring, rng, on=list(prime) + on)
            except InvalidFiber:
                continue
            inside = all(not point.evaluate_scalar(g) for g in gens)
            on_locus += inside
            assert inside == (fiber_numerator(pres, point) != want), point
            if generic_dims is not None and not inside:
                assert [strands.presentation_strand_dim(pres, mu, point)
                        for mu in window] == generic_dims, point
        assert on_locus >= min(1, len(factors))


def test_duality_exclusion_builds_no_strand_matrix(monkeypatch):
    def banned(*args, **kwargs):
        raise AssertionError("a strand matrix or a minor was built")

    monkeypatch.setattr(strands, "strand_matrix", banned)
    monkeypatch.setattr(strands.StrandMatrix, "minors_ideal", banned)
    for make in (rank_two_example, LOCUS_CASES["cusp"], CAPACITY_CASES["ladder"],
                 CAPACITY_CASES["idempotent base"], UNSPLIT_CASES["plane and line, ladder"]):
        loci.duality_exclusion_locus(make())


def test_jump_loci_enumerate_no_minor(monkeypatch):
    # each strand's locus is read off its cokernel's stratified relation
    # basis, or off its certifying minor when it is square of full rank
    def banned(*args, **kwargs):
        raise AssertionError("a minor was enumerated")

    monkeypatch.setattr(strands.StrandMatrix, "minors_ideal", banned)
    monkeypatch.setattr(linalg, "domain_det", banned)
    katzman = katzman_presentation()[1]
    out = loci.cohomology_jump_loci(katzman, [(-2, 2)])
    assert [str(g) for g in out["ideal"]] == ["s^2*t + s*t^2"]
    out = loci.cohomology_jump_loci(CAPACITY_CASES["ladder"](), [(d,) for d in range(4)])
    assert [str(g) for g in out["ideal"]] == ["s*t"]
    out = loci.cohomology_jump_loci(rank_two_example(), [(d,) for d in range(-3, 6)])
    assert [str(g) for g in out["ideal"]] == ["t - 1"]


JUMP_CASES = {
    "rank two": (rank_two_example, range(-3, 6)),
    "ladder": (CAPACITY_CASES["ladder"], range(0, 4)),
    "cusp": (LOCUS_CASES["cusp"], range(-2, 4)),
    "points M": (LOCUS_CASES["points M"], range(-2, 4)),
    "A over QQ[s,t]": (lambda: cyclic(Rst3, ["x^2", "s*x*y + t*y^2"]), range(-1, 3)),
}


@pytest.mark.parametrize("name", sorted(JUMP_CASES))
def test_jump_loci_have_the_zeros_of_the_pair_route(name):
    # the jump locus of each [H^i]_mu, read off its two strands' rank-drop
    # loci, against the minors of the pairs of ranks that sum below the
    # generic sum
    make, degrees = JUMP_CASES[name]
    pres = make()
    ring = pres.ring
    out = loci.cohomology_jump_loci(pres, [(d,) for d in degrees])
    res = pres.resolution()
    for (i, mu), gens in out["detail"].items():
        lam_in, lam_out = localcohom.cohomology_strands(res, mu)[i]
        target = lam_in.generic_rank()[0] + lam_out.generic_rank()[0]
        ref = pair_locus(lam_in, lam_out, target, ring)
        assert same_locus([ring.poly(g) for g in gens], ref, ring), (i, mu)


@pytest.mark.parametrize("name", sorted(UNSPLIT_CASES))
def test_a_base_without_its_components_is_stratified_whole(name):
    # a point is on the locus where the closures of two cells with
    # different Hilbert functions meet; declaring the components, the
    # locus is the union of theirs and has the same zeros
    ring, gens, want, comps = UNSPLIT[name]
    assert not ring.base_is_domain and not ring.minimal_primes()
    info = loci.nonfree_locus(cyclic(ring, gens))
    assert info["ideal_strings"] == want
    declared = make_ring(list(ring.xnames), [1] * ring.nx, params=list(ring.znames),
                         relations=[str(v.component(0)) for v in ring.base_basis()],
                         minimal_primes=comps, field=ring.field)
    ref = loci.nonfree_locus(cyclic(declared, gens))["ideal"]
    assert same_locus(info["ideal"], ref, ring)


def test_cmd_loci_over_relations_without_components(tmp_path):
    # the window scan answered here; the stratification of the whole base
    # does too
    text = ("ring R base quotient(poly(QQ, s, t, u), ideal(s*t, s*u)) vars x:1 y:1;\n"
            "ideal I = (s*x, t*y);\ncmd loci I;\n")
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 0
    payload = json.loads((tmp_path / "01_loci.json").read_text())
    assert "error" not in payload, payload["error"]["message"]
    assert payload["nonfree"]["generators"] == ["s", "t"]
    assert payload["nonfree"]["coverage"] == "all degrees"


def test_a_window_compares_its_degrees_only():
    # rank_two_example jumps at t = 1 in degree 3 and above only
    info = loci.nonfree_locus(rank_two_example(), window=[(0,), (1,), (2,)])
    assert info["is_empty"] and info["coverage"] == [(0,), (1,), (2,)]
    info = loci.nonfree_locus(rank_two_example(), window=[(3,)])
    assert info["ideal_strings"] == ["t - 1"]


# -- harness samples off the jump locus ----------------------------------------


def harness_payload(text, seed, tmp_path):
    assert cli.run(script.parse(text), seed=seed, out_dir=str(tmp_path)) == 0
    (path,) = tmp_path.glob("*_harness.json")
    return json.loads(path.read_text())


def assert_two_distinct_samples_agree(payload):
    points = [tuple(sorted(row["point"]["values"].items()))
              for comp in payload["components"].values() for row in comp["samples"]]
    assert len(points) == len(set(points)) == 2
    assert payload["locally_constant"] is True


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name", ["loci_katzman", "loci_ladder"])
def test_harness_samples_off_its_jump_locus(name, seed, tmp_path):
    # samples with s = 0 or t = 0 lie on the reported jump locus, and
    # once read these families as not locally constant
    text = (SCRIPTS / (name + ".gf")).read_text(encoding="utf-8")
    assert_two_distinct_samples_agree(harness_payload(text, seed, tmp_path))


@pytest.mark.parametrize("seed", range(8))
def test_harness_never_repeats_a_point(seed, tmp_path):
    # the cubic family jumps at t = 1, which the CLI default seed drew twice
    text = ("ring R base poly(QQ, t) vars a:1 b:1 c:1 d:1;\n"
            "ideal C = (a*c - b^2, a*d - t*b*c, b*d - c^2);\n"
            "cmd harness C window [-2, 2];\n")
    payload = harness_payload(text, seed, tmp_path)
    assert payload["jump_locus"]["radical"] == ["t - 1"]
    assert_two_distinct_samples_agree(payload)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="known defect: the harness jump locus leaves out the points "
                          "where the generic resolution does not specialize")
def test_every_harness_sample_off_the_jump_locus_matches_the_generic_table(tmp_path):
    # A of golden loci_jumps: the jump locus reads (s, t), yet the sample
    # (s, t) = (-2, 0), off it, reads [H^1]_(-1) = 1 against 4 generically
    text = ("ring R base poly(QQ, s, t) vars x:1 y:1 z:1;\n"
            "ideal A = (x^2, s*x*y + t*y^2);\ncmd harness A window [-1, 2];\n")
    payload = harness_payload(text, 0, tmp_path)
    ring = make_ring(["x", "y", "z"], [1, 1, 1], params=["s", "t"])
    locus = [ring.poly(g) for g in payload["jump_locus"]["generators"]]
    off = []
    for comp in payload["components"].values():
        for row in comp["samples"]:
            values = {z: Fraction(v) for z, v in row["point"]["values"].items()}
            point = FiberPoint.rational(ring, values)
            if any(point.evaluate_scalar(g) for g in locus):
                off.append(row["match"])
    assert off and all(off)
