"""Local cohomology tables, duality cross-checks, numeric invariants.

Oracle values: H^r of the ring itself is the inverse-monomial module,
so its strand dimensions are pure counting; small quotients were worked
out by hand from Koszul complexes and checked against duality.
"""

import random

import pytest

from gradedfibers.errors import AlgebraError, DualityMismatch
from gradedfibers.modules import FreeModule, FreeMap, Presentation
from gradedfibers.rings import PrimeField, Ring, make_ring
from gradedfibers import groebner, localcohom, loci, resolution, specialize, strands


R2 = make_ring(["x", "y"], [1, 1])
R3 = make_ring(["x", "y", "z"], [1, 1, 1])


def free_rank_one(ring):
    return Presentation(FreeMap.from_columns(FreeModule(ring, [(0,)]), []))


def table_dict(pres, degrees, **kw):
    return dict(localcohom.local_cohomology_table(pres, degrees, **kw).dims)


def test_polynomial_ring_top_cohomology():
    degrees = [(d,) for d in range(-5, 1)]
    dims = table_dict(free_rank_one(R2), degrees)
    for d in range(-5, 1):
        assert dims[(0, (d,))] == 0
        assert dims[(1, (d,))] == 0
        # x^-i y^-j with i + j = -d, i, j >= 1
        assert dims[(2, (d,))] == max(-d - 1, 0)


def test_three_variable_top_count():
    dims = table_dict(free_rank_one(R3), [(-4,)])
    # solutions of i + j + k = 4 with i, j, k >= 1
    assert dims[(3, (-4,))] == 3
    assert dims[(2, (-4,))] == 0


def test_residue_field_h0():
    pres = Presentation.cyclic(R2, [R2.poly("x"), R2.poly("y")])
    dims = table_dict(pres, [(0,), (1,), (-1,)])
    assert dims[(0, (0,))] == 1
    assert dims[(0, (1,))] == 0
    assert dims[(1, (0,))] == 0
    assert dims[(2, (0,))] == 0


def test_hypersurface_table():
    # R/(x): polynomial ring in y, so H^1 is its inverse monomials
    pres = Presentation.cyclic(R2, [R2.poly("x")])
    dims = table_dict(pres, [(d,) for d in range(-3, 2)])
    for d in range(-3, 2):
        assert dims[(0, (d,))] == 0
        assert dims[(1, (d,))] == (1 if d <= -1 else 0)
        assert dims[(2, (d,))] == 0


def test_invariants_of_polynomial_ring():
    inv = localcohom.cohomology_invariants(free_rank_one(R2))
    assert inv["dimension"] == 2
    assert inv["depth"] == 2
    assert inv["regularity"] == 0
    assert inv["top_degrees"] == {0: None, 1: None, 2: -2}


def test_invariants_of_cm_quotient():
    pres = Presentation.cyclic(R2, [R2.poly("x^2")])
    inv = localcohom.cohomology_invariants(pres)
    assert inv["dimension"] == 1
    assert inv["depth"] == 1
    # H^1(R/x^2) = inverse monomials shifted by the degree of x^2
    assert inv["top_degrees"][1] == 0
    assert inv["regularity"] == 1


def test_invariants_of_non_cm_module():
    # R/(x^2, xy): depth 0 (x is a socle-ish element), dimension 1
    pres = Presentation.cyclic(R2, [R2.poly("x^2"), R2.poly("x*y")])
    inv = localcohom.cohomology_invariants(pres)
    assert inv["dimension"] == 1
    assert inv["depth"] == 0


def test_grothendieck_vanishing_random():
    rng = random.Random(31)
    monos = (R2.monomials_of_degree((1,)) + R2.monomials_of_degree((2,))
             + R2.monomials_of_degree((3,)))
    for _ in range(15):
        gens = [R2.monomial(rng.choice(monos)) for _ in range(rng.randint(1, 3))]
        pres = Presentation.cyclic(R2, gens)
        inv = localcohom.cohomology_invariants(pres)
        d, dep = inv["dimension"], inv["depth"]
        assert 0 <= dep <= d <= 2
        for i, top in inv["top_degrees"].items():
            if i < dep or i > d:
                assert top is None
        assert inv["top_degrees"][dep] is not None
        assert inv["top_degrees"][d] is not None


def test_route_a_equals_route_b_randomized():
    rng = random.Random(32)
    monos2 = R2.monomials_of_degree((2,))
    for _ in range(10):
        k = rng.randint(1, 3)
        gens = [R2.monomial(rng.choice(monos2)) for _ in range(k)]
        if rng.random() < 0.5:  # binomial flavor
            a, b = rng.sample(monos2, 2)
            gens.append(R2.monomial(a) - R2.monomial(b))
        pres = Presentation.cyclic(R2, gens)
        res = pres.resolution()
        for d in range(-4, 3):
            a_dims, _ = localcohom.route_dims_at_degree(res, (d,))
            b_dims = localcohom.duality_dims_at_degree(res, (d,))
            assert a_dims == b_dims, (gens, d)


def test_cross_check_runs_inside_table():
    pres = Presentation.cyclic(R2, [R2.poly("x^2 - y^2"), R2.poly("x*y")])
    tab = localcohom.local_cohomology_table(pres, [(d,) for d in range(0, 3)])
    # Artinian complete intersection: H^0 is everything, Hilbert series 1, 2, 1
    assert tab.dims[(0, (0,))] == 1
    assert tab.dims[(0, (1,))] == 2
    assert tab.dims[(0, (2,))] == 1
    assert sum(d for (i, _), d in tab.dims.items() if i > 0) == 0


def test_duality_routes_share_the_resolution(monkeypatch):
    # the strand route and the duality cross-check read one complex, and
    # the invariants resolve once too
    seen = []
    real = resolution.free_resolution

    def spy(pres, length):
        seen.append(pres)
        return real(pres, length)

    monkeypatch.setattr(resolution, "free_resolution", spy)
    pres = Presentation.cyclic(R2, [R2.poly("x^2"), R2.poly("x*y")])
    localcohom.local_cohomology_table(pres, [(0,), (1,)])
    assert len(seen) == 1
    localcohom.cohomology_invariants(pres)
    assert len(seen) == 1


def test_invariants_reuse_the_ext_modules_of_a_table(monkeypatch):
    # the complex keeps the Ext numerators that the table's check read
    pres = Presentation.cyclic(R2, [R2.poly("x^2"), R2.poly("x*y")])
    localcohom.local_cohomology_table(pres, [(0,), (1,)])

    def rebuilt(*args, **kwargs):
        raise AssertionError("invariants rebuilt an Ext module or its basis")

    monkeypatch.setattr(resolution, "_ext_at", rebuilt)
    monkeypatch.setattr(groebner, "module_gb", rebuilt)
    monkeypatch.setattr(groebner, "_graph_kernel", rebuilt)
    inv = localcohom.cohomology_invariants(pres)
    assert (inv["dimension"], inv["depth"]) == (1, 0)


def invariants_by_presentations(pres):
    """The invariants as the Ext presentations give them: H^i vanishes
    when Ext^{r-i}'s relations hold every generator, and its top degree
    is minus the least generator degree of a minimal presentation."""
    ring = pres.ring
    r = ring.nx
    twist = tuple(-a for a in ring.canonical_twist())
    exts = resolution.ext_presentations(pres.resolution(), twist)
    tops = {}
    for i in range(r + 1):
        ext = exts[r - i]
        f0 = ext.gens_module
        if all(ext.gb().contains(f0.basis_vector(k)) for k in range(f0.rank)):
            tops[i] = None
            continue
        degs = resolution.minimal_presentation(ext).gens_module.shifts
        tops[i] = -min(s[0] for s in degs)
    alive = [i for i in range(r + 1) if tops[i] is not None]
    return {
        "top_degrees": tops,
        "dimension": max(alive) if alive else -1,
        "depth": min(alive) if alive else None,
        "regularity": max(tops[i] + i for i in alive) if alive else None,
    }


def random_form(ring, deg, rng, terms):
    p = ring.zero()
    for m in rng.sample(ring.monomials_of_degree((deg,)), terms):
        p = p + ring.monomial(m) * ring.constant(rng.randint(-3, 3) or 1)
    return p


def random_presentation(ring, rng):
    """An ideal quotient or a rank-two module with shifts 0 and 1, each
    relation of two or three terms in degree at most 3."""
    if rng.random() < 0.5:
        return Presentation.cyclic(
            ring, [random_form(ring, rng.randint(1, 3), rng, rng.randint(1, 2))
                   for _ in range(rng.randint(1, 3))])
    f0 = FreeModule(ring, [(0,), (1,)])
    cols = []
    for _ in range(rng.randint(1, 3)):
        d = rng.randint(2, 3)
        cols.append(f0.element([random_form(ring, d, rng, rng.randint(1, 2)),
                                random_form(ring, d - 1, rng, 1)]))
    return Presentation(FreeMap.from_columns(f0, cols))


@pytest.mark.parametrize("field", [{}, {"field": PrimeField(32003)}], ids=["qq", "gf"])
def test_ext_numerators_match_the_ext_presentations(field):
    rng = random.Random(2202)
    rings = [make_ring(["x", "y", "z", "w"][:n], [1] * n, **field) for n in (2, 3, 4)]
    for case in range(15):
        ring = rings[case % 3]
        pres = random_presentation(ring, rng)
        res = pres.resolution()
        for twist in (None, tuple(-a for a in ring.canonical_twist())):
            nums = resolution.ext_numerators(res, twist)
            exts = resolution.ext_presentations(res, twist)
            assert nums == [e.gb().hilbert_numerator() for e in exts], (case, twist)
        assert localcohom.cohomology_invariants(pres) == invariants_by_presentations(pres), case


# a bigraded field base: local cohomology is supported in (u, v)
RB = make_ring(["u", "v"], [(1, 0), (1, 0)], yvars=["x", "y"],
               ydegrees=[(0, 1), (0, 1)])
BIGRADED_DEGREES = [(-1, 2), (-1, 6), (-4, 3), (-6, 2), (0, 0), (1, -1)]


def bigraded_hypersurface():
    # R/(f) presented by f, u*f and y*f: the raw resolution carries units
    f = RB.poly("x^2*v^2 - 3*x*y*u*v + 2*y^2*u^2")
    return Presentation.cyclic(RB, [f, RB.poly("u") * f, RB.poly("y") * f])


def complex_kind(res):
    return "raw" if res.raw is None else "minimal"


def test_bigraded_table_reads_the_minimal_complex_and_checks_the_raw(monkeypatch):
    built, routes = [], []
    real_resolve, real_route = resolution.free_resolution, localcohom.route_dims_at_degree

    def resolve(pres, length):
        built.append(real_resolve(pres, length))
        return built[-1]

    def route(res, mu):
        routes.append(complex_kind(res))
        return real_route(res, mu)

    monkeypatch.setattr(resolution, "free_resolution", resolve)
    monkeypatch.setattr(localcohom, "route_dims_at_degree", route)
    tab = localcohom.local_cohomology_table(bigraded_hypersurface(), BIGRADED_DEGREES)
    n = len(BIGRADED_DEGREES)
    assert routes == ["minimal"] * n + ["raw"] * n
    # one resolution, whose raw form the check reads: ranks [1, 3, 3, 1]
    # against the minimal [1, 1] of the table
    assert len(built) == 1
    assert [m.rank for m in built[0].modules] == [1, 1]
    assert [m.rank for m in built[0].raw.modules] == [1, 3, 3, 1]
    # the redundant generators change nothing: the table is that of R/(f)
    plain = Presentation.cyclic(RB, [RB.poly("x^2*v^2 - 3*x*y*u*v + 2*y^2*u^2")])
    assert tab.dims == table_dict(plain, BIGRADED_DEGREES)
    assert tab.dims[(1, (-1, 2))] == 2 and tab.dims[(2, (-6, 2))] == 8


def test_bigraded_table_keeps_no_strands_on_the_raw_complex():
    # the cross check reads the raw strands once; the table's own stay
    pres = bigraded_hypersurface()
    localcohom.local_cohomology_table(pres, BIGRADED_DEGREES)
    res = pres.resolution()
    assert sorted(res.kept) == sorted(("strands", mu) for mu in BIGRADED_DEGREES)
    assert res.raw.kept == {}


@pytest.mark.parametrize("broken", ["minimal", "raw"])
def test_bigraded_cross_check_catches_an_off_by_one(broken, monkeypatch):
    real = localcohom.route_dims_at_degree

    def route(res, mu):
        dims, certs = real(res, mu)
        if complex_kind(res) == broken and mu == (-4, 3):
            dims = dict(dims)
            dims[1] += 1
        return dims, certs

    monkeypatch.setattr(localcohom, "route_dims_at_degree", route)
    with pytest.raises(DualityMismatch, match=r"H\^1 at \(-4, 3\): minimal resolution"):
        localcohom.local_cohomology_table(bigraded_hypersurface(), BIGRADED_DEGREES)


def test_duality_cross_check_catches_an_off_by_one(monkeypatch):
    # one coefficient of one Ext numerator off: the H^i it feeds disagrees
    real = resolution.ext_numerators

    def off_by_one(res, twist=None):
        nums = [dict(n) for n in real(res, twist)]
        nums[2][(0,)] = nums[2].get((0,), 0) + 1  # [Ext^2]_0 is dual to [H^0]_0
        return nums

    monkeypatch.setattr(resolution, "ext_numerators", off_by_one)
    pres = Presentation.cyclic(R2, [R2.poly("x^2"), R2.poly("x*y")])
    with pytest.raises(DualityMismatch, match=r"H\^0 at \(0,\): strand route"):
        localcohom.local_cohomology_table(pres, [(0,), (1,)])


QUARTIC = ("b*c - a*d", "c^3 - b*d^2", "a*c^2 - b^2*d", "b^3 - a^2*c")


@pytest.mark.parametrize("field", [{}, {"field": PrimeField(32003)}], ids=["qq", "gf"])
def test_quartic_reads_its_minimal_resolution(field):
    R4 = make_ring(["a", "b", "c", "d"], [1, 1, 1, 1], **field)
    res = Presentation.cyclic(R4, [R4.poly(g) for g in QUARTIC]).resolution()
    assert [m.rank for m in res.modules] == [1, 4, 4, 1]
    assert [m.rank for m in res.raw.modules] == [1, 4, 9, 15, 20, 22]
    if not field:  # the raw route over QQ, as the quartic_qq golden has it
        for d in range(-4, 5):
            assert (localcohom.route_dims_at_degree(res, (d,))
                    == localcohom.route_dims_at_degree(res.raw, (d,))), d


def test_constant_unit_over_a_parameter_base_is_pruned():
    # coker [1, x; 0, t*y] is R/(t*y): pruning the constant unit leaves
    # its unit-free presentation's resolution, table, certificate and loci
    Rt = make_ring(["x", "y"], [1, 1], params=["t"])
    gens = FreeModule(Rt, [(0,), (0,)])
    unit = Presentation(FreeMap.from_columns(gens, [
        gens.element([Rt.one(), Rt.zero()]),
        gens.element([Rt.poly("x"), Rt.poly("t*y")])]))
    plain = Presentation.cyclic(Rt, [Rt.poly("t*y")])
    res = unit.resolution()
    assert [m.rank for m in res.raw.modules][:2] == [2, 2]
    assert ([m.shifts for m in res.modules]
            == [m.shifts for m in plain.resolution().modules])
    degrees = [(d,) for d in range(-3, 3)]
    tab_unit = localcohom.local_cohomology_table(unit, degrees)
    tab_plain = localcohom.local_cohomology_table(plain, degrees)
    assert tab_unit.dims == tab_plain.dims
    assert tab_unit.meta == tab_plain.meta
    assert tab_unit.meta["certificate"] == "t"
    jumps_unit = loci.cohomology_jump_loci(unit, degrees)
    assert jumps_unit == loci.cohomology_jump_loci(plain, degrees)
    assert [str(g) for g in jumps_unit["ideal"]] == ["t"]


def test_duality_needs_standard_single_grading():
    B = make_ring(["u"], [(1, 0)], yvars=["x"], ydegrees=[(0, 1)])
    pres = Presentation(FreeMap.from_columns(FreeModule(B, [(0, 0)]), []))
    with pytest.raises(AlgebraError):
        localcohom.cohomology_invariants(pres)


def test_table_at_rational_fiber_point():
    Rt = make_ring(["x", "y"], [1, 1], params=["t"])
    pres = Presentation.cyclic(Rt, [Rt.poly("t*x"), Rt.poly("y")])
    good = specialize.FiberPoint.rational(Rt, {"t": 1})
    bad = specialize.FiberPoint.rational(Rt, {"t": 0})
    dims_good = table_dict(pres, [(0,)], point=good)
    dims_bad = table_dict(pres, [(0,)], point=bad)
    # at t = 1 the fiber is the residue field; at t = 0 it is k[x]
    assert dims_good[(0, (0,))] == 1
    assert dims_bad[(0, (0,))] == 0
    assert dims_bad[(1, (0,))] == 0


def test_negative_dimension_is_an_error():
    # a fiber over the non-prime (t^2 - 1), built past FiberPoint.generic's
    # check, makes the strand ranks overshoot: dim [H^0]_{-1} would read -1
    Rt = make_ring(["x", "y"], [1, 1], params=["t"])
    pres = Presentation.cyclic(Rt, [Rt.poly("(t - 1)*x"), Rt.poly("y")])
    gens = [Rt.poly("t^2 - 1")]
    point = specialize.FiberPoint(Rt, "generic", prime_gens=tuple(gens),
                                  residue_ring=Rt.with_extra_relations(gens))
    with pytest.raises(AlgebraError, match="negative"):
        localcohom.local_cohomology_table(pres, [(-1,), (0,)], point=point)


def test_certificate_reported_over_parameter_base():
    Rt = make_ring(["x", "y"], [1, 1], params=["t"])
    pres = Presentation.cyclic(Rt, [Rt.poly("t*x"), Rt.poly("y")])
    tab = localcohom.local_cohomology_table(pres, [(0,), (-1,)])
    cert = tab.meta.get("certificate")
    assert cert is not None
    assert "t" in cert


def test_weighted_grading_top_count():
    # weights 1, 2: inverse monomials x^-i y^-j contribute degree -i - 2j
    W = make_ring(["x", "y"], [1, 2])
    dims = table_dict(free_rank_one(W), [(-d,) for d in range(3, 8)])
    for d in range(3, 8):
        count = len([(i, j) for i in range(1, d + 1) for j in range(1, d + 1)
                     if i + 2 * j == d])
        assert dims[(2, (-d,))] == count


def test_duality_check_builds_one_basis_per_transposed_differential(monkeypatch):
    # the twisted cubic's window [-3, 3]: the duality route reads every
    # degree off one basis per nonzero transposed differential, and
    # computes no kernel
    R4 = make_ring(["a", "b", "c", "d"], [1, 1, 1, 1])
    cubic = Presentation.cyclic(
        R4, [R4.poly(g) for g in ("a*c - b^2", "a*d - b*c", "b*d - c^2")])
    res = cubic.resolution()
    assert [m.rank for m in res.modules] == [1, 3, 2]
    built, kernels = [], []
    real_gb, real_kernel = groebner.module_gb, groebner._graph_kernel

    def spy_gb(vectors, module=None, *args, **kwargs):
        built.append(module.shifts)
        return real_gb(vectors, module, *args, **kwargs)

    def spy_kernel(*args, **kwargs):
        kernels.append(args)
        return real_kernel(*args, **kwargs)

    monkeypatch.setattr(groebner, "module_gb", spy_gb)
    monkeypatch.setattr(groebner, "_graph_kernel", spy_kernel)
    localcohom.local_cohomology_table(cubic, [(d,) for d in range(-3, 4)])
    # d_1^T and d_2^T, into F_1^* and F_2^* twisted by R(-4)
    assert built == [((2,), (2,), (2,)), ((1,), (1,))]
    assert kernels == []


def test_strands_share_the_labels_of_each_free_module(monkeypatch):
    # the twisted cubic's window [-3, 3]: the inverse strand labels of each
    # F_k, from F_-1 = 0 to F_{r+1}, are built once per degree and serve
    # both strands that border it
    R4 = make_ring(["a", "b", "c", "d"], [1, 1, 1, 1])
    cubic = Presentation.cyclic(
        R4, [R4.poly(g) for g in ("a*c - b^2", "a*d - b*c", "b*d - c^2")])
    res = cubic.resolution()
    calls = []
    real = strands.inverse_strand_basis

    def spy(module, mu):
        calls.append((module.shifts, mu))
        return real(module, mu)

    monkeypatch.setattr(strands, "inverse_strand_basis", spy)
    window = [(d,) for d in range(-3, 4)]
    localcohom.local_cohomology_table(cubic, window)
    r = R4.nx
    per_degree = [res.module(k).shifts for k in range(-1, r + 2)]
    assert calls == [(shifts, mu) for mu in window for shifts in per_degree]
    assert per_degree[1:4] == [((0,),), ((2,),) * 3, ((3,),) * 2]


def test_strand_counts_list_no_monomials(monkeypatch):
    # the twisted cubic's counts are read off Hilbert numerators and
    # counts of monomials, and list none; a fresh ring has no monomial
    # list cached
    R4 = make_ring(["a", "b", "c", "d"], [1, 1, 1, 1])
    cubic = Presentation.cyclic(
        R4, [R4.poly(g) for g in ("a*c - b^2", "a*d - b*c", "b*d - c^2")])
    res = cubic.resolution()
    gb = cubic.gb()

    def listed(self, degvecs, target):
        raise AssertionError("listed the monomials of degree %r" % (target,))

    monkeypatch.setattr(Ring, "_enumerate", listed)
    for d in range(-3, 6):
        # the cubic's Hilbert function is 3d + 1 from degree 0 on, and its
        # H^2 makes up the difference below
        assert groebner.quotient_strand_dim(gb, (d,)) == max(3 * d + 1, 0)
        assert groebner.submodule_strand_dim(gb, (d,)) \
            == ((d + 3) * (d + 2) * (d + 1) // 6 - 3 * d - 1 if d >= 0 else 0)
        assert localcohom.duality_dims_at_degree(res, (d,)) \
            == {0: 0, 1: 0, 2: max(-3 * d - 1, 0), 3: 0, 4: 0}
