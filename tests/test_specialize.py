"""Fiber points and the specialization of symmetric and Rees powers."""

import random
from itertools import combinations_with_replacement

import pytest

from gradedfibers.errors import (AlgebraError, InvalidFiber, NotOnVariety,
                                 ShiftTooSmall, ZeroModule)
from gradedfibers.modules import FreeModule, FreeMap, Presentation
from gradedfibers.rings import make_ring
from gradedfibers import groebner, specialize, strands
from gradedfibers.specialize import FiberPoint


R = make_ring(["x", "y"], [1, 1])
Rt = make_ring(["x", "y"], [1, 1], params=["t"])


def cyclic(ring, gens):
    return Presentation.cyclic(ring, [ring.poly(g) for g in gens])


def maximal_ideal_module(ring):
    # m = (x, y) presented as a module: two degree-1 generators, Koszul relation
    gens = FreeModule(ring, [(1,), (1,)])
    col = gens.element([ring.poly("-y"), ring.poly("x")])
    return Presentation(FreeMap.from_columns(gens, [col]))


def test_rational_point_validation():
    with pytest.raises(InvalidFiber):
        FiberPoint.rational(Rt, {})
    with pytest.raises(InvalidFiber):
        FiberPoint.rational(Rt, [1, 2])
    Az = make_ring(["x"], [1], params=["z"], relations=["z^2 - z"])
    with pytest.raises(NotOnVariety):
        FiberPoint.rational(Az, {"z": 2})
    FiberPoint.rational(Az, {"z": 0})
    FiberPoint.rational(Az, {"z": 1})


def test_rational_evaluation():
    pt = FiberPoint.rational(Rt, {"t": 2})
    p = Rt.poly("t^2*x - t*x + 3*y")
    fib = pt.fiber_ring(Rt)
    assert pt.evaluate(p) == fib.poly("2*x + 3*y")
    assert pt.evaluate_scalar(Rt.poly("t^2 - t")) == Rt.field.coerce(2)
    with pytest.raises(AlgebraError):
        pt.evaluate_scalar(Rt.poly("x"))


def test_generic_point_needs_one_irreducible_generator():
    # t^2 - 1 and t^2 cut out no prime: reject them instead of trusting them
    for gen in ("t^2 - 1", "t^2", "3"):
        with pytest.raises(InvalidFiber):
            FiberPoint.generic(Rt, [gen])
    assert FiberPoint.generic(Rt, ["2*t - 2"]).residue_ring.base_is_domain


def test_generic_point_evaluation():
    pt = FiberPoint.generic(Rt, ["t - 1"])
    fib = pt.fiber_ring(Rt)
    assert pt.evaluate(Rt.poly("t*x")) == fib.poly("x")
    with pytest.raises(AlgebraError):
        pt.evaluate_scalar(Rt.poly("t"))


def test_sample_rational_point():
    rng = random.Random(5)
    for _ in range(10):
        pt = specialize.sample_rational_point(Rt, rng, avoid=[Rt.poly("t")])
        assert pt.evaluate_scalar(Rt.poly("t"))
    pt = specialize.sample_rational_point(Rt, rng, on=[Rt.poly("t - 1")])
    assert not pt.evaluate_scalar(Rt.poly("t - 1"))


def test_beta_values():
    assert specialize.beta(cyclic(R, ["x", "y"])) == 0
    assert specialize.beta(maximal_ideal_module(R)) == 1
    vecs = [FreeModule(R, [(0,)]).element([R.poly(g)])
            for g in ("x^2", "x*y", "y^3")]
    pres, _incl = groebner.presentation_of_submodule(vecs)
    assert specialize.beta(pres) == 3
    with pytest.raises(ZeroModule):
        specialize.beta(cyclic(R, ["1"]))


def test_sym_data_of_maximal_ideal():
    sym = specialize.sym_data(maximal_ideal_module(R))
    assert sym.b == 1
    assert sym.gen_degrees == [1, 1]
    assert len(sym.ideal_gens) == 1
    expected = sym.ring.poly("x*Y1 - y*Y0")
    g = sym.ideal_gens[0]
    assert (g - expected).is_zero() or (g + expected).is_zero()
    with pytest.raises(ShiftTooSmall):
        specialize.sym_data(maximal_ideal_module(R), b=0)


def test_power_strand_dims_of_maximal_ideal():
    # m is generated by a regular sequence, so Sym^k(m) = m^k
    sym = specialize.sym_data(maximal_ideal_module(R))
    dim, cert = specialize.power_strand_dim(sym, 2, 2)
    assert dim == 3
    assert cert.constant_value() is not None
    assert specialize.power_strand_dim(sym, 2, 3)[0] == 4
    assert specialize.power_strand_dim(sym, 3, 3)[0] == 4


def sym_power_dim_oracle(pres, k, d):
    """dim [Sym^k M]_d from the induced presentation of Sym^k itself.

    Sym^k(coker phi) = coker(phi tensor Sym^(k-1) F), assembled directly
    over the singly graded ring; no bigraded machinery involved.
    """
    import gradedfibers.resolution as resolution

    pres = resolution.minimal_presentation(pres)
    ring = pres.ring
    s = pres.ngens
    mus = [sh[0] for sh in pres.gens_module.shifts]
    basis = list(combinations_with_replacement(range(s), k))
    index = {alpha: i for i, alpha in enumerate(basis)}
    target = FreeModule(ring, [(sum(mus[i] for i in alpha),) for alpha in basis])
    cols = []
    for col in pres.relations.cols:
        for gamma in combinations_with_replacement(range(s), k - 1):
            comps = [ring.zero()] * len(basis)
            for i in range(s):
                entry = col.component(i)
                if entry.is_zero():
                    continue
                slot = index[tuple(sorted(gamma + (i,)))]
                comps[slot] = comps[slot] + entry
            vec = target.element(comps)
            if not vec.is_zero():
                cols.append(vec)
    total = len(strands.strand_basis(target, (d,)))
    if not cols:
        return total
    sm = strands.strand_matrix(FreeMap.from_columns(target, cols), (d,))
    rank, _ = sm.generic_rank()
    return total - rank


def test_shift_identity_small():
    # dim[Sym(M(b))]_(j,k) = dim[Sym^k(M)]_(j + k b), both sides independent
    pres = maximal_ideal_module(R)
    sym = specialize.sym_data(pres)
    for k in range(1, 4):
        for j in range(-1, 3):
            d = j + k * sym.b
            left = specialize.power_strand_dim(sym, k, d)[0]
            right = sym_power_dim_oracle(pres, k, d)
            assert left == right, (k, j)


def test_rees_ideal_of_regular_sequence():
    rid = specialize.rees_data_for_ideal(R, [R.poly("x"), R.poly("y")])
    assert groebner.ideal_equal(rid.ideal_gens, [rid.ring.poly("x*Y1 - y*Y0")],
                                ring=rid.ring)


def test_rees_ideal_of_squares():
    gens = [R.poly(g) for g in ("x^2", "x*y", "y^2")]
    rsq = specialize.rees_data_for_ideal(R, gens)
    B = rsq.ring
    expected = [B.poly("y*Y0 - x*Y1"), B.poly("y*Y1 - x*Y2"),
                B.poly("Y0*Y2 - Y1^2")]
    assert groebner.ideal_equal(rsq.ideal_gens, expected, ring=B)
    # I^k = m^2k, so its degree-2k strand has dimension 2k + 1
    for k in (1, 2, 3):
        assert specialize.power_strand_dim(rsq, k, 2 * k)[0] == 2 * k + 1
    # the symmetric algebra of the module misses the quadric Y0 Y2 - Y1^2
    vecs = [FreeModule(R, [(0,)]).element([g]) for g in gens]
    pres, _incl = groebner.presentation_of_submodule(vecs)
    sym = specialize.sym_data(pres, b=2)
    assert specialize.power_strand_dim(sym, 2, 4)[0] == 6


def test_rees_ideal_of_cubics_contains_hankel_minors():
    gens = [R.poly(g) for g in ("x^3", "x^2*y", "x*y^2", "y^3")]
    rid = specialize.rees_data_for_ideal(R, gens)
    B = rid.ring
    gb = groebner.ideal_gb(rid.ideal_gens, ring=B)
    for m in ("Y0*Y2 - Y1^2", "Y0*Y3 - Y1*Y2", "Y1*Y3 - Y2^2"):
        assert groebner.ideal_contains(gb, B.poly(m))


def test_specialize_power_at_fibers():
    bundle = specialize.rees_powers(["t*x", "y"], ring=Rt)
    assert bundle.kind == "ideal"
    assert bundle.b == 1
    pt0 = FiberPoint.rational(Rt, {"t": 0})
    pt1 = FiberPoint.rational(Rt, {"t": 1})

    def image_dim(k, deg, pt):
        module, vectors = bundle.power_vectors(k, pt)
        if not vectors:
            return 0
        gb = groebner.module_gb(vectors, module)
        return groebner.submodule_strand_dim(gb, (deg,), generic=False)

    # t x evaluates to zero at t = 0: the image keeps only (y)
    assert image_dim(1, 1, pt0) == 1
    assert image_dim(1, 1, pt1) == 2
    assert image_dim(2, 2, pt0) == 1
    assert image_dim(2, 2, pt1) == 3
    pres0 = specialize.specialize_power(bundle, 1, pt0)
    assert pres0.ngens == 1
    # the tensor-side count does not drop: Sym commutes with base change
    assert specialize.power_strand_dim(bundle.sym, 1, 1, point=pt0) == 2


def test_agreement_certificate_locates_bad_fiber():
    bundle = specialize.rees_powers(["t*x", "y"], ring=Rt)
    out = specialize.generic_agreement_certificate(bundle, [1, 2], [(1,), (2,), (3,)])
    cert = out["certificate"]
    pt0 = FiberPoint.rational(Rt, {"t": 0})
    assert not pt0.evaluate_scalar(cert)
    assert FiberPoint.rational(Rt, {"t": 3}).evaluate_scalar(cert)
    assert out["agrees"] is True
    assert out["counterexamples"] == []
    assert out["generic_dims"][(1, (1,))] == 2

    shifted = specialize.rees_powers(["(t - 1)*x^2", "x*y"], ring=Rt)
    out2 = specialize.generic_agreement_certificate(shifted, [1, 2], [(2,), (3,), (4,)])
    pt1 = FiberPoint.rational(Rt, {"t": 1})
    assert not pt1.evaluate_scalar(out2["certificate"])
    assert out2["agrees"] is True


def test_constant_coefficients_have_unit_certificate():
    bundle = specialize.rees_powers(["x", "y"], ring=Rt)
    out = specialize.generic_agreement_certificate(bundle, [1, 2], [(1,), (2,)])
    assert out["certificate"].constant_value() is not None
    assert out["agrees"] is True


def test_module_powers_drop_torsion():
    # M = R/(x) + m: the cyclic summand is torsion and must not survive
    gens = FreeModule(R, [(0,), (1,), (1,)])
    cols = [gens.element([R.poly("x"), R.zero(), R.zero()]),
            gens.element([R.zero(), R.poly("-y"), R.poly("x")])]
    pres = Presentation(FreeMap.from_columns(gens, cols))
    bundle = specialize.rees_powers(pres)
    assert bundle.kind == "module"
    assert bundle.tf.ngens == 2
    module, vectors = bundle.power_vectors(2)
    assert len(vectors) == 3
    gb = groebner.module_gb(vectors, module)
    # strand dims of m^2 relative to the embedding shift
    w = module.shifts[0][0] // 2 if module.shifts else 0
    base = 2 + 2 * w
    dims = [groebner.submodule_strand_dim(gb, (base + i,), generic=False)
            for i in range(3)]
    assert dims == [3, 4, 5]


def test_power_zero_and_one():
    bundle = specialize.rees_powers(["x^2", "x*y", "y^2"], ring=R)
    module0, vectors0 = bundle.power_vectors(0)
    assert module0.rank == 1 and len(vectors0) == 1
    assert vectors0[0].component(0).constant_value() is not None
    module1, vectors1 = bundle.power_vectors(1)
    assert len(vectors1) == 3
    pres1 = specialize.specialize_power(bundle, 1,
                                        FiberPoint.rational(R, {}))
    torsion_gens, _quot = groebner.torsion_submodule(pres1)
    assert torsion_gens == []


def test_embedding_independence_of_dims():
    gens = FreeModule(R, [(1,), (1,)])
    col = gens.element([R.poly("-y"), R.poly("x")])
    pres = Presentation(FreeMap.from_columns(gens, [col]))
    dims = []
    for seed in (0, 7):
        bundle = specialize.rees_powers(pres, seed=seed)
        module, vectors = bundle.power_vectors(2)
        gb = groebner.module_gb(vectors, module)
        w = module.shifts[0][0] - 2 if module.shifts else 0
        dims.append([groebner.submodule_strand_dim(gb, (2 + w + i,), generic=False)
                     for i in range(4)])
    assert dims[0] == dims[1]


def test_evaluate_presentation_changes_strand():
    pres = cyclic(Rt, ["t*x", "y"])
    pt0 = FiberPoint.rational(Rt, {"t": 0})
    ev = specialize.evaluate_presentation(pres, pt0)
    cols = [c for c in ev.relations.cols if not c.is_zero()]
    gb = groebner.module_gb(cols, ev.gens_module)
    # at t = 0 the quotient is k[x]: one dimension in each degree
    assert groebner.quotient_strand_dim(gb, (1,)) == 1
    assert groebner.quotient_strand_dim(gb, (4,)) == 1
