"""Fiber points and the specialization of Rees powers."""

import itertools
import json
import math
import random

import pytest

from gradedfibers.errors import AlgebraError, InvalidFiber, NotOnVariety
from gradedfibers.modules import FreeModule, FreeMap, Presentation
from gradedfibers.rings import PrimeField, make_ring
from gradedfibers import cli, groebner, script, specialize
from gradedfibers.specialize import FiberPoint


R = make_ring(["x", "y"], [1, 1])
Rt = make_ring(["x", "y"], [1, 1], params=["t"])
Rt_gf = make_ring(["x", "y"], [1, 1], params=["t"], field=PrimeField(32003))


def cyclic(ring, gens):
    return Presentation.cyclic(ring, [ring.poly(g) for g in gens])


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


@pytest.mark.parametrize("name", ["QQ[t]", "GF(32003)[t]", "cusp"])
def test_scalar_evaluation_is_a_ring_map_at_rational_points(name):
    # at t = a, or at (s, t) = (a^3, a^2) on the cusp, a parameter poly
    # takes the value of its terms with those numbers substituted, and
    # evaluate_scalar is additive and multiplicative there
    ring = {"QQ[t]": Rt, "GF(32003)[t]": Rt_gf, "cusp": CUSP}[name]
    coerce = ring.field.coerce
    rng = random.Random(29)
    for a in (-2, -1, 0, 1, 3, 181):
        coords = [a ** 3, a ** 2] if name == "cusp" else [a]
        pt = FiberPoint.rational(ring, coords)
        zpad = (0,) * ring.ngraded
        for _ in range(8):
            f, g = (sum((ring.monomial(zpad + tuple(rng.randint(0, 9) for _ in coords),
                                       rng.randint(-4, 4)) for _ in range(3)), ring.zero())
                    for _ in range(2))
            value = sum((c * coerce(math.prod(v ** k for v, k in zip(coords, e[len(zpad):])))
                         for e, c in f.terms.items()), ring.field.zero)
            assert pt.evaluate_scalar(f) == value
            assert pt.evaluate_scalar(f * g) == pt.evaluate_scalar(f) * pt.evaluate_scalar(g)
            assert pt.evaluate_scalar(f + g) == pt.evaluate_scalar(f) + pt.evaluate_scalar(g)


def test_generic_point_needs_one_irreducible_generator():
    # t^2 - 1 and t^2 cut out no prime: reject them instead of trusting them
    for gen in ("t^2 - 1", "t^2", "3"):
        with pytest.raises(InvalidFiber):
            FiberPoint.generic(Rt, [gen])
    assert FiberPoint.generic(Rt, ["2*t - 2"]).residue_ring.base_is_domain


def test_generic_point_of_a_domain_base_at_its_own_prime():
    # the one minimal prime of a domain base lies in its relations, so
    # reduced it reads 0; it still cuts out a prime, the whole base
    for params, rel in ((["s", "t"], "s^2 - t^3"), (["t"], "t^2 + 1")):
        A = make_ring(["x", "y"], [1, 1], params=params, relations=[rel])
        (prime,) = A.minimal_primes()
        assert FiberPoint.generic(A, list(prime)).residue_ring.base_is_domain
    # off the relations a reducible generator still cuts out no prime
    A = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"])
    with pytest.raises(InvalidFiber):
        FiberPoint.generic(A, ["s*t"])
    # on a base that is no domain the relations cut out no prime either
    B = make_ring(["x"], [1], params=["t"], relations=["t^2 - t"])
    with pytest.raises(InvalidFiber):
        FiberPoint.generic(B, ["t^2 - t"])


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


def test_specialize_power_at_fibers():
    bundle = specialize.rees_powers(["t*x", "y"], ring=Rt)
    assert bundle.embedding.target.rank == 1  # an ideal embeds in R itself
    assert bundle.b == 1
    pt0 = FiberPoint.rational(Rt, {"t": 0})
    pt1 = FiberPoint.rational(Rt, {"t": 1})

    def image_dim(k, deg, pt):
        module, vectors = bundle.power_vectors(k, pt)
        if not vectors:
            return 0
        gb = groebner.module_gb(vectors, module)
        return groebner.submodule_strand_dim(gb, (deg,))

    # t x evaluates to zero at t = 0: the image keeps only (y)
    assert image_dim(1, 1, pt0) == 1
    assert image_dim(1, 1, pt1) == 2
    assert image_dim(2, 2, pt0) == 1
    assert image_dim(2, 2, pt1) == 3


def powers_module():
    # module_powers: coker [x^2, x*y; t*x, y] with shifts (0, 1) over QQ[t]
    gens = FreeModule(Rt, [(0,), (1,)])
    cols = [gens.element([Rt.poly("x^2"), Rt.poly("t*x")]),
            gens.element([Rt.poly("x*y"), Rt.poly("y")])]
    return Presentation(FreeMap.from_columns(gens, cols))


CUSP = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"])


def check_certificate(bundle, kmax):
    """The certificate of powers 0..kmax on the five degrees from b * kmax
    on, as `specialize` asks them.  It covers every degree of each listed
    power: seeded points off it read the generic dimensions on the asked
    degrees and on five degrees past them."""
    ks = list(range(kmax + 1))
    asked = [(d,) for d in range(bundle.b * kmax, bundle.b * kmax + 5)]
    wide = asked + [(d,) for d in range(bundle.b * kmax + 5, bundle.b * kmax + 10)]
    out = specialize.generic_agreement_certificate(bundle, ks, asked)
    cert = out["certificate"]
    wide_out = specialize.generic_agreement_certificate(bundle, ks, wide)
    assert wide_out["certificate"] == cert
    assert {key: wide_out["generic_dims"][key] for key in out["generic_dims"]} \
        == out["generic_dims"]
    rng = random.Random(3)
    drawn = set()
    for _ in range(3):
        try:
            point = specialize.sample_rational_point(
                bundle.ring, rng, avoid=[cert], reject=lambda pt: pt.values in drawn)
        except InvalidFiber:
            break
        drawn.add(point.values)
        assert specialize.power_dims_at(bundle, ks, wide, point) == wide_out["generic_dims"]
    assert len(drawn) >= 2
    return cert


# (bundle, highest power, certificate)
POWER_CASES = {
    "t*x, y": (lambda: specialize.rees_powers(["t*x", "y"], ring=Rt), 3, "t"),
    "(t - 1)*x^2, x*y": (lambda: specialize.rees_powers(["(t - 1)*x^2", "x*y"], ring=Rt),
                         2, "t - 1"),
    "module_powers": (lambda: specialize.rees_powers(powers_module()), 2, "1"),
    "quotient_qq cusp": (lambda: specialize.rees_powers(["x^2", "s*x*y", "t*y^2"], ring=CUSP),
                         2, "s*t"),
}


@pytest.mark.parametrize("name", sorted(POWER_CASES))
def test_certificate_holds_past_the_asked_degrees(name):
    make, kmax, want = POWER_CASES[name]
    assert str(check_certificate(make(), kmax)) == want


def test_agreement_certificate_locates_bad_fiber():
    # t*x evaluates to zero at t = 0, where the certificate vanishes and
    # the first power drops to (y)
    bundle = specialize.rees_powers(["t*x", "y"], ring=Rt)
    out = specialize.generic_agreement_certificate(bundle, [1, 2], [(1,), (2,), (3,)])
    pt0 = FiberPoint.rational(Rt, {"t": 0})
    assert not pt0.evaluate_scalar(out["certificate"])
    assert out["generic_dims"][(1, (1,))] == 2
    assert specialize.power_dims_at(bundle, [1], [(1,)], pt0) == {(1, (1,)): 1}


def test_constant_coefficients_have_unit_certificate():
    bundle = specialize.rees_powers(["x", "y"], ring=Rt)
    assert check_certificate(bundle, 2).constant_value() is not None


def test_module_powers_drop_torsion():
    # M = R/(x) + m: the cyclic summand is torsion and must not survive
    gens = FreeModule(R, [(0,), (1,), (1,)])
    cols = [gens.element([R.poly("x"), R.zero(), R.zero()]),
            gens.element([R.zero(), R.poly("-y"), R.poly("x")])]
    pres = Presentation(FreeMap.from_columns(gens, cols))
    bundle = specialize.rees_powers(pres)
    assert bundle.embedding.source.rank == 2  # the generators of the quotient m
    assert bundle.b == 1
    module, vectors = bundle.power_vectors(2)
    assert len(vectors) == 3
    gb = groebner.module_gb(vectors, module)
    # strand dims of m^2 relative to the embedding shift
    w = module.shifts[0][0] // 2 if module.shifts else 0
    base = 2 + 2 * w
    dims = [groebner.submodule_strand_dim(gb, (base + i,))
            for i in range(3)]
    assert dims == [3, 4, 5]


def test_power_zero_and_one():
    bundle = specialize.rees_powers(["x^2", "x*y", "y^2"], ring=R)
    module0, vectors0 = bundle.power_vectors(0)
    assert module0.rank == 1 and len(vectors0) == 1
    assert vectors0[0].component(0).constant_value() is not None
    module1, vectors1 = bundle.power_vectors(1)
    assert len(vectors1) == 3


R3 = make_ring(["x", "y", "z"], [1, 1, 1])
R3t = make_ring(["x", "y", "z"], [1, 1, 1], params=["t"])


def presentation(ring, ngens, cols):
    gens = FreeModule(ring, [ring.zero_degree()] * ngens)
    return Presentation(FreeMap.from_columns(
        gens, [gens.element([ring.poly(e) for e in col]) for col in cols]))


def test_embedding_independence_of_dims():
    # R^3/(x, y, z) has rank two and three dual generators, the Koszul
    # syzygies; two different pairs of them embed its torsion-free quotient
    pres = presentation(R3, 3, [["x", "y", "z"]])
    tf, emb = specialize._torsion_free_embedding(pres)
    bundle = specialize.PowersBundle(R3, emb)
    dual = groebner.kernel_gens(tf.relations.transpose())
    assert (len(dual), bundle.embedding.target.rank) == (3, 2)
    other = groebner._evaluation_map(tf.gens_module, dual[1:], R3)
    assert [str(c) for c in other.cols] != [str(c) for c in bundle.embedding.cols]
    assert all(tf.gb().contains(v) for v in groebner.kernel_gens(other))
    dims = []
    for b in (bundle, specialize.PowersBundle(R3, other)):
        module, vectors = b.power_vectors(2)
        gb = groebner.module_gb(vectors, module)
        w = module.shifts[0][0] - 2 if module.shifts else 0
        dims.append([groebner.submodule_strand_dim(gb, (2 + w + i,))
                     for i in range(4)])
    assert dims[0] == dims[1]


def first_injective_choice(tf):
    """The dual generators of tf, its rank ngens - rank(relations), and the
    evaluation map at the first choice of rank many dual generators, in
    itertools.combinations order, that is injective modulo the relations."""
    ring = tf.ring
    dual = groebner.kernel_gens(tf.relations.transpose())
    entries = tf.relations.entries()
    rank = tf.ngens - (groebner.matrix_rank_generic(entries, ring)[0]
                       if entries and entries[0] else 0)
    for combo in itertools.combinations(range(len(dual)), rank):
        emb = groebner._evaluation_map(tf.gens_module, [dual[i] for i in combo], ring)
        if all(tf.gb().contains(v) for v in groebner.kernel_gens(emb)):
            return dual, rank, combo, emb
    raise AssertionError("no choice of dual generators is injective")


def seeded_presentations(ring, params, seed, count=16):
    """Quotients of R^3 or R^4 by one or two columns of sparse linear forms
    drawn from a seed, some coefficients a parameter times a constant."""
    rng = random.Random(seed)
    xs = ring.names[:ring.ngraded]
    for _ in range(count):
        ngens = rng.randint(3, 4)
        cols = []
        for _c in range(rng.randint(1, 2)):
            col = []
            for _i in range(ngens):
                terms = []
                for v in rng.sample(xs, rng.randint(0, 2)):
                    c = rng.choice([1, -1, 2, 3])
                    if params and rng.random() < 0.5:
                        v = rng.choice(params) + "*" + v
                    terms.append("%d*%s" % (c, v))
                col.append(" + ".join(terms) or "0")
            cols.append(col)
        yield presentation(ring, ngens, cols)


# modules with more dual generators than rank: (ring, ngens, columns)
WIDE_DUALS = {
    "R^3/(x, y, z)": (R3, 3, [["x", "y", "z"]]),
    "R^3/(t*x, y, z)": (R3t, 3, [["t*x", "y", "z"]]),
    "R^4 by two columns": (R3, 4, [["x", "y", "z", "0"], ["0", "x", "y", "z"]]),
    "R^3 over the cusp": (CUSP, 3, [["s*x", "t*y", "x + y"]]),
}



def raw_power_vectors(bundle, k, point=None):
    """The generators of the k-th power as every power used to be built:
    each product of k embedding columns, repetition allowed, expanded in
    Sym^k of the embedding target.  The reference for the power ladder."""
    ring = bundle.ring if point is None else point.fiber_ring(bundle.ring)
    emb = bundle.embedding
    m = emb.target.rank
    cols = [[e if point is None else point.evaluate(e) for e in col.components()]
            for col in emb.cols]
    basis = list(itertools.combinations_with_replacement(range(m), k))
    shifts = []
    for alpha in basis:
        s = ring.zero_degree()
        for i in alpha:
            s = tuple(a + b for a, b in zip(s, emb.target.shifts[i]))
        shifts.append(s)
    module = FreeModule(ring, shifts)
    vectors = []
    for combo in itertools.combinations_with_replacement(range(len(cols)), k):
        state = {(): ring.one()}
        for j in combo:
            nxt = {}
            for alpha, c in state.items():
                for i, entry in enumerate(cols[j]):
                    if not entry.is_zero():
                        key = tuple(sorted(alpha + (i,)))
                        nxt[key] = nxt.get(key, ring.zero()) + c * entry
            state = {alpha: c for alpha, c in nxt.items() if not c.is_zero()}
        if state:
            vectors.append(module.element([state.get(alpha, ring.zero()) for alpha in basis]))
    return module, vectors


# (ring, parameter names, extra presentations) for the ladder's property test
LADDER_BASES = {
    "QQ": (R3, [], []),
    "GF(32003)": (make_ring(["x", "y", "z"], [1, 1, 1], field=PrimeField(32003)), [], []),
    "QQ[t]": (R3t, ["t"], [powers_module, lambda: presentation(*WIDE_DUALS["R^3/(t*x, y, z)"])]),
    "cusp": (CUSP, ["s", "t"], []),
}


@pytest.mark.parametrize("name", sorted(LADDER_BASES))
def test_the_power_ladder_matches_the_products_of_k_columns(name):
    # each power is built from the reduced bases of the power below and
    # of the first, and its reduced basis is the one the products of k
    # columns give, term for term, generically and at a rational point;
    # the QQ[t] cases add the module_powers and module_embed modules
    ring, params, extra = LADDER_BASES[name]
    rng = random.Random(41)
    cases = list(seeded_presentations(ring, params, seed=17, count=3)) + [f() for f in extra]
    ranks = set()
    for pres in cases:
        bundle = specialize.rees_powers(pres)
        ranks.add(bundle.embedding.target.rank)
        points = [None]
        if params:
            points.append(specialize.sample_rational_point(pres.ring, rng))
        for point in points:
            for k in range(4):
                module, vectors = raw_power_vectors(bundle, k, point)
                got = bundle.basis(k, point)
                assert got.module == module
                assert [v.data for v in got] \
                    == [v.data for v in groebner.module_gb(vectors, module)]
    assert max(ranks) >= 2


def test_embedding_takes_the_first_injective_dual_generators():
    cases = [presentation(*case) for case in WIDE_DUALS.values()]
    for ring, params in ((R3, []), (R3t, ["t"]), (CUSP, ["s", "t"])):
        cases += list(seeded_presentations(ring, params, seed=9))
    wide = later = 0
    for pres in cases:
        tf, emb = specialize._torsion_free_embedding(pres)
        dual, rank, combo, ref = first_injective_choice(tf)
        assert emb.target.rank == rank
        assert emb.target.shifts == ref.target.shifts
        assert [str(c) for c in emb.cols] == [str(c) for c in ref.cols]
        if len(dual) > rank:
            wide += 1
            later += combo != tuple(range(rank))
    # the fixed cases and some seeded ones have more dual generators than
    # rank, and some first choices skip a dependent dual generator
    assert wide >= len(WIDE_DUALS) + 3 and later >= 2


def test_a_dropped_pivot_is_an_internal_error(monkeypatch, tmp_path):
    rank = groebner.matrix_rank_generic

    def drop_last_pivot(entries, ring):
        r, rows, cols, minor = rank(entries, ring)
        return r - 1, rows[:-1], cols[:-1], minor

    monkeypatch.setattr(groebner, "matrix_rank_generic", drop_last_pivot)
    # one dual generator too few leaves a kernel outside the relations
    with pytest.raises(RuntimeError):
        groebner.embed_in_free(presentation(R3, 3, [["x", "y", "z"]]))
    text = ("ring R base QQ vars x:1 y:1 z:1;\nmodule E = coker [x; y; z];\n"
            "cmd specialize E power 2;\n")
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 1
    error = json.loads((tmp_path / "01_specialize.json").read_text())["error"]
    assert (error["type"], error["kind"]) == ("RuntimeError", "internal")


def test_evaluate_presentation_changes_strand():
    pres = cyclic(Rt, ["t*x", "y"])
    pt0 = FiberPoint.rational(Rt, {"t": 0})
    ev = pres.evaluate(pt0)
    cols = [c for c in ev.relations.cols if not c.is_zero()]
    gb = groebner.module_gb(cols, ev.gens_module)
    # at t = 0 the quotient is k[x]: one dimension in each degree
    assert groebner.quotient_strand_dim(gb, (1,)) == 1
    assert groebner.quotient_strand_dim(gb, (4,)) == 1


def test_zero_generators_leave_the_ideal_unchanged():
    # (0, x) and (x) are one ideal: the same bundle, powers and certificate
    zero = specialize.rees_powers(["0", "t*x", "0"], ring=Rt)
    plain = specialize.rees_powers(["t*x"], ring=Rt)
    assert zero.b == plain.b == 1
    pt0 = FiberPoint.rational(Rt, {"t": 0})
    for k in range(4):
        for point in (None, pt0):
            (mz, vz), (mp, vp) = zero.power_vectors(k, point), plain.power_vectors(k, point)
            assert mz.shifts == mp.shifts
            assert [str(v) for v in vz] == [str(v) for v in vp]
    degrees = [(1,), (2,)]
    assert specialize.generic_agreement_certificate(zero, [1, 2], degrees) \
        == specialize.generic_agreement_certificate(plain, [1, 2], degrees)
