"""Groebner engine: bases, normal forms, syzygies, ideal operations.

Property loops draw random ideals with a fixed seed; every invariant
asserted here is a consequence of the definitions, not of any chosen
basis, so the checks stay valid if internals change.  The engine runs on
ints; a textbook Buchberger in Fractions (or ModInts) below is the
reference for its reduced bases and normal forms.
"""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

import pytest

from gradedfibers.errors import AlgebraError, BaseNotDomain
from gradedfibers.modules import FreeModule, FreeMap, Presentation, Vector
from gradedfibers.rings import MonomialOrder, Poly, PrimeField, make_ring
from gradedfibers import groebner, loci, ratmap


R2 = make_ring(["x", "y"], [1, 1])
R2t = make_ring(["x", "y"], [1, 1], params=["t"])


def test_ideal_gb_known_basis():
    gb = groebner.ideal_gb([R2.poly("x^2 + y^2"), R2.poly("x*y")], ring=R2)
    leads = sorted(g.leading_monomial() for g in gb)
    # x^2, xy and the derived y^3
    assert leads == [(0, 3), (1, 1), (2, 0)]


def test_ideal_membership_and_normal_form():
    gb = groebner.ideal_gb([R2.poly("x^2"), R2.poly("y^2")], ring=R2)
    assert groebner.ideal_contains(gb, R2.poly("x^3 + x*y^2"))
    assert not groebner.ideal_contains(gb, R2.poly("x*y"))
    nf = groebner.nf_poly(R2.poly("x^2 + x*y + y^2"), gb)
    assert nf == R2.poly("x*y")


def test_ideal_equal_ignores_generator_choice():
    a = [R2.poly("x + y"), R2.poly("y")]
    b = [R2.poly("x"), R2.poly("x + y")]
    assert groebner.ideal_equal(a, b, ring=R2)
    assert not groebner.ideal_equal([R2.poly("x")], b, ring=R2)


def test_random_combinations_stay_in_ideal():
    rng = random.Random(3)
    mono2 = R2.monomials_of_degree((2,))
    for _ in range(25):
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = R2.zero()
            for m in rng.sample(mono2, rng.randint(1, 3)):
                p = p + rng.randint(-2, 2) * R2.monomial(m)
            if not p.is_zero():
                gens.append(p)
        if not gens:
            continue
        gb = groebner.ideal_gb(gens, ring=R2)
        # an explicit combination must reduce to zero
        comb = R2.zero()
        for g in gens:
            comb = comb + R2.poly("x - 2*y") * g
        assert groebner.ideal_contains(gb, comb)


def test_gb_idempotent():
    rng = random.Random(4)
    for _ in range(10):
        gens = [R2.poly(src) for src in
                rng.sample(["x^2", "x*y", "y^2", "x^2 - y^2", "x^2 + x*y"], 2)]
        gb1 = groebner.ideal_gb(gens, ring=R2)
        gb2 = groebner.ideal_gb(gb1, ring=R2)
        assert [g.terms for g in gb1] == [g.terms for g in gb2]


def test_module_gb_and_strand_dims():
    # coker [x, y] has Hilbert function 1, 1, 1, ... as R/(x... wait
    # the submodule generated by (x, y)-columns of R^1
    mod = FreeModule(R2, [(0,)])
    vecs = [mod.element([R2.poly("x")]), mod.element([R2.poly("y")])]
    gb = groebner.module_gb(vecs, mod)
    assert groebner.quotient_strand_dim(gb, (0,)) == 1
    assert groebner.quotient_strand_dim(gb, (1,)) == 0
    assert groebner.submodule_strand_dim(gb, (1,)) == 2
    assert groebner.submodule_strand_dim(gb, (2,)) == 3


def test_kernel_and_syzygies():
    # Koszul: syzygies of (x, y) are generated by (-y, x)
    mod = FreeModule(R2, [(0,)])
    vecs = [mod.element([R2.poly("x")]), mod.element([R2.poly("y")])]
    syz = groebner.kernel_gens(FreeMap.from_columns(mod, vecs, check=False))
    assert len(syz) == 1
    s = syz[0]
    assert [str(c) for c in s.components()] in (["-y", "x"], ["y", "-x"])


def test_syzygy_columns_compose_to_zero():
    rng = random.Random(5)
    mono = R2.monomials_of_degree((2,))
    for _ in range(15):
        vecs = []
        mod = FreeModule(R2, [(0,), (1,)])
        for _ in range(3):
            a = rng.choice(mono)
            b = rng.choice(R2.monomials_of_degree((1,)))
            vecs.append(mod.element([R2.monomial(a), R2.monomial(b)]))
        syz = groebner.kernel_gens(FreeMap.from_columns(mod, vecs, check=False))
        for s in syz:
            acc = mod.zero()
            for c, v in zip(s.components(), vecs):
                acc = acc + v.scale(c)
            assert acc.is_zero()


def test_preimage_gens():
    mod = FreeModule(R2, [(0,)])
    fmap = FreeMap.from_columns(mod, [mod.element([R2.poly("x^2")]),
                                      mod.element([R2.poly("x*y")])])
    pre = groebner.preimage_gens(fmap, [mod.element([R2.poly("x^2*y")])])
    # x^2*y = y * x^2 = x * xy: some preimage must exist
    assert pre
    for v in pre:
        img = fmap.apply(v)
        assert str(img.components()[0]) == "x^2*y"


def test_colon_and_saturation():
    gens = [R2.poly("x^2*y"), R2.poly("x*y^2")]
    col = groebner.colon_ideal(gens, [R2.poly("x*y")], ring=R2)
    assert groebner.ideal_equal(col, [R2.poly("x"), R2.poly("y")], ring=R2)
    # (x^2 y, x y^2) = xy*(x, y), so saturating by the irrelevant ideal
    # peels the embedded component and leaves (xy)
    sat = groebner.saturate_ideal(gens, [R2.poly("x"), R2.poly("y")], ring=R2)
    assert groebner.ideal_equal(sat, [R2.poly("x*y")], ring=R2)


def test_intersect_ideals():
    a = [R2.poly("x")]
    b = [R2.poly("y")]
    meet = groebner.intersect_ideals(a, b, R2)
    assert groebner.ideal_equal(meet, [R2.poly("x*y")], ring=R2)


def _meet_by_kernel(gens_a, gens_b, ring):
    # the graph kernel of intersect_ideals, taken with no unit shortcut
    target = FreeModule(ring, [ring.zero_degree(), ring.zero_degree()])
    cols = ([target.element([ring.one(), ring.one()])]
            + [target.element([g, ring.zero()]) for g in gens_a]
            + [target.element([ring.zero(), g]) for g in gens_b])
    meet = [v.component(0) for v in
            groebner.kernel_gens(FreeMap.from_columns(target, cols, check=False))]
    meet = [p for p in meet if not p.is_zero()]
    return groebner.ideal_gb(meet, ring=ring) if meet else []


def test_intersect_with_the_unit_ideal_skips_the_kernel(monkeypatch):
    # the unit ideal meets any ideal in that ideal: the meet is the other
    # side's reduced basis, which is what the graph kernel returns for it
    K = make_ring(["x"], [1], params=["s", "t"])
    one, zero = K.one(), K.zero()
    other = [K.poly("s^2*t - s*t"), K.poly("2*s*t^2")]
    cases = [([one], other), (other, [one]), ([K.poly("3/2"), K.poly("s")], other),
             ([one], [zero]), ([zero, one], other), ([one], [one])]
    want = [_meet_by_kernel(a, b, K) for a, b in cases]
    # a zero generator is no unit, so this pair still meets by the kernel
    with_zero = ([zero, K.poly("s")], other)
    want_zero = _meet_by_kernel(*with_zero, K)
    ran = []
    real = groebner._graph_kernel
    monkeypatch.setattr(groebner, "_graph_kernel",
                        lambda *a, **k: ran.append(a) or real(*a, **k))
    for (a, b), w in zip(cases, want):
        got = groebner.intersect_ideals(a, b, K)
        assert [g.terms for g in got] == [g.terms for g in w], (a, b)
    assert ran == []
    got = groebner.intersect_ideals(*with_zero, K)
    assert [g.terms for g in got] == [g.terms for g in want_zero]
    assert len(ran) == 1


MEET_BASES = {
    "QQ": make_ring(["x", "y", "z"], [1, 1, 1]),
    "GF(32003)": make_ring(["x", "y", "z"], [1, 1, 1], field=PrimeField(32003)),
    "QQ[t]": make_ring(["x", "y"], [1, 1], params=["t"]),
    "cusp": make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"]),
}


def _rand_form_ideal(ring, rng):
    """Two x-forms of degree 1 or 2, each of two monomials times a
    parameter (or 1) and a small integer."""
    params = [ring.one()] + [ring.var(z) for z in ring.znames]
    out = []
    for _ in range(2):
        p = ring.zero()
        for e in rng.sample(ring.monomials_of_degree((rng.randint(1, 2),)), 2):
            p = p + ring.monomial(e) * rng.choice(params) * rng.choice([1, -1, 2, -3])
        if not p.is_zero():
            out.append(p)
    return out


def _colon_by_folds(gens, others, ring):
    # (gens) : f for each f as its own preimage, the parts met pairwise
    # by the two-row kernel
    module = FreeModule(ring, [ring.zero_degree()])
    rels = [module.element([g]) for g in gens]
    acc = None
    for f in others:
        fmap = FreeMap.from_columns(module, [module.element([f])], check=False)
        part = [v.component(0) for v in groebner.preimage_gens(fmap, rels)]
        part = [p for p in part if not p.is_zero()]
        acc = part if acc is None else _meet_by_kernel(acc, part, ring)
    return groebner.ideal_gb(acc, ring=ring) if acc else []


@pytest.mark.parametrize("name", sorted(MEET_BASES))
def test_meets_and_colons_match_the_pairwise_routes(name):
    # one preimage per meet or colon gives the reduced bases of the
    # two-row kernel and of the per-element folds, term for term
    ring = MEET_BASES[name]
    rng = random.Random(5)
    checked = 0
    for _ in range(12):
        a, b = _rand_form_ideal(ring, rng), _rand_form_ideal(ring, rng)
        if not a or not b:
            continue
        got = groebner.intersect_ideals(a, b, ring)
        assert [g.terms for g in got] == [g.terms for g in _meet_by_kernel(a, b, ring)], (a, b)
        col = groebner.colon_ideal(a, b, ring)
        col = groebner.ideal_gb(col, ring=ring) if col else []
        assert [g.terms for g in col] == [g.terms for g in _colon_by_folds(a, b, ring)], (a, b)
        checked += 2
    assert checked == 24


def test_eliminate_ideal():
    # image of the 2-uple embedding: eliminate x, y from (a - x^2, b - xy, c - y^2)
    R = make_ring(["x", "y", "a", "b", "c"], [1, 1, 2, 2, 2])
    gens = [R.poly("a - x^2"), R.poly("b - x*y"), R.poly("c - y^2")]
    elim = groebner.eliminate_ideal(gens, ["x", "y"], ring=R)
    assert any(g == R.poly("b^2 - a*c") or g == R.poly("a*c - b^2") for g in elim)


def test_gb_over_parameter_base():
    gb = groebner.ideal_gb([R2t.poly("t*x - y")], ring=R2t)
    # the x-block dominates the order, so the lead term is t*x; its base
    # coefficient t is the certificate that evaluation commutes off t = 0
    (g,) = gb
    exps, coeff = g.leading_term()
    assert exps == (1, 0, 1) and coeff == 1


def test_matrix_rank_generic():
    rank, _r, _c, minor = groebner.matrix_rank_generic(
        [[R2t.poly("t"), R2t.poly("1")], [R2t.poly("t^2"), R2t.poly("t")]], R2t)
    assert rank == 1
    rank2, _r, _c, minor2 = groebner.matrix_rank_generic(
        [[R2t.poly("t"), R2t.poly("1")], [R2t.poly("0"), R2t.poly("t - 1")]], R2t)
    assert rank2 == 2
    assert not minor2.is_zero()


def test_module_rank_and_torsion():
    pres = Presentation.cyclic(R2t, [R2t.poly("t*x")])
    tors, quo = groebner.torsion_submodule(pres)
    # t*x kills the class of 1 only after inverting nothing: R/(tx) is torsion-free
    # over the base; torsion here means base-torsion
    assert isinstance(tors, list)
    A = make_ring(["x"], [1], params=["z"], relations=["z^2 - z"])
    with pytest.raises(BaseNotDomain):
        groebner.torsion_submodule(Presentation.cyclic(A, [A.poly("z*x")]))


def test_quotient_dimension():
    for gens, dim in ((["x^2", "x*y", "y^3"], 0), (["x"], 1), (["x*y"], 1), (["1"], -1)):
        gb = Presentation.cyclic(R2, [R2.poly(g) for g in gens]).gb()
        assert groebner.quotient_dimension(gb) == dim, gens
    assert groebner.quotient_dimension(Presentation.cyclic(R2, []).gb()) == 2


def test_quotient_vecdim():
    pres = Presentation.cyclic(R2, [R2.poly("x^2"), R2.poly("x*y"), R2.poly("y^2")])
    assert groebner.presentation_vecdim(pres) == 3  # 1, x, y


@pytest.mark.parametrize("base", [{}, {"params": ["t"], "relations": ["t^2 - t"]}],
                         ids=["field", "relation"])
def test_presentation_gb_is_the_relation_basis(base):
    R = make_ring(["x", "y"], [1, 1], **base)
    F = FreeModule(R, [(0,), (1,)])
    cases = {
        "empty": Presentation.of_free(F),
        "zero columns": Presentation(FreeMap.from_columns(F, [F.zero(), F.zero()])),
        "rank 0": Presentation.of_free(FreeModule(R, [])),
        "relations": Presentation(FreeMap.from_columns(
            F, [F.element([R.poly("x^2"), R.poly("y")]), F.zero(),
                F.element([R.poly("x*y"), R.zero()])])),
    }
    for name, pres in cases.items():
        want = groebner.module_gb(list(pres.relations.cols), pres.gens_module)
        got = pres.gb()
        assert [v.data for v in got] == [v.data for v in want], name
        assert got.module == want.module, name
        assert pres.gb() is got, name  # built once


# -- the int kernel against a textbook Buchberger ----------------------------

GF = PrimeField(32003)
Rq3 = make_ring(["x", "y", "z"], [1, 1, 1])
Rp3 = make_ring(["x", "y", "z"], [1, 1, 1], field=GF)
Rt2 = make_ring(["x", "y"], [1, 1], params=["t"])
COEFFS = [Fraction(1, 3), Fraction(7, 2), Fraction(-2), Fraction(1), Fraction(-5, 4), Fraction(6)]


def term_key(ring, split):
    """The module order as documented: the components below split first,
    then the graded part in the ring order, then the lower component,
    then the parameter part in the ring order."""
    key = ring.order.key
    ng, nz = ring.ngraded, ring.nz

    def graded(e):
        return key(e[:ng] + (0,) * nz)

    def params(e):
        return key((0,) * ng + e[ng:])

    return lambda t: (1 if t[0] < split else 0, graded(t[1]), -t[0], params(t[1]))


def divides(a, b):
    return a[0] == b[0] and all(x <= y for x, y in zip(a[1], b[1]))


def ref_reduce(f, basis, key, zero):
    """Full reduction of f by the basis, largest term first, in field arithmetic."""
    f = dict(f)
    out = {}
    while f:
        t = max(f, key=key)
        c = f.pop(t)
        g = next((g for g in basis if divides(max(g, key=key), t)), None)
        if g is None:
            out[t] = c
            continue
        lt = max(g, key=key)
        shift = tuple(a - b for a, b in zip(t[1], lt[1]))
        factor = c / g[lt]
        for (gc, ge), gv in g.items():
            if (gc, ge) == lt:
                continue
            u = (gc, tuple(a + b for a, b in zip(ge, shift)))
            v = f.get(u, zero) - factor * gv
            if v:
                f[u] = v
            else:
                f.pop(u, None)
    return out


def ref_normalize(g, key, field):
    """Primitive with a positive lead over QQ, monic over GF(p)."""
    lead = g[max(g, key=key)]
    if field.char:
        return {t: c / lead for t, c in g.items()}
    scale = Fraction(lcm(*(c.denominator for c in g.values())),
                     gcd(*(c.numerator for c in g.values())))
    if lead < 0:
        scale = -scale
    return {t: c * scale for t, c in g.items()}


def ref_gb(gens, ring, split):
    """Reduced Groebner basis by the textbook loop: every S-pair, no
    criteria, the pair with the smallest lcm first."""
    key = term_key(ring, split)
    zero = ring.field.zero
    G = [dict(g) for g in gens if g]

    def lcm_of(i, j):
        li, lj = max(G[i], key=key), max(G[j], key=key)
        if li[0] != lj[0]:
            return None
        return li[0], tuple(max(a, b) for a, b in zip(li[1], lj[1]))

    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = min(pairs, key=lambda ij: key(lcm_of(*ij) or (0, (0,) * ring.nvars)))
        pairs.remove((i, j))
        lt = lcm_of(i, j)
        if lt is None:
            continue
        li, lj = max(G[i], key=key), max(G[j], key=key)
        l = lt[1]
        s = {}
        for g, lt, sign in ((G[i], li, 1), (G[j], lj, -1)):
            shift = tuple(a - b for a, b in zip(l, lt[1]))
            for (c, e), v in g.items():
                u = (c, tuple(a + b for a, b in zip(e, shift)))
                w = s.get(u, zero) + (v / g[lt] if sign > 0 else -(v / g[lt]))
                if w:
                    s[u] = w
                else:
                    s.pop(u, None)
        h = ref_reduce(s, G, key, zero)
        if h:
            G.append(h)
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    G.sort(key=lambda g: key(max(g, key=key)))
    minimal = []
    for g in G:
        if not any(divides(max(m, key=key), max(g, key=key)) for m in minimal):
            minimal.append(g)
    out = []
    for k, g in enumerate(minimal):
        others = minimal[:k] + minimal[k + 1:]
        out.append(ref_normalize(ref_reduce(g, others, key, zero), key, ring.field))
    out.sort(key=lambda g: key(max(g, key=key)), reverse=True)
    return out


def rand_poly(ring, rng, nterms, maxdeg):
    n = ring.nvars
    terms = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(rng.randint(0, maxdeg)):
            e[rng.randrange(n)] += 1
        c = ring.field.coerce(rng.choice(COEFFS))
        if c:
            terms[tuple(e)] = c
    return terms


def rand_vectors(ring, rng, rank, count, nterms, maxdeg):
    out = []
    for _ in range(count):
        data = {}
        for c in rng.sample(range(rank), rng.randint(1, rank)):
            for e, v in rand_poly(ring, rng, nterms, maxdeg).items():
                data[(c, e)] = v
        if data:
            out.append(data)
    return out


def rand_poly_data(ring, rng):
    return {(0, e): c for e, c in rand_poly(ring, rng, 4, 3).items()}


CASES = [  # ring, module rank, split
    (Rq3, 1, 0), (Rp3, 1, 0), (Rt2, 1, 0),
    (Rq3, 2, 0), (Rp3, 2, 0), (Rt2, 2, 0),
    (Rq3, 3, 1), (Rp3, 3, 1), (Rt2, 3, 2),
]


@pytest.mark.parametrize("ring,rank,split", CASES)
def test_reduced_basis_matches_textbook_buchberger(ring, rank, split):
    rng = random.Random(41 + rank + split)
    module = FreeModule(ring, [ring.zero_degree()] * rank)
    for _ in range(6):
        gens = rand_vectors(ring, rng, rank, rng.randint(2, 3), 3, 2)
        if not gens:
            continue
        gb = groebner.module_gb([Vector(module, g) for g in gens], module, split=split)
        assert [v.data for v in gb] == ref_gb(gens, ring, split)


def _spy_s_vectors(monkeypatch):
    """Count the S-vectors Buchberger's loop builds: one _sub_scaled each."""
    calls = []
    real = groebner._sub_scaled

    def spied(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "_sub_scaled", spied)
    return calls


def test_pairs_of_terms_build_no_s_vector(monkeypatch):
    # the S-vector of two terms in one component is zero, so a basis of
    # terms is its own minimal part and no pair of it is reduced
    calls = _spy_s_vectors(monkeypatch)
    septics = [Rq3.monomial(e) for e in Rq3.monomials_of_degree((7,))]
    octics = [m * Rq3.var(x) for m in septics for x in "xyz"]  # m^8, repeated
    assert len(octics) > len({tuple(p.terms) for p in octics})
    got = groebner.ideal_gb(octics, ring=Rq3)
    assert sorted(g.leading_monomial() for g in got) == sorted(Rq3.monomials_of_degree((8,)))
    # a rank-two module of terms, where no coprime-lead rule applies
    module = FreeModule(Rt2, [Rt2.zero_degree()] * 2)
    terms = [{(0, (2, 0, 1)): Fraction(3)}, {(0, (1, 1, 0)): Fraction(-2)},
             {(0, (0, 3, 2)): Fraction(5)}, {(1, (1, 1, 1)): Fraction(7)},
             {(1, (0, 2, 0)): Fraction(1, 2)}, {(1, (3, 0, 0)): Fraction(1)}]
    gb = groebner.module_gb([Vector(module, g) for g in terms], module)
    assert [v.data for v in gb] == ref_gb(terms, Rt2, 0)
    assert calls == []


@pytest.mark.parametrize("ring,rank,split", CASES)
def test_terms_beside_binomials_match_textbook_buchberger(ring, rank, split, monkeypatch):
    # the pairs of two terms are skipped, every pair with a binomial is
    # still reduced, and the basis is the textbook one
    calls = _spy_s_vectors(monkeypatch)
    rng = random.Random(61 + rank + split)
    module = FreeModule(ring, [ring.zero_degree()] * rank)
    ng = ring.ngraded

    def term():
        e = [0] * ring.nvars
        for _ in range(rng.randint(1, 3)):  # no unit
            e[rng.randrange(ng)] += 1
        e[ng:] = [rng.randint(0, 1) for _ in e[ng:]]
        return (rng.randrange(rank), tuple(e)), ring.field.coerce(rng.choice(COEFFS))

    for _ in range(6):
        gens = [dict([term()]) for _ in range(3)] + [dict([term(), term()]) for _ in range(2)]
        gb = groebner.module_gb([Vector(module, g) for g in gens], module, split=split)
        assert [v.data for v in gb] == ref_gb(gens, ring, split)
    assert calls


@pytest.mark.parametrize("ring", [Rq3, Rp3, Rt2])
def test_nf_is_the_textbook_normal_form(ring):
    """On inputs that are not primitive, nf is reduced and equals the
    textbook normal form."""
    rng = random.Random(43)
    module = FreeModule(ring, [ring.zero_degree()])
    key = term_key(ring, 0)
    # 2x - 3y has lead coefficient 2: clearing x from a term with an odd
    # coefficient takes the multiplier 2 over QQ
    fixed = [{(0, (1, 1) + (0,) * (ring.nvars - 2)): ring.field.coerce(Fraction(2, 3)),
              (0, (0, 2) + (0,) * (ring.nvars - 2)): ring.field.coerce(-1)},
             {(0, (1,) + (0,) * (ring.nvars - 1)): ring.field.coerce(2),
              (0, (0, 1) + (0,) * (ring.nvars - 2)): ring.field.coerce(-3)}]
    for trial in range(8):
        gens = fixed if trial == 0 else rand_vectors(ring, rng, 1, 2, 3, 2)
        if not gens:
            continue
        gb = groebner.module_gb([Vector(module, g) for g in gens], module)
        basis = [g.data for g in gb]
        for _ in range(4):
            v = Vector(module, rand_poly_data(ring, rng))
            nf = gb.nf(v)
            assert nf.data == ref_reduce(v.data, basis, key, ring.field.zero)
            assert not any(divides(max(g, key=key), t) for g in basis for t in nf.data)
            assert gb.contains(v) == (not nf.data)


def test_nf_multiplier_and_scaled_divisors():
    """Normal forms against non-primitive divisors, and a lead coefficient
    that does not divide the coefficient it clears."""
    x, y = Rq3.var("x"), Rq3.var("y")
    g = 2 * x - 3 * y
    assert groebner.nf_poly(x ** 2 + Rq3.poly("y/3"), [g]) == Rq3.poly("9/4*y^2 + 1/3*y")
    for scale in (Fraction(2, 3), Fraction(-7, 2), Fraction(5)):
        assert groebner.nf_poly(x * y, [g * scale]) == Rq3.poly("3/2*y^2")
    gb = groebner.module_gb([Vector(FreeModule(Rq3, [(0,)]), {(0, (1, 0, 0)): Fraction(4),
                                                              (0, (0, 1, 0)): Fraction(-6)})])
    # the basis is primitive: the content 2 of 4x - 6y is removed
    assert [v.data for v in gb] == [{(0, (1, 0, 0)): 2, (0, (0, 1, 0)): -3}]


# -- bases with relations ---------------------------------------------------
#
# Over A = k[z]/(relations) the engine builds a basis of M + (relations) F
# in the flat ring and keeps the elements whose leads no relation lead
# divides.  The reference is the textbook basis of the generators and the
# relation multiples of each basis vector.

RELATION_BASES = [
    make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"]),
    make_ring(["x", "y"], [1, 1], params=["a", "b", "c"], relations=["b - a^2", "c - a^3"],
              minimal_primes=[["b - a^2", "c - a^3"]]),
    make_ring(["x", "y"], [1, 1], params=["t"], relations=["t^2 - t"]),
    make_ring(["x", "y"], [1, 1], params=["z"], relations=["z^2 - z"], field=PrimeField(7)),
]
RELATION_IDS = ["cusp", "two-relations", "t^2-t", "GF(7)"]


def relation_gb(ring):
    """Textbook reduced basis of the relations, as rank-one term dicts."""
    return ref_gb([{(0, e): c for e, c in rel} for rel in ring.base_rel], ring, 0)


def relation_multiples(rels, rank):
    return [{(c, e): v for (_0, e), v in r.items()} for r in rels for c in range(rank)]


def reduced_vector(module, data):
    """The vector with these terms, each component reduced modulo the relations."""
    return module.element([Poly(module.ring, {e: c for (i, e), c in data.items() if i == k})
                           for k in range(module.rank)])


def test_a_relation_multiple_is_no_basis_element():
    # (s) holds t^3 = s^2 over the cusp; the relation-free basis {s, t^3}
    # once came back rewritten as [s^2, s], and the radical read inexact
    ring = RELATION_BASES[0]
    assert [str(g) for g in groebner.ideal_gb([ring.var("s")])] == ["s"]
    rad, exact = loci.locus_radical([ring.var("s")], ring)
    assert ([str(g) for g in rad], exact) == (["s", "t"], True)


@pytest.mark.parametrize("ring", RELATION_BASES, ids=RELATION_IDS)
def test_bases_over_relations_are_read_over_the_base(ring):
    """ideal_gb and Presentation.gb() generate the reference module over
    the base; each element is in normal form modulo the relations, and
    no lead is divisible by a relation lead.  Normal forms are textbook
    ones against the reference."""
    rng = random.Random(46)
    key = term_key(ring, 0)
    zero = ring.field.zero
    rels = relation_gb(ring)
    rel_leads = [max(r, key=key)[1] for r in rels]

    def reducible(e):
        return any(all(a >= b for a, b in zip(e, l)) for l in rel_leads)

    for rank in (1, 1, 1, 2, 2, 2):
        module = FreeModule(ring, [ring.zero_degree()] * rank)
        vecs = [reduced_vector(module, g)
                for g in rand_vectors(ring, rng, rank, rng.randint(1, 3), 3, 2)]
        vecs = [v for v in vecs if v.data]
        if not vecs:
            continue
        want = ref_gb([v.data for v in vecs] + relation_multiples(rels, rank), ring, 0)
        source = FreeModule(ring, [ring.zero_degree()] * len(vecs))
        gb = Presentation(FreeMap(source, module, vecs, check=False)).gb()
        bases = [list(gb)]
        if rank == 1:
            bases.append([module.element([g])
                          for g in groebner.ideal_gb([v.component(0) for v in vecs], ring=ring)])
        for basis in bases:
            assert ref_gb([v.data for v in basis] + relation_multiples(rels, rank),
                          ring, 0) == want
            for v in basis:
                assert not reducible(max(v.data, key=key)[1])
                assert not any(reducible(e) for (_c, e) in v.data)
        for _ in range(3):
            v = reduced_vector(module, rand_vectors(ring, rng, rank, 1, 4, 3)[0])
            nf = gb.nf(v)
            assert nf.data == ref_reduce(v.data, want, key, zero)
            assert gb.contains(v) == (not nf.data)


@pytest.mark.parametrize("ring", RELATION_BASES, ids=RELATION_IDS)
def test_reduce_base_is_the_textbook_normal_form(ring):
    rng = random.Random(47)
    key = term_key(ring, 0)
    rels = relation_gb(ring)
    for _ in range(30):
        terms = rand_poly(ring, rng, 5, 4)
        want = ref_reduce({(0, e): c for e, c in terms.items()}, rels, key, ring.field.zero)
        assert ring._reduce_base(terms) == {e: c for (_0, e), c in want.items()}


ORDERS = [
    [("grevlex", range(4))],
    [("lex", range(4))],
    [("lex", (2, 0, 3, 1))],
    [("grevlex", (0, 1)), ("grevlex", (2, 3))],
    [("weight", (1, 3)), ("grevlex", range(4))],
    [("weight", (0,)), ("lex", (1,)), ("grevlex", (3, 2, 0, 1))],
    [("grevlex", (0, 1, 3)), ("lex", (2,))],
]


@pytest.mark.parametrize("stages", ORDERS)
def test_heap_key_sorts_like_the_order(stages):
    order = MonomialOrder(stages)
    rng = random.Random(44)
    exps = list({tuple(rng.randint(0, 3) for _ in range(4)) for _ in range(300)})
    assert sorted(exps, key=order.heap_key) == sorted(exps, key=order.key, reverse=True)
    assert len({order.heap_key(e) for e in exps}) == len(exps)


def test_heap_key_of_derived_rings():
    rng = random.Random(45)
    for ring in (Rq3, Rt2, Rt2.with_order((("weight", (0,)),) + Rt2.order.stages)):
        exps = list({tuple(rng.randint(0, 4) for _ in range(ring.nvars)) for _ in range(200)})
        assert (sorted(exps, key=ring.order.heap_key)
                == sorted(exps, key=ring.order.key, reverse=True))


# -- Hilbert numerators and the generic fiber --------------------------------
#
# Every count of a quotient is read off the Hilbert numerator of its leads.
# The references below count the same quotients without it: standard
# monomials one degree at a time, independent sets for the dimension and
# a box of exponents for the length.  Each reads the leads over the
# generic fiber, with their parameter parts dropped.


def ref_standard_monomials(leads, module, deg):
    """Module monomials of degree deg divisible by no lead."""
    ring = module.ring
    ng = ring.ngraded
    out = []
    for i, shift in enumerate(module.shifts):
        want = tuple(a - b for a, b in zip(ring.deg_tuple(deg), shift))
        for m in ring.monomials_of_degree(want):
            if not any(c == i and all(a >= b for a, b in zip(m[:ng], e[:ng]))
                       for c, e in leads):
                out.append((i, m))
    return out


def _component_leads(leads, module):
    ng = module.ring.ngraded
    by_comp = [[] for _ in module.shifts]
    for c, e in leads:
        by_comp[c].append(e[:ng])
    return by_comp


def ref_krull_dimension(leads, module):
    """Largest set of graded variables that holds no lead's support, over
    the components no unit lead kills; -1 when every one is killed."""
    n = module.ring.ngraded
    best = -1
    for comp in _component_leads(leads, module):
        supports = [frozenset(i for i, a in enumerate(e) if a) for e in comp]
        if frozenset() in supports:
            continue
        best = max([best] + [size for size in range(n + 1)
                             for combo in combinations(range(n), size)
                             if not any(sup <= set(combo) for sup in supports)])
    return best


def ref_vecdim(leads, module):
    """Standard monomials counted in the box that the pure-power leads
    bound, None when some live component has a variable they leave
    unbounded."""
    n = module.ring.ngraded
    total = 0
    for comp in _component_leads(leads, module):
        if any(not any(e) for e in comp):
            continue
        bounds = [min((e[i] for e in comp if e[i] and sum(e) == e[i]), default=None)
                  for i in range(n)]
        if None in bounds:
            return None
        total += sum(1 for m in product(*(range(b) for b in bounds))
                     if not any(all(a >= b for a, b in zip(m, e)) for e in comp))
    return total


def ref_degree(gb, order):
    """The degree as the finite differences of the Hilbert function read
    it: the order-th difference once its last two values agree, within
    40 degrees."""
    vals = []
    for n in range(41):
        vals.append(len(ref_standard_monomials(gb.leads(), gb.module, (n,))))
        if n >= order + 2 and (v := ratmap._stable_tail(vals, order)) is not None:
            return v
    raise AssertionError("the Hilbert function did not stabilize")


def ideal_quotient_gb(names, gens, degrees=None, params=()):
    ring = make_ring(names, degrees or [1] * len(names), params=params)
    return Presentation.cyclic(ring, [ring.poly(g) for g in gens]).gb()


NUMERATOR_IDEALS = {
    "quartic": (list("abcde"), ["a*c - b^2", "a*d - b*c", "a*e - b*d", "b*d - c^2",
                                "b*e - c*d", "c*e - d^2"]),
    "twisted cubic": (list("abcd"), ["a*c - b^2", "a*d - b*c", "b*d - c^2"]),
    "skew lines": (list("xyzw"), ["x*z", "x*w", "y*z", "y*w"]),
    "quartic family": (list("abcde"), ["a*c - b^2", "a*d - t*b*c", "a*e - b*d",
                                       "b*d - c^2", "b*e - c*d", "c*e - d^2"]),
}


@pytest.mark.parametrize("name", sorted(NUMERATOR_IDEALS))
def test_hilbert_numerator_matches_strand_dims(name):
    names, gens = NUMERATOR_IDEALS[name]
    gb = ideal_quotient_gb(names, gens, params=["t"] if name == "quartic family" else ())
    assert gb.hilbert_numerator() == groebner.hilbert_numerator(gb.leads(), gb.module)
    for d in range(-2, 9):
        assert groebner.quotient_strand_dim(gb, (d,)) \
            == len(ref_standard_monomials(gb.leads(), gb.module, (d,))), d
    dim = groebner.quotient_dimension(gb)
    assert dim == ref_krull_dimension(gb.leads(), gb.module)
    degree = groebner.quotient_degree(gb)
    assert degree == ref_degree(gb, dim - 1)
    # the rational normal curves have their own degree, two skew lines two
    assert degree == {"quartic": 4, "twisted cubic": 3, "skew lines": 2}.get(name, degree)


def seeded_monomial_modules(seed, count):
    """(module, leads, vectors): monomial submodules with repeated,
    redundant and pure-power generators, and sometimes a pure power of
    every graded variable in every component.  The rings cycle through
    weighted x-degrees, a y-block and a base with a relation, where a
    generator may carry a parameter monomial."""
    rng = random.Random(seed)
    out = []
    for trial in range(count):
        kind = trial % 3
        if kind == 0:
            nx = rng.randint(1, 4)
            ring = make_ring(["x%d" % i for i in range(nx)],
                             [rng.randint(1, 3) for _ in range(nx)])
            shift = lambda: (rng.randint(-2, 3),)
        elif kind == 1:
            ring = make_ring(["x0", "x1"], [(1, 0), (2, 0)], yvars=["y0", "y1"],
                             ydegrees=[(0, 1), (-1, 1)])
            shift = lambda: (rng.randint(-1, 2), rng.randint(0, 1))
        else:
            ring = make_ring(["x0", "x1", "x2"], [1, 1, 1], params=["s", "t"],
                             relations=["s^2 - t^3"])
            shift = lambda: (rng.randint(-1, 2),)
        ng = ring.ngraded
        module = FreeModule(ring, [shift() for _ in range(rng.randint(1, 3))])
        leads = [(rng.randrange(module.rank), tuple(rng.randint(0, 3) for _ in range(ng)))
                 for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.4:
            leads += [(c, tuple(rng.randint(1, 3) if j == i else 0 for j in range(ng)))
                      for c in range(module.rank) for i in range(ng)]
        vectors = []
        for c, e in leads:
            z = tuple(rng.randint(0, 1) for _ in range(ring.nz))
            vectors.append(module.basis_vector(c).scale(ring.monomial(e + z)))
        out.append((module, leads, vectors))
    return out


def test_hilbert_numerator_of_seeded_monomial_modules():
    finite = infinite = 0
    for module, leads, vectors in seeded_monomial_modules(48, 36):
        ring = module.ring
        pres = Presentation(FreeMap.from_columns(module, vectors, check=False))
        gb = pres.gb()
        if ring.gdim == 1:
            degrees = [(d,) for d in range(-3, 12)]
        else:
            degrees = [(a, b) for a in range(-3, 8) for b in range(4)]
        for d in degrees:
            want = len(ref_standard_monomials(gb.leads(), module, d))
            assert groebner.quotient_strand_dim(gb, d) == want, (leads, d)
            free = sum(len(ring.monomials_of_degree(tuple(a - b for a, b in zip(d, s))))
                       for s in module.shifts)
            assert groebner.submodule_strand_dim(gb, d) == free - want, (leads, d)
        assert groebner.quotient_dimension(gb) == ref_krull_dimension(gb.leads(), module)
        vecdim = groebner.presentation_vecdim(pres)
        assert vecdim == ref_vecdim(gb.leads(), module), leads
        finite += vecdim is not None
        infinite += vecdim is None
    assert finite >= 5 and infinite >= 5


def test_hilbert_numerator_of_seeded_staircases():
    """Leads in two of the graded variables, as the powers of a Veronese
    map have them: 8 to 16 per module, over weighted rings in up to four
    variables and free modules of rank 1 to 3, so that each component's
    numerator is read off its staircase."""
    rng = random.Random(53)
    steps = 0
    for trial in range(30):
        n = rng.randint(2, 4)
        ring = make_ring(["x%d" % i for i in range(n)], [rng.randint(1, 3) for _ in range(n)])
        u, v = rng.sample(range(n), 2)
        module = FreeModule(ring, [(rng.randint(-2, 3),) for _ in range(rng.randint(1, 3))])
        leads = []
        for _ in range(rng.randint(8, 16)):
            e = [0] * n
            a = rng.randint(0, 8)  # near an antidiagonal, so most are minimal
            e[u], e[v] = a, max(rng.randint(5, 8) - a, 0)
            leads.append((rng.randrange(module.rank), tuple(e)))
        vectors = [module.basis_vector(c).scale(ring.monomial(e)) for c, e in leads]
        gb = Presentation(FreeMap.from_columns(module, vectors, check=False)).gb()
        steps += len(gb.leads()) - module.rank
        for d in range(-3, 16):
            want = len(ref_standard_monomials(gb.leads(), module, (d,)))
            assert groebner.quotient_strand_dim(gb, (d,)) == want, (leads, d)
            free = sum(len(ring.monomials_of_degree((d - s[0],))) for s in module.shifts)
            assert groebner.submodule_strand_dim(gb, (d,)) == free - want, (leads, d)
    assert steps >= 90  # staircases with inner corners, not single generators


@pytest.mark.parametrize("ring", RELATION_BASES, ids=RELATION_IDS)
def test_generic_counts_match_a_point_off_the_certificate(ring):
    """presentation_vecdim and submodule_strand_dim over the generic fiber
    equal those at a rational point where no generic lead coefficient of
    the relation basis vanishes: there the fiber has the basis' leads."""
    from gradedfibers.specialize import sample_rational_point

    rng = random.Random(49)
    x, y = ring.var("x"), ring.var("y")
    params = [ring.one()] + [ring.var(z) for z in ring.znames]
    checked = 0
    for trial in range(12):
        shifts = [(0,), (rng.randint(0, 1),)]
        module = FreeModule(ring, shifts)
        rels = [module.basis_vector(c).scale(m) for c in range(2) for m in (x ** 3, y ** 3)]
        for _ in range(rng.randint(1, 2)):
            deg = rng.randint(1, 2) + 1
            comps = []
            for c in range(2):
                d = deg - shifts[c][0]
                monos = [ring.monomial(e) for e in ring.monomials_of_degree((d,))]
                comps.append(sum((m * rng.choice(params) * rng.choice([0, 0, 1, -1])
                                  for m in monos), ring.zero()))
            if any(not p.is_zero() for p in comps):
                rels.append(module.element(comps))
        pres = Presentation(FreeMap.from_columns(module, rels, check=False))
        gb = pres.gb()
        try:
            point = sample_rational_point(ring, rng, avoid=gb.generic_lead_coefficients())
        except Exception:
            continue
        fiber = pres.evaluate(point)
        assert groebner.presentation_vecdim(pres) == groebner.presentation_vecdim(fiber)
        for d in range(0, 6):
            assert groebner.submodule_strand_dim(gb, (d,)) \
                == groebner.submodule_strand_dim(fiber.gb(), (d,)), (trial, d)
        checked += 1
    assert checked >= 4
