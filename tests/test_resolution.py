"""Free resolutions, minimalization, Ext presentations."""

import gc
import random
from functools import partial

import pytest

from gradedfibers.modules import FreeModule, FreeMap, Presentation
from gradedfibers.rings import PrimeField, make_ring
from gradedfibers import localcohom, resolution


R2 = make_ring(["x", "y"], [1, 1])
R3 = make_ring(["x", "y", "z"], [1, 1, 1])


def koszul_mm():
    return Presentation.cyclic(R2, [R2.poly("x"), R2.poly("y")])


def test_koszul_resolution_shape():
    res = resolution.free_resolution(koszul_mm(), 3)
    ranks = [m.rank for m in res.modules]
    assert ranks[:3] == [1, 2, 1]
    assert all(r == 0 for r in ranks[3:])
    res.check()  # compositions vanish


def test_resolution_is_a_complex_randomized():
    rng = random.Random(7)
    monos = R2.monomials_of_degree((2,)) + R2.monomials_of_degree((3,))
    for _ in range(12):
        gens = []
        for _ in range(rng.randint(1, 3)):
            m = rng.choice(monos)
            gens.append(R2.monomial(m))
        pres = Presentation.cyclic(R2, gens)
        res = resolution.free_resolution(pres, 4)
        res.check()
        # a graded module over k[x,y] has projective dimension <= 2;
        # the raw Schreyer resolution may carry split tails, so minimalize
        mres = resolution.minimalize(res)
        assert all(m.rank == 0 for m in mres.modules[3:])
        mres.check()


def test_betti_numbers_of_square_of_maximal_ideal():
    pres = Presentation.cyclic(R2, [R2.poly("x^2"), R2.poly("x*y"), R2.poly("y^2")])
    res = resolution.minimalize(resolution.free_resolution(pres, 3))
    ranks = [m.rank for m in res.modules]
    assert ranks == [1, 3, 2]
    # all three generators in degree 2, both syzygies linear
    assert [m.shifts for m in res.modules] == [((0,),), ((2,),) * 3, ((3,),) * 2]


def test_minimalize_strips_split_part():
    # presentation with a unit row: R(-1) summand cancels
    tgt = FreeModule(R2, [(0,), (1,)])
    cols = [tgt.element([R2.poly("x"), R2.one()]),
            tgt.element([R2.poly("x^2"), R2.poly("x")])]
    pres = Presentation(FreeMap.from_columns(tgt, cols))
    mp = resolution.minimal_presentation(pres)
    assert mp.ngens == 1
    assert mp.gens_module.shifts == ((0,),)


def test_hilbert_agreement_after_minimalization():
    from gradedfibers import groebner

    rng = random.Random(8)
    for _ in range(10):
        gens = [R2.monomial(rng.choice(R2.monomials_of_degree((2,))))
                for _ in range(2)]
        pres = Presentation.cyclic(R2, gens)
        mp = resolution.minimal_presentation(pres)
        for d in range(5):
            da = groebner.quotient_strand_dim(
                groebner.module_gb(list(pres.relations.cols), pres.gens_module),
                (d,))
            db = groebner.quotient_strand_dim(
                groebner.module_gb(list(mp.relations.cols), mp.gens_module),
                (d,))
            assert da == db


def test_ext_presentations_koszul():
    # Ext^i(k, R): zero for i < 2, k(2) in homological degree 2
    exts = resolution.ext_presentations(koszul_mm().resolution())
    mins = [resolution.minimal_presentation(e) if e.ngens else e for e in exts]
    assert mins[0].ngens == 0
    assert mins[1].ngens == 0
    assert mins[2].ngens == 1  # Ext^2(k, R) = k up to twist


def test_ext_of_free_module_vanishes():
    pres = Presentation(FreeMap.from_columns(FreeModule(R2, [(0,)]), []))
    exts = resolution.ext_presentations(pres.resolution())
    assert exts[0].ngens == 1  # Hom(R, R) = R
    assert exts[1].ngens == 0
    assert exts[2].ngens == 0


def test_top_dual_cokernel_zero_for_cm_of_max_depth():
    pres = Presentation(FreeMap.from_columns(FreeModule(R2, [(0,)]), []))
    td = resolution.top_dual_cokernel(pres.resolution())
    assert td.ngens <= 1  # R itself: dual complex exact at the top


def test_schreyer_connected_sum_rank_bookkeeping():
    # 3 generic-looking quadrics in 3 variables: 1, 3, then first syzygies
    pres = Presentation.cyclic(
        R3, [R3.poly("x^2 - y*z"), R3.poly("y^2 - x*z"), R3.poly("z^2 - x*y")])
    res = resolution.free_resolution(pres, 4)
    res.check()
    ranks = [m.rank for m in res.modules]
    assert ranks[0] == 1 and ranks[1] == 3
    # Euler characteristic of a finite free complex resolving a module of
    # rank 0 must vanish when the module is torsion; these quadrics cut a
    # finite set, so alternating ranks sum to zero beyond rank counting
    assert sum((-1) ** i * r for i, r in enumerate(ranks)) == 0


def test_minimalize_drops_stages_past_a_zero_module():
    # the rational quartic in P^3; the raw cohomology resolution stops at
    # length 5, where the split-off tail leaves a phantom F_5 past F_4 = 0
    R4 = make_ring(["a", "b", "c", "d"], [1, 1, 1, 1])
    pres = Presentation.cyclic(R4, [R4.poly(g) for g in (
        "b*c - a*d", "c^3 - b*d^2", "a*c^2 - b^2*d", "b^3 - a^2*c")])
    mres = resolution.minimalize(pres.resolution().raw)
    assert [m.rank for m in mres.modules] == [1, 4, 4, 1]
    assert max(i for i, m in enumerate(mres.modules) if m.shifts) == 3


def dense_minimalize(complex_):
    """Reference: cancel one unit at a time on dense matrices of Polys.

    Each cancellation takes the first stage, then the first row, then the
    first column holding a nonzero constant, replaces d_i by its Schur
    complement, deletes row c of d_{i+1} and column r of d_{i-1}, and
    scans again from d_1.
    """
    ring = complex_.ring
    mats = [None]
    for i in range(1, complex_.length + 1):
        mats.append([row[:] for row in complex_.map(i).entries()])
    shifts = [list(m.shifts) for m in complex_.modules]

    def find_unit():
        for i in range(1, len(mats)):
            m = mats[i]
            for r in range(len(m)):
                for c in range(len(m[r])):
                    cv = m[r][c].constant_value()
                    if cv is not None and cv:
                        return i, r, c, cv
        return None

    while (hit := find_unit()) is not None:
        i, r, c, u = hit
        m = mats[i]
        uinv = ring.constant(ring.field.one / u)
        mats[i] = [[m[rr][cc] - m[rr][c] * m[r][cc] * uinv
                    for cc in range(len(m[0])) if cc != c]
                   for rr in range(len(m)) if rr != r]
        del shifts[i][c]
        del shifts[i - 1][r]
        if i + 1 < len(mats):
            mats[i + 1] = [row for k, row in enumerate(mats[i + 1]) if k != c]
        if i - 1 >= 1:
            mats[i - 1] = [[row[k] for k in range(len(row)) if k != r] for row in mats[i - 1]]

    modules = [FreeModule(ring, tuple(s)) for s in shifts]
    for i in range(1, len(modules)):
        if modules[i].rank == 0:
            del modules[i:], mats[i:]
            break
    maps = [FreeMap(modules[i], modules[i - 1],
                    [modules[i - 1].element([row[c] for row in mats[i]])
                     for c in range(modules[i].rank)], check=False)
            for i in range(1, len(modules))]
    return resolution.Complex(modules, maps)


QUARTIC = ("b*c - a*d", "c^3 - b*d^2", "a*c^2 - b^2*d", "b^3 - a^2*c")


def _raw(ring, gens):
    return Presentation.cyclic(ring, [ring.poly(g) for g in gens]).resolution().raw


def _raw_module(ring, cols, shifts):
    gens = FreeModule(ring, shifts)
    return Presentation(FreeMap.from_columns(
        gens, [gens.element([ring.poly(e) for e in col]) for col in cols])).resolution().raw


# a cokernel with a unit relation and a redundant one (x times the third
# plus t times the first), so that units cancel in d_1 and in d_2
UNIT_COLS = (("x^2", "t*x", "x"), ("x*y", "y", "s*y"), ("x", "1", "0"),
             ("x^2 + t*x^2", "x + t^2*x", "t*x"))

RAW_COMPLEXES = {
    "quartic_qq": lambda: _raw(make_ring(["a", "b", "c", "d"], [1, 1, 1, 1]), QUARTIC),
    "quartic_gf": lambda: _raw(make_ring(["a", "b", "c", "d"], [1, 1, 1, 1],
                                         field=PrimeField(32003)), QUARTIC),
    "ladder_qq_st": lambda: _raw(make_ring(["x", "y", "z"], [1, 1, 1], params=["s", "t"]),
                                 ("s*x^2 + t*y*z", "x*y - t*z^2", "y^3 - s*x*z^2")),
    "cusp": lambda: _raw(make_ring(["x", "y"], [1, 1], params=["s", "t"],
                                   relations=["s^2 - t^3"]),
                         ("x^2", "s*x*y", "t*y^2")),
    "cusp_module": lambda: _raw_module(make_ring(["x", "y"], [1, 1], params=["s", "t"],
                                                 relations=["s^2 - t^3"]),
                                       UNIT_COLS, [0, 1, 1]),
    "module_qq_st": lambda: _raw_module(make_ring(["x", "y"], [1, 1], params=["s", "t"]),
                                        UNIT_COLS, [0, 1, 1]),
}


@pytest.mark.parametrize("name", sorted(RAW_COMPLEXES))
def test_minimalize_matches_the_dense_loop(name):
    raw = RAW_COMPLEXES[name]()
    assert raw.raw is None
    got, want = resolution.minimalize(raw), dense_minimalize(raw)
    assert got.raw is raw
    assert [m.shifts for m in got.modules] == [m.shifts for m in want.modules]
    for g, w in zip(got.maps, want.maps):
        assert g.source == w.source and g.target == w.target
        # the same terms, in the same order
        assert [list(c.data.items()) for c in g.cols] == [list(c.data.items()) for c in w.cols]
    got.check()


# seeded draws for the walk's properties: coefficient pools per base, the
# constants among them units that the walk has to cancel
WALK_BASES = {
    "QQ": (make_ring(["x", "y", "z"], [1, 1, 1]), ("1", "2", "-3")),
    "GF(32003)": (make_ring(["x", "y", "z"], [1, 1, 1], field=PrimeField(32003)),
                  ("1", "2", "-3")),
    "QQ[t]": (make_ring(["x", "y", "z"], [1, 1, 1], params=["t"]),
              ("1", "-2", "t", "(t - 1)")),
    "QQ[s,t]": (make_ring(["x", "y", "z"], [1, 1, 1], params=["s", "t"]),
                ("1", "3", "s", "t", "(s + t)")),
    "cusp": (make_ring(["x", "y", "z"], [1, 1, 1], params=["s", "t"],
                       relations=["s^2 - t^3"]), ("1", "-1", "s", "t")),
}


def _form(rng, ring, degree, coeffs):
    """A form of the given x-degree: up to three terms, or rarely zero."""
    if rng.random() < 0.1:
        return ring.zero()
    terms = []
    for _ in range(rng.randint(1, 3)):
        mono = [rng.choice(ring.names[:ring.nx]) for _ in range(degree)]
        terms.append("*".join([rng.choice(coeffs)] + mono))
    return ring.poly(" + ".join(terms))


def walk_draws(name, count=8):
    """count presentations over the named base, alternately ideals with
    two or three generators of degree 1 to 3 and rank-two modules with
    generators in degrees 0 and 0 or 1, whose degree-zero entries may be
    units.  Half of them get a redundant relation, a linear multiple of
    the first, whose syzygy has a unit entry."""
    ring, coeffs = WALK_BASES[name]
    rng = random.Random("walk-" + name)
    out = []
    for k in range(count):
        if k % 2 == 0:
            target = FreeModule(ring, [(0,)])
            shifts = (0,)
        else:
            shifts = rng.choice([(0, 1), (0, 0)])
            target = FreeModule(ring, [(s,) for s in shifts])
        cols = []
        for _ in range(rng.randint(2, 3)):
            degree = rng.randint(1, 3 if len(shifts) == 1 else 2)
            col = target.element([_form(rng, ring, degree - s, coeffs) for s in shifts])
            if col:
                cols.append(col)
        if not cols:
            cols.append(target.element([ring.poly("x")] + [ring.zero()] * (len(shifts) - 1)))
        if k % 4 < 2:
            cols.append(cols[0].scale(_form(rng, ring, 1, coeffs) or ring.poly("y")))
        out.append(Presentation(FreeMap.from_columns(target, cols)))
    return out


def _has_unit_entry(complex_):
    return any((v := p.constant_value()) is not None and v
               for fmap in complex_.maps for row in fmap.entries() for p in row)


@pytest.mark.parametrize("name", sorted(WALK_BASES))
def test_the_walk_resolves_minimally_as_it_goes(name):
    for pres in walk_draws(name):
        res = pres.resolution()
        res.check()
        # constant units are units at every fiber: none survives the walk,
        # and over a field that makes the complex minimal
        assert not _has_unit_entry(res), pres
        assert res.pruned and res.raw.raw is None
        got = [m.shifts for m in res.modules]
        want = [m.shifts for m in resolution.minimalize(res.raw).modules]
        if pres.ring.nz:
            # F_{r+1} is a kernel basis that no later stage prunes, and over
            # a parameter base pruning constant units leaves it unique only
            # up to units that are not constant: the QQ[s,t] draws hold one
            # whose F_4 has rank 1 from the walk and 4 from minimalize
            got, want = got[:pres.ring.nx + 1], want[:pres.ring.nx + 1]
        assert got == want, pres
        for d in range(-3, 3):
            assert (localcohom.route_dims_at_degree(res, (d,))[0]
                    == localcohom.route_dims_at_degree(res.raw, (d,))[0]), (pres, d)


RB = make_ring(["u", "v"], [(1, 0), (1, 0)], yvars=["x", "y"],
               ydegrees=[(0, 1), (0, 1)])


def _count_raw_walks(monkeypatch):
    walks = []
    real = resolution._walk

    def spy(relations, length, cancel):
        walks.append(cancel)
        return real(relations, length, cancel)

    monkeypatch.setattr(resolution, "_walk", spy)
    return walks


@pytest.mark.parametrize("name", ["QQ", "GF(32003)"])
def test_a_singly_graded_field_table_never_builds_the_raw_complex(name, monkeypatch):
    walks = _count_raw_walks(monkeypatch)
    for pres in walk_draws(name, 4):
        localcohom.local_cohomology_table(pres, [(d,) for d in range(-3, 3)])
        localcohom.cohomology_invariants(pres)
    assert walks == [True] * 4


def test_a_bigraded_field_table_builds_the_raw_complex_once(monkeypatch):
    walks = _count_raw_walks(monkeypatch)
    f = RB.poly("x^2*v^2 - 3*x*y*u*v + 2*y^2*u^2")
    pres = Presentation.cyclic(RB, [f, RB.poly("u") * f, RB.poly("y") * f])
    localcohom.local_cohomology_table(pres, [(-1, 2), (-4, 3)])
    localcohom.local_cohomology_table(pres, [(-6, 2), (0, 0)])
    assert walks == [True, False]
    assert [m.rank for m in pres.resolution().modules] == [1, 1]
    assert [m.rank for m in pres.resolution().raw.modules] == [1, 3, 3, 1]


def test_the_unbuilt_raw_complex_holds_no_presentation():
    # the raw walk waits on the relations map alone: a presentation and
    # the complex it owns form no reference cycle
    pres = walk_draws("QQ", 1)[0]
    res = pres.resolution()
    assert res.pruned
    assert not any(isinstance(r, partial) for r in gc.get_referrers(pres))
    assert [m.rank for m in res.modules] == [1, 2, 1]
    assert [m.rank for m in res.raw.modules] == [1, 3, 3, 1]
