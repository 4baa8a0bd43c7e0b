"""Strand matrices over the base: ranks, minors, fiber evaluation.

The unit-pivot reduction and the univariate Smith route are internal
shortcuts; the loops here pin them to the definitional computations
(evaluate-then-eliminate, enumerate-all-minors) on random inputs.
"""

import random
from itertools import combinations

import pytest

from gradedfibers.errors import AlgebraError
from gradedfibers.modules import FreeModule, FreeMap, Presentation
from gradedfibers.rings import make_ring
from gradedfibers import groebner, resolution, specialize, strands


Rt = make_ring(["x", "y"], [1, 1], params=["t"])
Rst = make_ring(["x", "y"], [1, 1], params=["s", "t"])


def sparse(ent):
    return [{j: p for j, p in enumerate(row) if not p.is_zero()} for row in ent]


def rand_matrix(ring, rng, nr, nc, pool):
    ent = [[ring.poly(rng.choice(pool)) for _ in range(nc)] for _ in range(nr)]
    rows = [("r", i) for i in range(nr)]
    cols = [("c", j) for j in range(nc)]
    return strands.StrandMatrix(ring, rows, cols, sparse(ent))


POOL = ["0", "0", "1", "-2", "t", "t - 1", "t^2", "t*(t + 1)", "3*t - 1", "t^2 - t"]


def test_strand_basis_counts():
    F = FreeModule(Rt, [(0,), (2,)])
    assert len(strands.strand_basis(F, (2,))) == 3 + 1
    assert len(strands.strand_basis(F, (1,))) == 2
    assert len(strands.strand_basis(F, (-1,))) == 0


def test_inverse_strand_basis_counts():
    F = FreeModule(Rt, [(0,)])
    # inverse monomials x^-i y^-j with i + j = d and i, j >= 1
    for d in range(2, 7):
        assert len(strands.inverse_strand_basis(F, (-d,))) == d - 1
    assert len(strands.inverse_strand_basis(F, (-1,))) == 0


def test_strand_matrix_of_multiplication():
    F = FreeModule(Rt, [(0,)])
    fmap = FreeMap.from_columns(F, [F.element([Rt.poly("x")])], check=False)
    sm = strands.strand_matrix(fmap, (1,))
    assert (sm.nrows, sm.ncols) == (2, 1)
    flat = sorted(str(p) for row in sm.entries for p in row)
    assert flat == ["0", "1"]


def test_rank_at_matches_plain_elimination():
    rng = random.Random(21)
    for _ in range(40):
        sm = rand_matrix(Rt, rng, rng.randint(1, 5), rng.randint(1, 5), POOL)
        v = rng.randint(-3, 3)
        point = specialize.FiberPoint.rational(Rt, {"t": v})
        direct = strands.scalar_rank(
            [[point.evaluate_scalar(p) for p in row] for row in sm.entries],
            Rt.field)
        assert sm.rank_at(point) == direct


def test_generic_rank_certificate():
    rng = random.Random(22)
    for _ in range(25):
        sm = rand_matrix(Rt, rng, rng.randint(1, 4), rng.randint(1, 4), POOL)
        rank, minor = sm.generic_rank()
        hits = 0
        for v in range(-6, 7):
            point = specialize.FiberPoint.rational(Rt, {"t": v})
            mv = point.evaluate_scalar(minor)
            if mv:
                assert sm.rank_at(point) == rank
                hits += 1
            else:
                assert sm.rank_at(point) <= rank
        assert hits > 0  # a nonzero certificate has nonvanishing points


def test_minors_ideal_matches_enumeration():
    rng = random.Random(23)
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        sm = rand_matrix(Rt, rng, nr, nc, POOL)
        for size in range(1, min(nr, nc) + 1):
            got = sm.minors_ideal(size)
            ref = []
            for rs in combinations(range(nr), size):
                for cs in combinations(range(nc), size):
                    sub = [[sm.entries[i][j] for j in cs] for i in rs]
                    d = groebner._exact_det(sub, Rt)
                    if not d.is_zero():
                        ref.append(d)
            if not got or not ref:
                assert not got and not ref
                continue
            assert groebner.ideal_equal(got, ref, ring=Rt)


def test_minors_ideal_two_parameter_base():
    rng = random.Random(24)
    pool = ["0", "1", "s", "t", "s - t", "s*t", "t + 1"]
    for _ in range(15):
        nr, nc = rng.randint(1, 3), rng.randint(1, 3)
        sm = rand_matrix(Rst, rng, nr, nc, pool)
        for size in range(1, min(nr, nc) + 1):
            got = sm.minors_ideal(size)
            ref = []
            for rs in combinations(range(nr), size):
                for cs in combinations(range(nc), size):
                    sub = [[sm.entries[i][j] for j in cs] for i in rs]
                    d = groebner._exact_det(sub, Rst)
                    if not d.is_zero():
                        ref.append(d)
            if not got or not ref:
                assert not got and not ref
                continue
            assert groebner.ideal_equal(got, ref, ring=Rst)


def test_minors_enumeration_guard():
    n = 26
    ent = [[Rst.poly("s") for _ in range(n)] for _ in range(n)]
    sm = strands.StrandMatrix(Rst, [("r", i) for i in range(n)],
                              [("c", j) for j in range(n)], sparse(ent))
    with pytest.raises(AlgebraError):
        sm.minors_ideal(13)


def test_free_complex_fiber_homology():
    pres = Presentation.cyclic(Rt, [Rt.poly("x"), Rt.poly("y")])
    res = resolution.free_resolution(pres, 2)
    point = specialize.FiberPoint.rational(Rt, {"t": 1})
    assert strands.free_complex_strand_homology(res, (0,), point) == [1, 0, 0]
    assert strands.free_complex_strand_homology(res, (1,), point) == [0, 0, 0]


def test_fiber_exactness_report_flags_bad_fiber():
    # d_1 = t*x: injective over the base, zero at t = 0
    F0 = FreeModule(Rt, [(0,)])
    F1 = FreeModule(Rt, [(1,)])
    d1 = FreeMap.from_entries(F0, F1, [[Rt.poly("t*x")]], check=False)
    pc = strands.PresentedComplex(
        [Presentation.of_free(F0), Presentation.of_free(F1)], [d1])
    good = specialize.FiberPoint.rational(Rt, {"t": 1})
    bad = specialize.FiberPoint.rational(Rt, {"t": 0})
    rep_good = strands.fiber_exactness_report(pc, (2,), good)
    assert all(agree for (_f, _s, agree) in rep_good)
    rep_bad = strands.fiber_exactness_report(pc, (2,), bad)
    assert not rep_bad[1][2]  # H_1 jumps at the bad fiber
    assert rep_bad[1][0] > rep_bad[1][1]
