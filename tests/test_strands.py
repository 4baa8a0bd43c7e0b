"""Strand matrices over the base: ranks, minors, fiber evaluation.

The unit-pivot reduction, the minors that stop at the generic rank and
the rank-drop loci read off a cokernel's non-free locus are internal
shortcuts; the loops here pin them to the definitional computations
(evaluate-then-eliminate, enumerate-all-minors) on random inputs.
"""

import random
from itertools import combinations

import pytest

from gradedfibers.errors import AlgebraError
from gradedfibers.modules import FreeModule, FreeMap
from gradedfibers.rings import make_ring, transfer
from gradedfibers import groebner, linalg, loci, specialize, strands


Rt = make_ring(["x", "y"], [1, 1], params=["t"])
Rst = make_ring(["x", "y"], [1, 1], params=["s", "t"])
Rcusp = make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"])


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


def enumerated_minors(sm, size):
    """Every nonzero size x size minor of the strand's own entries, one
    determinant per pair of row and column sets."""
    if size <= 0:
        return [sm.ring.one()]
    ent = sm.entries
    out = []
    for rs in combinations(range(sm.nrows), size):
        for cs in combinations(range(sm.ncols), size):
            d = linalg.domain_det(sparse([[ent[i][j] for j in cs] for i in rs]), sm.ring)
            if not d.is_zero():
                out.append(d)
    return out


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
                    d = linalg.domain_det(sparse(sub), Rst)
                    if not d.is_zero():
                        ref.append(d)
            if not got or not ref:
                assert not got and not ref
                continue
            assert groebner.ideal_equal(got, ref, ring=Rst)


def test_minors_enumeration_guard():
    # s on the diagonal and t elsewhere has full generic rank, so its
    # 13-minors are enumerated, and there are too many of them
    n = 26
    ent = [[Rst.poly("s" if i == j else "t") for j in range(n)] for i in range(n)]
    sm = strands.StrandMatrix(Rst, [("r", i) for i in range(n)],
                              [("c", j) for j in range(n)], sparse(ent))
    with pytest.raises(AlgebraError, match="minor enumeration too large"):
        sm.minors_ideal(13)


def rand_deficient(ring, rng, nr, nc, pool):
    """A random strand whose last row is, half the time, a multiple of its
    first, so that its generic rank falls below its size."""
    sm = rand_matrix(ring, rng, nr, nc, pool)
    if nr > 1 and rng.random() < 0.5:
        c = ring.poly(rng.choice(pool[2:]))
        sm.data[-1] = {j: c * p for j, p in sm.data[0].items()}
    return sm


def same_locus(gens_a, gens_b, ring):
    """V(gens_a) = V(gens_b): each generator of one side lies in the
    radical of the other, that is J + (1 - w*g) is the unit ideal over the
    base with one more parameter w (Rabinowitsch)."""
    big = make_ring(list(ring.xnames), [1] * ring.nx, params=list(ring.znames) + ["w"],
                    relations=[str(r.component(0)) for r in ring.base_basis() or ()],
                    field=ring.field)
    w = big.var("w")

    def inside(gens, ideal):
        ideal = [transfer(h, big) for h in ideal]
        return all(groebner.ideal_equal(ideal + [big.one() - w * transfer(g, big)],
                                        [big.one()], ring=big) for g in gens)

    return inside(gens_a, gens_b) and inside(gens_b, gens_a)


PARAM_POOLS = [
    (Rst, ["0", "0", "1", "s", "t", "s - t", "s*t", "t + 1", "s^2"]),
    (Rcusp, ["0", "0", "1", "s", "t", "s - t", "t^2", "s*t", "t + 1"]),
]


# rational points of each base, where the rank is checked pointwise
RATIONAL = {
    "QQ[t]": [{"t": v} for v in range(-6, 7)],
    "QQ[s,t]": [{"s": a, "t": b} for a in range(-2, 3) for b in range(-2, 3)],
    "cusp": [{"s": u ** 3, "t": u ** 2} for u in range(-3, 4)],
}


@pytest.mark.parametrize("ring, pool, name", [
    (Rt, POOL + ["t^2 + 1"], "QQ[t]"),  # the prime t^2 + 1 has no rational point
    PARAM_POOLS[0] + ("QQ[s,t]",),
    PARAM_POOLS[1] + ("cusp",),
], ids=["QQ[t]", "QQ[s,t]", "cusp"])
def test_rank_drop_locus_matches_the_minors(ring, pool, name):
    # the locus has the zeros of the enumerated minors of the generic rank,
    # and a rational point lies on it exactly when the rank drops there
    rng = random.Random(25)
    for _ in range(25):
        sm = rand_deficient(ring, rng, rng.randint(1, 4), rng.randint(1, 4), pool)
        rank = sm.generic_rank()[0]
        got = loci.rank_drop_locus(sm, ring)
        assert same_locus(got, enumerated_minors(sm, rank), ring)
        for values in RATIONAL[name]:
            point = specialize.FiberPoint.rational(ring, values)
            drops = sm.rank_at(point) < rank
            assert drops == all(not point.evaluate_scalar(g) for g in got), values


def test_rank_drop_locus_past_the_minor_cap():
    # [D | D] with s on the diagonal of D and t elsewhere: its 13-minors
    # are past the enumeration cap, and its rank drops where det D =
    # (s - t)^12 (s + 12 t) vanishes
    n = 13
    ent = [[Rst.poly("s" if i == j % n else "t") for j in range(2 * n)] for i in range(n)]
    sm = strands.StrandMatrix(Rst, [("r", i) for i in range(n)],
                              [("c", j) for j in range(2 * n)], sparse(ent))
    assert sm.generic_rank()[0] == n
    with pytest.raises(AlgebraError, match="minor enumeration too large"):
        sm.minors_ideal(n)
    assert [str(g) for g in loci.rank_drop_locus(sm, Rst)] == ["s^2 + 11*s*t - 12*t^2"]


@pytest.mark.parametrize("ring, pool", PARAM_POOLS, ids=["QQ[s,t]", "cusp"])
def test_minors_ideal_enumerates_each_size_once(ring, pool, monkeypatch):
    # a repeated size, a size above the generic rank and a square strand of
    # full generic rank make no determinant call
    calls = []
    det = linalg.domain_det

    def counted(rows, base):
        calls.append(len(rows))
        return det(rows, base)

    monkeypatch.setattr(linalg, "domain_det", counted)
    rng = random.Random(26)
    for _ in range(20):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        sm = rand_deficient(ring, rng, nr, nc, pool)
        rank, minor = sm.generic_rank()
        for size in range(1, min(nr, nc) + 1):
            want = enumerated_minors(sm, size)
            del calls[:]
            got = sm.minors_ideal(size)
            if size > rank:
                assert got == [] and want == [] and calls == []
            elif not got or not want:
                assert not got and not want
            else:
                assert groebner.ideal_equal(got, want, ring=ring)
            del calls[:]
            assert sm.minors_ideal(size) is got and calls == []
        if nr == nc == rank:
            fresh = strands.StrandMatrix(ring, sm.rows, sm.cols, sm.data)
            del calls[:]
            assert fresh.minors_ideal(nr) == [minor] and calls == []


def test_full_rank_square_strand_gives_its_certifying_minor(monkeypatch):
    # an upper triangular 3 x 3 strand with no unit: its one 3-minor is the
    # product of the diagonal, read off generic_rank with no determinant
    monkeypatch.setattr(linalg, "domain_det", None)
    ent = [["s", "t", "s*t"], ["0", "t", "s - t"], ["0", "0", "s + t"]]
    sm = strands.StrandMatrix(Rst, [("r", i) for i in range(3)], [("c", j) for j in range(3)],
                              sparse([[Rst.poly(e) for e in row] for row in ent]))
    assert sm.generic_rank()[0] == 3
    (got,) = sm.minors_ideal(3)
    assert groebner.ideal_equal([got], [Rst.poly("s*t*(s + t)")], ring=Rst)
    assert sm.minors_ideal(4) == []
