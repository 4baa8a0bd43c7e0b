"""The sparse elimination kernel against definitional computations.

Random sparse and dense matrices over QQ, GF(32003), QQ[t], QQ[s,t] and
QQ[s,t]/(s^2 - t^3).  Ranks are compared with evaluate-then-eliminate
and with minors, pivots with the pivot rule stated through minors, and
every minor with a cofactor expansion.
"""

import random

import pytest

from gradedfibers import groebner, linalg, specialize, strands
from gradedfibers.errors import BaseNotDomain
from gradedfibers.rings import PrimeField, make_ring

Rq = make_ring(["x"], [1])
Rp = make_ring(["x"], [1], field=PrimeField(32003))
Rt = make_ring(["x"], [1], params=["t"])
Rst = make_ring(["x"], [1], params=["s", "t"])
Rc = make_ring(["x"], [1], params=["s", "t"], relations=["s^2 - t^3"])

POOLS = {
    Rt: ["1", "-2", "t", "t - 1", "t^2", "3*t + 1"],
    Rst: ["1", "s", "t", "s - t", "s*t", "t + 2"],
    Rc: ["1", "s", "t", "s + t", "t^2", "s*t"],  # t^3 reduces to s^2
}


def rand_rows(rng, nr, nc, entry, density):
    """Sparse rows with about density * nc nonzero entries each."""
    rows = []
    for _ in range(nr):
        row = {}
        for j in range(nc):
            if rng.random() < density:
                v = entry()
                if v:
                    row[j] = v
        rows.append(row)
    return rows


def rand_poly_rows(ring, rng, nr, nc, density):
    pool = [ring.poly(s) for s in POOLS[ring]]
    return rand_rows(rng, nr, nc, lambda: rng.choice(pool), density)


def dense(rows, nc, zero):
    return [[row.get(j, zero) for j in range(nc)] for row in rows]


def cofactor_det(m, ring):
    """Laplace expansion along the first row."""
    n = len(m)
    if n == 0:
        return ring.one()
    out = ring.zero()
    for j in range(n):
        if m[0][j].is_zero():
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor, ring)
        out = out + term if j % 2 == 0 else out - term
    return out


def plain_rank(m, field):
    """Gaussian elimination on a dense copy, the textbook way."""
    m = [list(r) for r in m]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def points_of(ring, rng, count):
    out = []
    for _ in range(count):
        a = rng.randint(-4, 4)
        if ring is Rt:
            out.append({"t": a})
        elif ring is Rst:
            out.append({"s": a, "t": rng.randint(-4, 4)})
        else:
            out.append({"s": a ** 3, "t": a ** 2})  # on s^2 = t^3
    return [specialize.FiberPoint.rational(ring, v) for v in out]


def evaluated_rank(rows, nc, ring, point):
    field = ring.field
    m = [[point.evaluate_scalar(p) for p in row] for row in dense(rows, nc, ring.zero())]
    return plain_rank(m, field)


@pytest.mark.parametrize("ring", [Rq, Rp])
def test_field_rank_and_unit_pivots(ring):
    rng = random.Random(31)
    field = ring.field
    for density in (0.15, 0.9):
        for _ in range(12):
            nr, nc = rng.randint(1, 12), rng.randint(1, 30)
            rows = rand_rows(rng, nr, nc, lambda: field.coerce(rng.randint(-3, 3)), density)
            want = plain_rank(dense(rows, nc, field.zero), field)
            assert linalg.field_rank(rows, field) == want
            assert strands.scalar_rank(dense(rows, nc, field.zero), field) == want
            # over a field base every nonzero entry is a unit: the unit
            # pivots take the whole rank and leave zero rows
            polys = [{j: ring.constant(v) for j, v in row.items()} for row in rows]
            pivots, residual = linalg.unit_pivots(polys, ring)
            assert len(pivots) == want
            assert not any(residual.values())
            assert len(residual) == nr - want
            if want:  # the first pivot: first nonzero row, first nonzero column
                i = next(k for k, row in enumerate(rows) if row)
                assert pivots[0] == (i, min(rows[i]))


@pytest.mark.parametrize("ring", [Rt, Rst, Rc])
def test_unit_pivots_keep_minors(ring):
    """Fitting: pivots + rank of the residual is the rank, and the
    residual holds no unit; the pivot rule takes the first row with a
    unit at its first unit column."""
    rng = random.Random(32)
    for density in (0.3, 0.8):
        for _ in range(10):
            nr, nc = rng.randint(1, 8), rng.randint(1, 12)
            rows = rand_poly_rows(ring, rng, nr, nc, density)
            pivots, residual = linalg.unit_pivots(rows, ring)
            units = [(i, j) for i, row in enumerate(rows) for j in sorted(row)
                     if row[j].constant_value() is not None]
            assert bool(pivots) == bool(units)
            if units:
                assert pivots[0] == units[0]
            for row in residual.values():
                assert all(p.constant_value() is None for p in row.values())
            used = {j for _i, j in pivots}
            assert all(not used & set(row) for row in residual.values())
            rank = linalg.domain_rank(rows, ring)[0]
            assert rank == len(pivots) + linalg.domain_rank(list(residual.values()), ring)[0]


@pytest.mark.parametrize("ring", [Rt, Rst, Rc])
def test_domain_rank_pivots_and_minor(ring):
    rng = random.Random(33)
    zero = ring.zero()
    for density in (0.35, 0.9):
        for _ in range(8):
            nr, nc = rng.randint(1, 6), rng.randint(1, 10)
            rows = rand_poly_rows(ring, rng, nr, nc, density)
            m = dense(rows, nc, zero)
            rank, prows, pcols, minor = linalg.domain_rank(rows, ring)

            def bordered(i, c, k):
                sub = [[m[r][j] for j in pcols[:k] + [c]] for r in prows[:k] + [i]]
                return cofactor_det(sub, ring)

            # the minor is the determinant of the pivot submatrix
            sub = [[m[i][j] for j in pcols] for i in prows]
            assert minor == (cofactor_det(sub, ring) if rank else ring.one())
            assert not minor.is_zero()
            # the pivot rule: column by column, the first unused row whose
            # bordered minor is nonzero; past the last pivot every bordered
            # minor vanishes, which pins the rank as well
            for k in range(rank + 1):
                lo = pcols[k - 1] + 1 if k else 0
                last = pcols[k] if k < rank else nc - 1
                for c in range(lo, last + 1):
                    for i in range(nr):
                        if i in prows[:k]:
                            continue
                        if k < rank and (c, i) == (pcols[k], prows[k]):
                            assert not bordered(i, c, k).is_zero()
                            break
                        assert bordered(i, c, k).is_zero()
            assert groebner.matrix_rank_generic(m, ring) == (rank, sorted(prows), pcols, minor)
            # evaluate then eliminate: never above the generic rank, equal
            # wherever the certificate does not vanish
            for point in points_of(ring, rng, 4):
                r = evaluated_rank(rows, nc, ring, point)
                assert r <= rank
                if point.evaluate_scalar(minor):
                    assert r == rank


@pytest.mark.parametrize("ring", [Rq, Rt, Rst, Rc])
def test_domain_det_matches_cofactor(ring):
    rng = random.Random(34)
    if ring is Rq:
        pool = [ring.poly(s) for s in ["1", "-1", "2", "1/3", "-5"]]
    else:
        pool = [ring.poly(s) for s in POOLS[ring]]
    for density in (0.4, 1.0):
        for _ in range(10):
            n = rng.randint(1, 6 if density < 1 else 5)
            rows = rand_rows(rng, n, n, lambda: rng.choice(pool), density)
            want = cofactor_det(dense(rows, n, ring.zero()), ring)
            assert linalg.domain_det(rows, ring) == want
            assert groebner._exact_det(dense(rows, n, ring.zero()), ring) == want


def test_generic_rank_needs_a_domain():
    A = make_ring(["x"], [1], params=["z"], relations=["z^2 - z"])
    with pytest.raises(BaseNotDomain):
        linalg.domain_rank([{0: A.poly("z")}], A)
