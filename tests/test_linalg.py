"""The sparse elimination kernel against definitional computations.

Random sparse and dense matrices over QQ, GF(32003), QQ[t], QQ[s,t],
GF(32003)[t], QQ[s,t]/(s^2 - t^3) and QQ[t]/(2*t^2 - 1).  Ranks are
compared with evaluate-then-eliminate and with minors, pivots with the
pivot rule stated through minors, every minor with a cofactor expansion,
and unit pivots with the same elimination on Polys.  The kernel clears
the denominators of each row and runs on ints, so entries with
denominators check that the row scales are divided out again.
"""

import random
from math import gcd

import pytest

from gradedfibers import groebner, linalg, specialize, strands
from gradedfibers.errors import AlgebraError, BaseNotDomain
from gradedfibers.rings import PrimeField, make_ring

Rq = make_ring(["x"], [1])
Rp = make_ring(["x"], [1], field=PrimeField(32003))
Rt = make_ring(["x"], [1], params=["t"])
Rst = make_ring(["x"], [1], params=["s", "t"])
Rc = make_ring(["x"], [1], params=["s", "t"], relations=["s^2 - t^3"])
Rpt = make_ring(["x"], [1], params=["t"], field=PrimeField(32003))
# t^2 reduces to 1/2: reducing modulo the relation brings denominators
Rh = make_ring(["x"], [1], params=["t"], relations=["2*t^2 - 1"])

POOLS = {
    Rt: ["1", "-2", "t", "t - 1", "t^2", "3*t + 1"],
    Rst: ["1", "s", "t", "s - t", "s*t", "t + 2"],
    Rc: ["1", "s", "t", "s + t", "t^2", "s*t"],  # t^3 reduces to s^2
}

# entries with denominators; over GF(32003) they are residues
FRACTION_POOLS = {
    Rt: ["1/2", "t/3", "7/2*t - 1", "t^2", "-2/5", "3*t + 1/4"],
    Rst: ["s/3", "1/2*t", "s - 7/2*t", "s*t/4", "3", "t + 2/7"],
    Rpt: ["1/2", "t/3", "7/2*t - 1", "t^2 + 5", "t", "-2/5"],
    Rc: ["s/2", "t/3", "s + 7/2*t", "t^2/5", "1", "s*t/6"],
    Rh: ["1/3", "t", "3*t + 1", "t/5", "2", "t - 1/2"],
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


def rand_poly_rows(ring, rng, nr, nc, density, pools=POOLS):
    pool = [ring.poly(s) for s in pools[ring]]
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
        if ring is Rt or ring is Rpt:
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
    check_unit_pivots(ring, POOLS, random.Random(32))


@pytest.mark.parametrize("ring", [Rt, Rst, Rpt, Rc, Rh])
def test_unit_pivots_with_denominators(ring):
    check_unit_pivots(ring, FRACTION_POOLS, random.Random(37))


def check_unit_pivots(ring, pools, rng):
    """Fitting: pivots + rank of the residual is the rank, and the
    residual holds no unit; the pivot rule takes the first row with a
    unit at its first unit column.  Pivots and residual equal those of
    the elimination on Polys term for term, and the int rows the kernel
    keeps are in lowest terms with their scales."""
    for density in (0.3, 0.8):
        for _ in range(10):
            nr, nc = rng.randint(1, 8), rng.randint(1, 12)
            rows = rand_poly_rows(ring, rng, nr, nc, density, pools)
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
            want_pivots, want_residual = poly_unit_pivots(rows)
            assert pivots == want_pivots
            assert list(residual) == list(want_residual)
            for i, row in residual.items():
                assert list(row) == list(want_residual[i])
                assert all(p.terms == want_residual[i][j].terms for j, p in row.items())
            check_int_rows_in_lowest_terms(rows, ring)


def poly_unit_pivots(rows):
    """Reference: unit-pivot elimination on Polys, each update a Poly
    multiple (a/c)*P of the pivot row subtracted from the row."""
    def unit_col(row):
        return min((j for j, e in row.items() if e.constant_value() is not None), default=None)

    def pivot(prow, j):
        inv = prow[j].ring.field.one / prow[j].constant_value()
        others = [(l, q) for l, q in prow.items() if l != j]

        def update(row, _k):
            scale = row[j].map_coeffs(lambda v: v * inv)
            new = dict(row)
            del new[j]
            for l, q in others:
                old = new.get(l)
                v = -(scale * q) if old is None else old - scale * q
                if v:
                    new[l] = v
                else:
                    new.pop(l, None)
            return new

        return update

    return linalg._unit_eliminate(rows, unit_col, pivot)


def check_int_rows_in_lowest_terms(rows, ring):
    """Every row the int kernel leaves has a positive scale sharing no
    factor with all of its coefficients (scales are 1 over GF(p))."""
    work, scales = linalg._int_rows(rows, ring.field.char)
    _pivots, residual = linalg._unit_eliminate(
        work, linalg._int_unit_col(ring.nvars), linalg._int_pivot(ring, scales))
    for i, row in residual.items():
        assert scales[i] >= 1 and (scales[i] == 1 or not ring.field.char)
        assert gcd(scales[i], *(c for e in row.values() for c in e.values())) == 1


def test_unit_after_reduction_modulo_the_relation():
    # row 1 becomes s^2 + 1 - t*t^2 in column 1, which is 1 modulo
    # s^2 - t^3: a unit only once the product is reduced
    rows = [{0: Rc.poly("1"), 1: Rc.poly("t^2")},
            {0: Rc.poly("t"), 1: Rc.poly("s^2 + 1"), 2: Rc.poly("s")},
            {1: Rc.poly("s"), 2: Rc.poly("t")}]
    pivots, residual = linalg.unit_pivots(rows, Rc)
    assert pivots == [(0, 0), (1, 1)]
    assert residual == {2: {2: Rc.poly("t - s^2")}}
    assert (pivots, residual) == poly_unit_pivots(rows)


@pytest.mark.parametrize("ring", [Rt, Rst, Rc])
def test_domain_rank_pivots_and_minor(ring):
    check_domain_rank(ring, POOLS, random.Random(33))


@pytest.mark.parametrize("ring", [Rt, Rst, Rpt, Rc])
def test_domain_rank_with_denominators(ring):
    check_domain_rank(ring, FRACTION_POOLS, random.Random(35))


def check_domain_rank(ring, pools, rng):
    zero = ring.zero()
    for density in (0.35, 0.9):
        for _ in range(8):
            nr, nc = rng.randint(1, 6), rng.randint(1, 10)
            rows = rand_poly_rows(ring, rng, nr, nc, density, pools)
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
    if ring is Rq:
        pool = ["1", "-1", "2", "1/3", "-5"]
    else:
        pool = POOLS[ring]
    check_domain_det(ring, pool, random.Random(34))


@pytest.mark.parametrize("ring", [Rt, Rst, Rpt, Rc])
def test_domain_det_with_denominators(ring):
    check_domain_det(ring, FRACTION_POOLS[ring], random.Random(36))


def check_domain_det(ring, pool, rng):
    pool = [ring.poly(s) for s in pool]
    for density in (0.4, 1.0):
        for _ in range(10):
            n = rng.randint(1, 6 if density < 1 else 5)
            rows = rand_rows(rng, n, n, lambda: rng.choice(pool), density)
            want = cofactor_det(dense(rows, n, ring.zero()), ring)
            assert linalg.domain_det(rows, ring) == want


R7 = make_ring(["x"], [1], params=["s", "t"], field=PrimeField(7))

# entries of degree 30 and more: Bareiss multiplies them into minors of
# degree near 200, whose packed exponent fields must not overflow
PACKING_POOLS = {
    Rst: ["s^31 - t^30", "s^17*t^15 + 2", "t^33", "s*t^29 - 1", "s - t", "3"],
    R7: ["s^31 + 3*t^30", "s^16*t^15 - 2", "t^33", "s*t^29 + s", "s - t", "3"],
    Rc: ["s*t^31 + 1", "t^30 - s", "s^2*t^28", "s + t", "t^32 - 2*s*t", "5"],
}


@pytest.mark.parametrize("ring", [Rst, R7, Rc], ids=["QQ[s,t]", "GF(7)[s,t]", "cusp"])
def test_packed_bareiss_matches_cofactor(ring):
    # the determinant and the certifying minor, with monomials packed into
    # ints, against the cofactor expansion on Polys
    rng = random.Random(37)
    check_domain_det(ring, PACKING_POOLS[ring], rng)
    pool = [ring.poly(s) for s in PACKING_POOLS[ring]]
    for _ in range(10):
        nr, nc = rng.randint(1, 5), rng.randint(1, 6)
        rows = rand_rows(rng, nr, nc, lambda: rng.choice(pool), 0.7)
        m = dense(rows, nc, ring.zero())
        rank, prows, pcols, minor = linalg.domain_rank(rows, ring)
        sub = [[m[i][j] for j in pcols] for i in prows]
        assert minor == (cofactor_det(sub, ring) if rank else ring.one())
        assert groebner.matrix_rank_generic(m, ring) == (rank, sorted(prows), pcols, minor)


def test_packed_division_reads_divisibility_off_the_guard_bits():
    # s^3*t and s^2 divide exactly; s*t^2 by s^2 borrows out of the s field
    rows, guard, unpack = linalg._packed(
        [{0: {(0, 3, 1): 1}, 1: {(0, 1, 2): 1}, 2: {(0, 2, 0): 1}}], 3)
    (s3t,), (st2,), (s2,) = (list(rows[0][j]) for j in range(3))
    assert unpack(linalg._packed_div({s3t: 6}, {s2: 2}, guard, 0)) == {(0, 1, 1): 3}
    with pytest.raises(AlgebraError, match="inexact"):
        linalg._packed_div({st2: 1}, {s2: 1}, guard, 0)
    with pytest.raises(AlgebraError, match="inexact"):
        linalg._packed_div({s3t: 3}, {s3t: 2}, guard, 0)


def test_generic_rank_needs_a_domain():
    A = make_ring(["x"], [1], params=["z"], relations=["z^2 - z"])
    with pytest.raises(BaseNotDomain):
        linalg.domain_rank([{0: A.poly("z")}], A)


def test_row_scales_are_divided_out():
    """Rows scaled by 1/6 and 2/3: the minor and the determinant carry
    exactly those factors, and a row permutation flips the sign."""
    m = [[Rt.poly("t/6"), Rt.poly("1/6")], [Rt.poly("2/3"), Rt.poly("2/3*t + 2")]]
    rows = [{j: e for j, e in enumerate(row)} for row in m]
    want = Rt.poly("t^2/9 + t/3 - 1/9")
    assert cofactor_det(m, Rt) == want
    assert linalg.domain_det(rows, Rt) == want
    assert linalg.domain_det(rows[::-1], Rt) == -want
    assert linalg.domain_rank(rows, Rt) == (2, [0, 1], [0, 1], want)
    assert linalg.domain_rank([rows[0]], Rt) == (1, [0], [0], Rt.poly("t/6"))
