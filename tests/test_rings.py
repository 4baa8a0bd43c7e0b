"""Ring construction, grading checks, polynomial arithmetic."""

import random

import pytest

from gradedfibers.errors import (
    AlgebraError,
    BadBigrading,
    NotHomogeneous,
    PositivityViolation,
    RingMismatch,
)
from gradedfibers.rings import (
    MonomialOrder,
    PrimeField,
    QQ,
    make_ring,
    transfer,
)


def std_ring():
    return make_ring(["x", "y"], [1, 1])


def test_make_ring_defaults():
    R = std_ring()
    assert R.names == ("x", "y")
    assert R.gdim == 1
    assert R.nx == 2 and R.ny == 0 and R.nz == 0
    assert R.deg_tuple(3) == (3,)
    assert R.deg_tuple((3,)) == (3,)
    assert R.zero_degree() == (0,)


def test_make_ring_rejects_bad_input():
    with pytest.raises(AlgebraError):
        make_ring([], [])
    with pytest.raises(AlgebraError):
        make_ring(["x", "x"], [1, 1])
    with pytest.raises(AlgebraError):
        make_ring(["x", "y"], [1])
    with pytest.raises(AlgebraError):
        make_ring(["x", "y"], [1, (1, 0)])  # mixed grading ranks
    with pytest.raises(PositivityViolation):
        make_ring(["x", "y"], [1, -1])
    with pytest.raises(PositivityViolation):
        make_ring(["x", "y"], [1, 0])


def test_bigraded_block_conventions():
    R = make_ring(["u", "v"], [(1, 0), (1, 0)], yvars=["x", "y"],
                  ydegrees=[(0, 1), (0, 1)], params=["s", "t"])
    assert R.gdim == 2
    assert R.deg_tuple((1, 2)) == (1, 2)
    with pytest.raises(AlgebraError):
        R.deg_tuple(3)  # a bare int is ambiguous over Z^2
    with pytest.raises(BadBigrading):
        make_ring(["u"], [(0, 0)], yvars=["x"], ydegrees=[(0, 1)])
    with pytest.raises(BadBigrading):
        make_ring(["u"], [(1, 0)], yvars=["x"], ydegrees=[(1, 1)])


def test_poly_parse_and_arithmetic():
    R = std_ring()
    p = R.poly("(x + y)^2")
    q = R.poly("x^2 + 2*x*y + y^2")
    assert p == q
    assert (p - q).is_zero()
    assert R.poly("x") * R.poly("0") == R.zero()
    assert str(R.poly("x - x")) == "0"
    # parsing accepts redundant whitespace and nested parens
    assert R.poly(" ( x ) * (y + (x))") == R.poly("x*y + x^2")


def test_poly_str_reparses():
    R = make_ring(["x", "y"], [1, 1], params=["t"])
    rng = random.Random(0)
    names = ["x", "y", "t"]
    for _ in range(60):
        terms = []
        for _ in range(rng.randint(1, 5)):
            c = rng.randint(-4, 4)
            if c == 0:
                continue
            mono = "*".join("%s^%d" % (rng.choice(names), rng.randint(1, 3))
                            for _ in range(rng.randint(0, 3)))
            terms.append(str(c) + ("*" + mono if mono else ""))
        src = " + ".join(terms) if terms else "0"
        p = R.poly(src)
        assert R.poly(str(p)) == p


def test_degrees_and_homogeneity():
    R = std_ring()
    assert R.poly("x^2*y").degree() == (3,)
    with pytest.raises(NotHomogeneous):
        R.poly("x + x*y").degree()
    # parameters do not contribute to the degree
    A = make_ring(["x"], [1], params=["t"])
    assert A.poly("t^5*x").degree() == (1,)
    assert A.poly("t^2 - 3").degree() == (0,)


def test_monomial_counts():
    R = std_ring()
    for d in range(6):
        assert len(R.monomials_of_degree((d,))) == d + 1
    assert not R.monomials_of_degree((-1,))
    B = make_ring(["u", "v"], [(1, 0), (1, 0)], yvars=["x", "y"],
                  ydegrees=[(0, 1), (0, 1)])
    assert len(B.monomials_of_degree((2, 1))) == 6  # 3 uv-monomials x 2


def test_grevlex_vs_lex():
    R = std_ring()
    assert R.poly("x*y^2 + x^2*y").leading_monomial() == (2, 1)
    L = make_ring(["x", "y"], [1, 1],
                  order=MonomialOrder([("lex", [0, 1])]))
    assert L.poly("x*y^2 + x^2*y").leading_monomial() == (2, 1)
    assert L.poly("y^5 + x").leading_monomial() == (1, 0)
    # grevlex is degree first
    assert R.poly("y^5 + x").leading_monomial() == (0, 5)


def test_block_order_keeps_parameters_last():
    # generic lead coefficients of a GB live in the base exactly because
    # the x-block dominates every comparison
    R = make_ring(["x"], [1], params=["t"])
    p = R.poly("t^3 + x")
    assert p.leading_monomial() == (1, 0)


def test_quotient_base():
    A = make_ring(["x"], [1], params=["z"], relations=["z^2 - z"])
    # normal form kicks in on construction
    assert A.poly("z^2") == A.poly("z")
    assert A.poly("z^3 - z") == A.zero()
    assert not A.base_is_domain
    comps = A.minimal_primes()
    assert len(comps) == 2
    assert sorted(str(g) for comp in comps for g in comp) == ["z", "z - 1"]
    B = make_ring(["x"], [1], params=["z"], relations=["z^2 - 2"])
    assert B.base_is_domain  # irreducible relation
    with pytest.raises(AlgebraError):
        make_ring(["x"], [1], params=["z"], relations=["x*z"])


def test_prime_field():
    F = PrimeField(7)
    assert F.coerce(10).v == 3
    a = F.coerce(3) / F.coerce(5)
    assert (a * F.coerce(5)).v == 3
    with pytest.raises(AlgebraError):
        PrimeField(6)
    R = make_ring(["x"], [1], field=PrimeField(5))
    assert R.poly("6*x") == R.poly("x")
    assert R.poly("5*x").is_zero()


def test_prime_field_division_by_zero_is_loud():
    F = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        F.one / F.zero
    with pytest.raises(ZeroDivisionError):
        F.coerce(3) / F.coerce(14)
    R = make_ring(["x"], [1], field=F)
    with pytest.raises(AlgebraError, match="7"):
        R.poly("x/7")
    with pytest.raises(AlgebraError, match="7"):
        R.poly("x/-14")
    assert R.poly("x/3") * R.poly("3") == R.poly("x")


def test_primitive_normalization():
    R = make_ring(["x"], [1], params=["t"])
    p = R.poly("(4*t^2 - 4*t)*x").primitive()
    assert p == R.poly("t^2*x - t*x")
    # monic over a prime field
    Rp = make_ring(["x"], [1], params=["t"], field=PrimeField(101))
    q = Rp.poly("3*t^2 + 6").primitive()
    assert q.leading_term()[1].v == 1


def test_transfer_between_rings():
    A = make_ring(["x", "y"], [1, 1], params=["t"])
    B = make_ring(["x", "y"], [1, 1], params=["t", "u"])
    p = A.poly("t*x^2 - y^2")
    q = transfer(p, B)
    assert str(q) == str(p)
    with pytest.raises(AlgebraError):
        transfer(B.poly("u*x"), A)  # u has nowhere to go


def test_ring_mismatch_guard():
    A = std_ring()
    B = make_ring(["x", "y"], [1, 2])
    with pytest.raises(RingMismatch):
        A.poly("x") + B.poly("x")


def test_random_ring_grading_consistency():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 3)
        degs = [rng.randint(1, 4) for _ in range(n)]
        names = ["x%d" % i for i in range(n)]
        R = make_ring(names, degs)
        # every monomial of a requested degree really has that degree
        d = rng.randint(0, 8)
        for m in R.monomials_of_degree((d,)):
            assert sum(e * w for e, w in zip(m, degs)) == d
