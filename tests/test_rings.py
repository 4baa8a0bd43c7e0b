"""Ring construction, grading checks, polynomial arithmetic."""

import json
import random
from fractions import Fraction

import pytest
import sympy

from gradedfibers.errors import (
    AlgebraError,
    BadBase,
    BadBigrading,
    NotHomogeneous,
    PositivityViolation,
    RingMismatch,
)
from gradedfibers import cli, loci, ratmap, script
from gradedfibers.rings import (
    MonomialOrder,
    Poly,
    PrimeField,
    QQ,
    irreducible_factors,
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
    assert R.degree_of(R.poly("x^2*y")) == (3,)
    with pytest.raises(NotHomogeneous):
        R.degree_of(R.poly("x + x*y"))
    # parameters do not contribute to the degree
    A = make_ring(["x"], [1], params=["t"])
    assert A.degree_of(A.poly("t^5*x")) == (1,)
    assert A.degree_of(A.poly("t^2 - 3")) == (0,)


def test_monomial_counts():
    R = std_ring()
    for d in range(6):
        assert len(R.monomials_of_degree((d,))) == d + 1
    assert not R.monomials_of_degree((-1,))
    B = make_ring(["u", "v"], [(1, 0), (1, 0)], yvars=["x", "y"],
                  ydegrees=[(0, 1), (0, 1)])
    assert len(B.monomials_of_degree((2, 1))) == 6  # 3 uv-monomials x 2


MONOMIAL_COUNT_RINGS = {
    "standard": lambda: make_ring(["x", "y", "z"]),
    "weighted": lambda: make_ring(["x", "y", "z"], [1, 2, 3]),
    "bigraded": lambda: make_ring(["u", "v"], [(1, 0), (1, 0)], yvars=["x", "y"]),
    "y-degrees": lambda: make_ring(["u", "v"], [(1, 0), (2, 0)], yvars=["x", "y"],
                                   ydegrees=[(-1, 1), (0, 1)]),
    "parameters": lambda: make_ring(["x", "y"], params=["s", "t"], relations=["s^2 - t^3"]),
    # make_ring asks for a graded variable; a Ring built directly may have none
    "ungraded": lambda: make_ring(["x"], params=["s"])._replace(
        names=("s",), nx=0, degrees=(), order=MonomialOrder([("grevlex", [0])])),
}


@pytest.mark.parametrize("name", sorted(MONOMIAL_COUNT_RINGS))
def test_monomial_count_matches_the_listed_monomials(name):
    R = MONOMIAL_COUNT_RINGS[name]()
    for d in range(-3, 11):
        for deg in [(d,)] if R.gdim == 1 else [(d, b) for b in range(-2, 5)]:
            assert R.monomial_count(deg) == len(R.monomials_of_degree(deg)), deg


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


@pytest.mark.parametrize("params, relations, components", [
    # t is nilpotent: the factor t of t^2 made the base count as a domain,
    # and a generic table with certificate t held at no point
    (["t"], ["t^2"], None),
    # (s) misses the component (t) of s*t = 0
    (["s", "t"], ["s*t"], [["s"]]),
    # (s*t) is no prime: a generic table with certificate s held at no
    # point of the "component" (ROADMAP item 4(a))
    (["s", "t"], ["s*t"], [["s*t"]]),
], ids=["repeated-factor", "missing-component", "reducible-component"])
def test_bases_the_engine_cannot_handle_are_refused(params, relations, components):
    with pytest.raises(BadBase):
        make_ring(["x", "y"], [1, 1], params=params, relations=relations,
                  minimal_primes=components)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="ROADMAP item 4(a): a component with several generators "
                          "is taken on trust, prime or not")
def test_a_component_with_several_generators_is_checked():
    # (s^2, t) is not prime (nor radical), yet it is accepted as the one
    # component of ideal(s^2, t)
    with pytest.raises(BadBase):
        make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2", "t"],
                  minimal_primes=[["s^2", "t"]])


def test_refused_bases_give_input_error_payloads(tmp_path):
    bases = ["quotient(poly(QQ, t), ideal(t^2))",
             "quotient(poly(QQ, s, t), ideal(s*t), components((s)))",
             "quotient(poly(QQ, s, t), ideal(s*t), components((s*t)))"]
    for k, base in enumerate(bases):
        text = ("ring R base %s vars x:1 y:1;\nideal I = (x^2, t*x*y, y^2);\n"
                "cmd localcoh I window [0, 3];\n" % base)
        out = tmp_path / str(k)
        assert cli.run(script.parse(text), out_dir=str(out)) == 1
        error = json.loads((out / "01_localcoh.json").read_text())["error"]
        assert (error["type"], error["kind"]) == ("BadBase", "input")


def test_complete_components_and_squarefree_relations_are_kept():
    A = make_ring(["x"], [1], params=["s", "t"], relations=["s*t"],
                  minimal_primes=[["s"], ["t"]])
    assert len(A.minimal_primes()) == 2
    B = make_ring(["x"], [1], params=["t"], relations=["2*t^2 - 2*t"])
    assert sorted(str(g) for (g,) in B.minimal_primes()) == ["t", "t - 1"]


def test_with_graded_keeps_the_base():
    # the twisted cubic curve as a base, its one component given explicitly
    A = make_ring(["x", "y"], [1, 1], params=["a", "b", "c"],
                  relations=["b - a^2", "c - a^3"],
                  minimal_primes=[["b - a^2", "c - a^3"]])
    assert A.base_is_domain
    B = A.with_graded(["x", "y", "Y0", "T"], [1, 1, 1, 1])
    assert B.znames == A.znames and B.field == A.field
    assert B.base_is_domain
    assert [[str(g) for g in comp] for comp in B.minimal_primes()] \
        == [[str(g) for g in comp] for comp in A.minimal_primes()]
    assert B.minimal_primes_raw == tuple(
        tuple(tuple(((0, 0, 0, 0) + e[2:], c) for e, c in t) for t in comp)
        for comp in A.minimal_primes_raw)
    assert B.poly("c*Y0") == B.poly("a^3*Y0")
    assert B.order == make_ring(["x", "y", "Y0", "T"], [1, 1, 1, 1],
                                params=["a", "b", "c"]).order
    # the image ring is derived this way
    image = ratmap._image_data(ratmap.RationalMap(A, ["x^2", "a*x*y", "y^2"]), None)
    assert image["tring"].base_is_domain


def test_one_relation_over_a_prime_field_records_no_components():
    A = make_ring(["x"], [1], params=["z"], relations=["z^2 - z"], field=PrimeField(7))
    assert A.minimal_primes_raw == ()
    assert not A.base_is_domain


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


# -- the sympy factoring bridge ------------------------------------------


def to_expr(p, syms):
    expr = sympy.Integer(0)
    for e, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, a in zip(syms, e):
            term = term * s ** a
        expr = expr + term
    return expr


def expression_factors(p):
    """The factoring route before the Poly-level bridge: a sympy expression
    built term by term, factored, and read back through sympy.Poly."""
    ring = p.ring
    syms = [sympy.Symbol(n) for n in ring.names]
    _c, factors = sympy.factor_list(to_expr(p, syms))
    out = []
    for f, _mult in factors:
        terms = {tuple(int(a) for a in mono): Fraction(int(c.p), int(c.q))
                 for mono, c in sympy.Poly(f, *syms).terms()}
        out.append(Poly(ring, terms).primitive())
    return out


def seeded_products(ring, rng, count):
    """Products of powers of small random polys in the parameters, with
    rational coefficients."""
    names = ring.znames
    out = []
    for _ in range(count):
        p = ring.constant(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 6)))
        for _f in range(rng.randint(1, 3)):
            f = ring.zero()
            for _t in range(rng.randint(1, 3)):
                mono = "*".join("%s^%d" % (v, rng.randint(0, 2)) for v in names)
                coeff = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
                f = f + ring.poly(mono) * coeff
            if f.constant_value() is None:
                p = p * f ** rng.randint(1, 2)
        if p.constant_value() is None:
            out.append(p)
    return out


FACTOR_RINGS = [make_ring(["x"], [1], params=["t"]),
                make_ring(["x", "y"], [1, 1], params=["s", "t"]),
                make_ring(["x"], [1], params=["r", "s", "t"])]


@pytest.mark.parametrize("ring", FACTOR_RINGS, ids=["t", "s,t", "r,s,t"])
def test_factors_match_the_expression_route(ring):
    rng = random.Random(41)
    syms = [sympy.Symbol(n) for n in ring.names]
    for p in seeded_products(ring, rng, 25):
        got = irreducible_factors(p)
        want = expression_factors(p)
        assert sorted(map(str, got)) == sorted(map(str, want))
        assert all(f == f.primitive() for f in got)
        # the product of the factors is the squarefree part of p
        sqf = sympy.Poly(sympy.sqf_part(to_expr(p, syms)), *syms)
        sqf = Poly(ring, {tuple(e): Fraction(int(c.p), int(c.q)) for e, c in sqf.terms()})
        prod = ring.one()
        for f in got:
            prod = prod * f
        assert prod.primitive() == sqf.primitive() == loci.squarefree_part(p)
        if len(ring.znames) == 1:  # one variable: the order is kept too
            assert [str(f) for f in got] == [str(f) for f in want]


def test_univariate_factor_order_is_kept():
    T = make_ring(["x"], [1], params=["t"])
    for src, want in [("t^2 - t", ["t - 1", "t"]), ("t^3 - t", ["t - 1", "t", "t + 1"]),
                      ("-4*t^8 - 16/3*t^6", ["t", "3*t^2 + 4"])]:
        p = T.poly(src)
        assert [str(f) for f in irreducible_factors(p)] == want
        assert [str(f) for f in expression_factors(p)] == want
    # the components of a one-relation base come in that order
    A = make_ring(["x"], [1], params=["z"], relations=["z^2 - z"])
    assert [str(g) for comp in A.minimal_primes() for g in comp] == ["z - 1", "z"]
    assert irreducible_factors(T.poly("3/2")) == [] == irreducible_factors(T.zero())


def test_factoring_goes_through_a_sympy_poly(monkeypatch):
    seen = []
    real = sympy.factor_list

    def spy(f, *args, **kwargs):
        seen.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(sympy, "factor_list", spy)
    T = make_ring(["x", "y"], [1, 1], params=["s", "t"])
    got = irreducible_factors(T.poly("s*t - s"))
    assert sorted(map(str, got)) == ["s", "t - 1"]
    assert len(seen) == 1 and isinstance(seen[0], sympy.Poly)
    # in the variables that occur, in the ring's order
    assert [str(g) for g in seen[0].gens] == ["s", "t"]


def test_constants_have_no_factors_and_skip_sympy(monkeypatch):
    seen = []
    real = sympy.factor_list

    def spy(f, *args, **kwargs):
        seen.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(sympy, "factor_list", spy)
    for ring in (make_ring(["x"], [1], params=["t"]),
                 make_ring(["x"], [1], params=["t"], field=PrimeField(101))):
        for c in ("3/2" if ring.field.char == 0 else "3", "1", "0"):
            assert irreducible_factors(ring.poly(c)) == []
    assert seen == []


def test_linear_forms_and_variable_powers_skip_sympy(monkeypatch):
    from gradedfibers.rings import _sympy_factors

    T = make_ring(["x"], [1], params=["s", "t"])
    polys = [T.poly(src) for src in ("t", "t - 1", "2*s + 2*t", "t^2", "-3*s^4")]
    want = [_sympy_factors(p) for p in polys]
    seen = []
    real = sympy.factor_list
    monkeypatch.setattr(sympy, "factor_list",
                        lambda f, *a, **k: seen.append(f) or real(f, *a, **k))
    fresh = make_ring(["x"], [1], params=["s", "t"])  # nothing memoized
    assert [irreducible_factors(fresh.poly(str(p))) for p in polys] == \
        [[Poly(fresh, f.terms) for f in fs] for fs in want]
    assert [[str(f) for f in fs] for fs in want] == [["t"], ["t - 1"], ["s + t"], ["t"], ["s"]]
    assert seen == []


def test_a_squarefree_product_is_refactored_without_sympy(monkeypatch):
    T = make_ring(["x"], [1], params=["s", "t"])
    p = T.poly("(s^2 + t)^2 * (s - t) * s * (t^2 + 1)")
    sqf = loci.squarefree_part(p)
    seen = []
    real = sympy.factor_list
    monkeypatch.setattr(sympy, "factor_list",
                        lambda f, *a, **k: seen.append(f) or real(f, *a, **k))
    assert sorted(map(str, irreducible_factors(sqf))) == \
        sorted(map(str, irreducible_factors(p))) == ["s", "s - t", "s^2 + t", "t^2 + 1"]
    assert seen == []


def test_a_returned_factor_is_checked_prime_without_sympy(monkeypatch):
    from gradedfibers.specialize import FiberPoint

    T = make_ring(["x"], [1], params=["t"])
    factors = irreducible_factors(T.poly("2*t^3 - 2*t"))
    seen = []
    real = sympy.factor_list

    def spy(f, *args, **kwargs):
        seen.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(sympy, "factor_list", spy)
    for f in factors:
        FiberPoint.generic(T, [f])
    assert seen == []
    # the memo is keyed by terms: a poly not factored before reaches sympy once
    for _ in range(2):
        assert irreducible_factors(T.poly("t^2 + t")) == [T.poly("t"), T.poly("t + 1")]
    assert len(seen) == 1


def test_a_factor_the_base_relations_changed_is_left_to_sympy(monkeypatch):
    # over QQ[s,t]/(s*t) the factor s^2 - s*t + t^2 of s^3 + t^3 comes back
    # reduced, as s^2 + t^2, which sympy never factored
    Q = make_ring(["x"], [1], params=["s", "t"], relations=["s*t"])
    got = irreducible_factors(Q.poly("s^3 + t^3"))
    assert [str(f) for f in got] == ["s + t", "s^2 + t^2"]
    seen = []
    real = sympy.factor_list
    monkeypatch.setattr(sympy, "factor_list",
                        lambda f, *a, **k: seen.append(f) or real(f, *a, **k))
    assert irreducible_factors(got[0]) == [got[0]]
    assert seen == []
    assert irreducible_factors(got[1]) == [got[1]]
    assert len(seen) == 1


def test_prime_field_factors_are_the_primitive_part():
    Rp = make_ring(["x"], [1], params=["s", "t"], field=PrimeField(101))
    p = Rp.poly("3*t^2*s + 6*s")
    assert irreducible_factors(p) == [p.primitive()]
    assert irreducible_factors(p)[0].leading_term()[1].v == 1
