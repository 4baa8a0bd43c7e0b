"""Vector and map arithmetic of graded free modules, which goes through Poly.

Seeded property tests over a field, a prime field, a polynomial base and
the cusp QQ[s,t]/(s^2 - t^3), whose relation every product has to be
reduced by.
"""

import random

import pytest

from gradedfibers.modules import FreeMap, FreeModule
from gradedfibers.rings import PrimeField, make_ring


BASES = {
    "QQ": make_ring(["x", "y", "z"], [1, 1, 1]),
    "GF(32003)": make_ring(["x", "y", "z"], [1, 1, 1], field=PrimeField(32003)),
    "QQ[t]": make_ring(["x", "y"], [1, 1], params=["t"]),
    "cusp": make_ring(["x", "y"], [1, 1], params=["s", "t"], relations=["s^2 - t^3"]),
}


def random_poly(ring, rng, deg):
    """A form of the given degree: up to three graded monomials, each with
    a small coefficient and, over a parameter base, a parameter monomial
    of degree at most three."""
    if deg < 0:
        return ring.zero()
    monos = ring.monomials_of_degree(deg)
    ng = ring.ngraded
    p = ring.zero()
    for e in rng.sample(monos, min(3, len(monos))):
        z = [0] * ring.nz
        for _ in range(rng.randint(0, 3) if ring.nz else 0):
            z[rng.randrange(ring.nz)] += 1
        p = p + ring.monomial(e[:ng] + tuple(z), rng.choice([1, -1, 2, 5]))
    return p


def random_vector(module, rng, deg):
    """A homogeneous vector of the given degree, some components zero."""
    return module.element([
        random_poly(module.ring, rng, deg - s[0]) if rng.random() < 0.8
        else module.ring.zero() for s in module.shifts])


@pytest.mark.parametrize("name", sorted(BASES))
def test_scaling_distributes_and_associates(name):
    ring = BASES[name]
    rng = random.Random(7)
    module = FreeModule(ring, [0, 1, 1, 2])
    for _ in range(12):
        v, w = random_vector(module, rng, 2), random_vector(module, rng, 2)
        p, q = random_poly(ring, rng, 1), random_poly(ring, rng, rng.randint(0, 1))
        assert (v + w).scale(p) == v.scale(p) + w.scale(p)
        assert v.scale(p).scale(q) == v.scale(p * q)
        assert (v - v).is_zero() and v.scale(0).is_zero()
        assert v.scale(3) == v.scale(ring.constant(3)) == v + v + v
        assert v.scale(p).components() == [c * p for c in v.components()]


def test_scaling_over_the_cusp_reduces_by_its_relation():
    ring = BASES["cusp"]
    rng = random.Random(11)
    module = FreeModule(ring, [0, 1])
    s, t = ring.var("s"), ring.var("t")
    for _ in range(12):
        v = random_vector(module, rng, 1)
        assert v.scale(s).scale(s) == v.scale(t ** 3) == v.scale(s ** 2)
        assert v.scale(s ** 3) == v.scale(s * t ** 3)


@pytest.mark.parametrize("name", sorted(BASES))
def test_transpose_is_the_entrywise_transpose_with_dual_shifts(name):
    ring = BASES[name]
    rng = random.Random(23)
    for _ in range(8):
        target = FreeModule(ring, [rng.randint(0, 1) for _ in range(rng.randint(1, 3))])
        cols = [random_vector(target, rng, rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))]
        fmap = FreeMap.from_columns(target, cols)
        twist = rng.randint(-1, 2)
        dual = fmap.transpose(twist)
        assert dual.source == target.dual(twist)
        assert dual.target == fmap.source.dual(twist)
        entries = fmap.entries()
        assert dual.entries() == [[entries[i][j] for i in range(target.rank)]
                                  for j in range(fmap.source.rank)]
        # homogeneous again, so the checked constructor accepts the columns
        FreeMap(dual.source, dual.target, dual.cols)
        assert dual.transpose(twist).entries() == entries
