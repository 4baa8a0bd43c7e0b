"""Graded polynomial rings with exact coefficients over a parameter ring.

A ring here is k[x-block, y-block, z-block] where the x and y variables
carry degrees in Z or Z^2 and the z variables are degree-zero parameters.
An optional radical ideal in the parameters turns the parameter ring into
a reduced quotient A = k[z]/(relations); make_ring refuses a single
relation with a repeated factor and declared components that do not cut
out the relations.  The ring owns the reduced Groebner basis of its
relations (Ring.base_basis), and every normal form modulo them goes
through that basis' int reducer: Poly construction, Vector.scale and the
eliminations of linalg.  All coefficient arithmetic is exact.  Poly
coefficients are fractions.Fraction over QQ and ModInt over GF(p); the
Groebner and elimination kernels take them apart into Python ints on
entry (denominators cleared over QQ, residues over GF(p)) and build field
elements again only for their results.

The monomial order always sorts the graded block before the parameter
block, so parameter-generic leading terms can be read off directly and
eliminating graded variables never mixes in parameters.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from operator import add, itemgetter, neg

from .errors import (
    AlgebraError,
    BadBase,
    BadBigrading,
    NotHomogeneous,
    PositivityViolation,
    RingMismatch,
)

__all__ = [
    "QQ",
    "PrimeField",
    "RationalField",
    "ModInt",
    "Ring",
    "Poly",
    "make_ring",
    "transfer",
    "irreducible_factors",
    "squarefree_part",
]


def _is_probable_prime(n):
    # deterministic Miller-Rabin for word sized inputs
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModInt:
    """Element of GF(p), reduced to [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return ModInt(self.v + other.v, self.p)

    def __sub__(self, other):
        return ModInt(self.v - other.v, self.p)

    def __mul__(self, other):
        return ModInt(self.v * other.v, self.p)

    def __truediv__(self, other):
        if not other.v:
            raise ZeroDivisionError("division by zero in GF(%d)" % self.p)
        return ModInt(self.v * pow(other.v, self.p - 2, self.p), self.p)

    def __neg__(self):
        return ModInt(-self.v, self.p)

    def __eq__(self, other):
        return isinstance(other, ModInt) and self.v == other.v and self.p == other.p

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return "%d" % self.v


class RationalField:
    """The rationals; elements are Fraction in lowest terms."""

    char = 0

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise AlgebraError("cannot coerce %r into QQ" % (v,))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for a word sized prime p."""

    def __init__(self, p):
        if not isinstance(p, int) or not 2 <= p < 2**63:
            raise AlgebraError("prime field modulus must be a word sized prime, got %r" % (p,))
        if not _is_probable_prime(p):
            raise AlgebraError("%d is not prime" % p)
        self.char = p
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)

    def coerce(self, v):
        if isinstance(v, ModInt):
            if v.p != self.char:
                raise AlgebraError("modulus mismatch: %d vs %d" % (v.p, self.char))
            return v
        if isinstance(v, int):
            return ModInt(v, self.char)
        if isinstance(v, Fraction):
            if v.denominator % self.char == 0:
                raise AlgebraError("denominator of %s vanishes mod %d" % (v, self.char))
            return ModInt(v.numerator, self.char) / ModInt(v.denominator, self.char)
        raise AlgebraError("cannot coerce %r into GF(%d)" % (v, self.char))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("GF", self.char))

    def __repr__(self):
        return "GF(%d)" % self.char


QQ = RationalField()


def _deg_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _deg_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _deg_neg(a):
    return tuple(-x for x in a)


class MonomialOrder:
    """Staged monomial order on exponent tuples.

    Each stage is ('grevlex', idxs), ('lex', idxs) or ('weight', idxs);
    stages compare in sequence, so a leading ('weight', S) stage makes
    the order eliminate the variables in S.

    key sorts terms ascending in the order.  heap_key is a flat tuple of
    ints that sorts ascending exactly as key sorts descending, so the
    largest term comes first off a heap: weight gives -sum, grevlex
    -sum and then the exponents in reverse, lex the negated exponents.
    """

    __slots__ = ("stages", "heap_key", "_split")

    def __init__(self, stages):
        self.stages = tuple((kind, tuple(idxs)) for kind, idxs in stages)
        self.heap_key = _flat_key(self.stages)
        self._split = {}

    def split_heap_key(self, ngraded):
        """(graded key, parameter key), or None.

        The heap keys of the stages over the first ngraded variables and
        of those over the rest, so that graded key + parameter key sorts
        as heap_key does.  None when a stage mixes the two blocks or a
        parameter stage comes before a graded one, as in an order that
        eliminates parameters.
        """
        if ngraded not in self._split:
            stages = [st for st in self.stages if st[1]]
            graded = [all(i < ngraded for i in idxs) for _kind, idxs in stages]
            split = None
            if (graded == sorted(graded, reverse=True)
                    and all(g or min(idxs) >= ngraded for g, (_k, idxs) in zip(graded, stages))):
                k = graded.count(True)
                split = (_flat_key(stages[:k]), _flat_key(stages[k:]))
            self._split[ngraded] = split
        return self._split[ngraded]

    def key(self, exps):
        parts = []
        for kind, idxs in self.stages:
            if kind == "weight":
                parts.append(sum(exps[i] for i in idxs))
            elif kind == "grevlex":
                parts.append(sum(exps[i] for i in idxs))
                parts.append(tuple(-exps[i] for i in reversed(idxs)))
            elif kind == "lex":
                parts.append(tuple(exps[i] for i in idxs))
            else:
                raise AlgebraError("unknown order stage %r" % (kind,))
        return tuple(parts)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.stages == other.stages

    def __hash__(self):
        return hash(self.stages)

    def __repr__(self):
        return "MonomialOrder(%r)" % (self.stages,)


def _flat_key(stages):
    """The heap key of MonomialOrder, composed from one function per stage."""
    parts = []
    for kind, idxs in stages:
        if kind not in ("weight", "grevlex", "lex"):
            raise AlgebraError("unknown order stage %r" % (kind,))
        if kind == "grevlex":
            idxs = idxs[::-1]
        if not idxs:
            continue
        if len(idxs) == 1:
            get = lambda e, i=idxs[0]: (e[i],)
        else:
            get = itemgetter(*idxs)
        if kind == "weight":
            parts.append(lambda e, get=get: (-sum(get(e)),))
        elif kind == "grevlex":
            def grevlex(e, get=get):
                t = get(e)
                return (-sum(t),) + t
            parts.append(grevlex)
        else:
            parts.append(lambda e, get=get: tuple(map(neg, get(e))))
    if not parts:
        return lambda e: ()
    if len(parts) == 1:
        return parts[0]
    if len(parts) == 2:
        first, second = parts
        return lambda e: first(e) + second(e)
    return lambda e: sum((f(e) for f in parts), ())


class Ring:
    """Graded polynomial ring k[x, y, z]/(relations in z).

    Do not call directly: make_ring builds a ring, and with_graded,
    with_order and with_extra_relations derive one from another.
    Variable layout is fixed as x-block, then y-block, then z-block, and
    every exponent tuple in this ring runs over all variables in that
    sequence.  Elements are kept in normal form modulo the relations by
    the int reducer of base_basis, the one Groebner basis of the
    relations that the ring builds.
    """

    __slots__ = (
        "field",
        "names",
        "nx",
        "ny",
        "nz",
        "gdim",
        "degrees",
        "psi",
        "order",
        "base_rel",
        "minimal_primes_raw",
        "_name_index",
        "_base_basis",
        "_fiber_ring",
        "_mono_cache",
        "_count_cache",
        "_inv_mono_cache",
        "_factors",
        "_key",
    )

    def __init__(self, field, names, nx, ny, nz, degrees, psi, order, base_rel_raw, minimal_primes_raw):
        self.field = field
        self.names = tuple(names)
        self.nx = nx
        self.ny = ny
        self.nz = nz
        self.degrees = tuple(tuple(d) for d in degrees)
        self.gdim = len(self.degrees[0]) if self.degrees else len(psi)
        self.psi = tuple(psi)
        self.order = order
        # raw term data for the parameter relations, each a dict or a tuple
        # of (exponents, coefficient) pairs; Poly views are built lazily
        self.base_rel = tuple(tuple(sorted(dict(t).items())) for t in base_rel_raw)
        self.minimal_primes_raw = tuple(
            tuple(tuple(sorted(dict(t).items())) for t in comp) for comp in minimal_primes_raw
        )
        self._name_index = {n: i for i, n in enumerate(self.names)}
        self._base_basis = None
        self._fiber_ring = None
        self._mono_cache = {}
        self._count_cache = {}  # monomial_count's memo, keyed (variable, degree)
        self._inv_mono_cache = {}
        self._factors = {}  # irreducible_factors' memo, keyed by terms
        self._key = order.key

    # -- identity ------------------------------------------------------

    def _signature(self):
        return (self.field, self.names, self.nx, self.ny, self.nz,
                self.degrees, self.psi, self.order, self.base_rel)

    def __eq__(self, other):
        return isinstance(other, Ring) and self._signature() == other._signature()

    def __hash__(self):
        return hash(self._signature())

    def __repr__(self):
        blocks = []
        if self.nx:
            blocks.append(",".join(self.names[: self.nx]))
        if self.ny:
            blocks.append(",".join(self.names[self.nx : self.nx + self.ny]))
        base = repr(self.field)
        if self.nz:
            base += "[%s]" % ",".join(self.names[self.nx + self.ny :])
            if self.base_rel:
                base += "/(%d rels)" % len(self.base_rel)
        return "Ring(%s[%s])" % (base, ";".join(blocks))

    # -- variable bookkeeping ------------------------------------------

    @property
    def nvars(self):
        return len(self.names)

    @property
    def ngraded(self):
        return self.nx + self.ny

    @property
    def xnames(self):
        return self.names[: self.nx]

    @property
    def ynames(self):
        return self.names[self.nx : self.nx + self.ny]

    @property
    def znames(self):
        return self.names[self.nx + self.ny :]

    def var_index(self, name):
        try:
            return self._name_index[name]
        except KeyError:
            raise AlgebraError("no variable named %r in %r" % (name, self)) from None

    @property
    def base_is_domain(self):
        # field, polynomial parameter ring, or quotient marked as a single
        # component (one minimal prime equal to the relations themselves)
        if not self.base_rel:
            return True
        return len(self.minimal_primes_raw) == 1

    # -- degrees -------------------------------------------------------

    def deg_tuple(self, d):
        if isinstance(d, int):
            if self.gdim != 1:
                raise AlgebraError("degree %r needs %d components" % (d, self.gdim))
            return (d,)
        d = tuple(d)
        if len(d) != self.gdim:
            raise AlgebraError("degree %r needs %d components" % (d, self.gdim))
        return d

    def zero_degree(self):
        return (0,) * self.gdim

    def canonical_twist(self):
        """Sum of the degrees of the x-block variables."""
        t = self.zero_degree()
        for d in self.degrees[: self.nx]:
            t = _deg_add(t, d)
        return t

    def term_degree(self, exps):
        d = [0] * self.gdim
        for i in range(self.ngraded):
            e = exps[i]
            if e:
                dv = self.degrees[i]
                for c in range(self.gdim):
                    d[c] += e * dv[c]
        return tuple(d)

    def psi_value(self, deg):
        return sum(p * c for p, c in zip(self.psi, deg))

    # -- parameter relations -------------------------------------------

    def base_basis(self):
        """Reduced Groebner basis of the parameter relations, memoized;
        None when there are none.

        A GBasis of the rank-one module over the relation-free ring
        k[x, y, z], where the relations form a Groebner basis, built by
        the Buchberger kernel from the relations themselves.
        """
        if self._base_basis is None and self.base_rel:
            from .groebner import module_gb
            from .modules import FreeModule

            flat = self._replace(base_rel_raw=(), minimal_primes_raw=())
            module = FreeModule(flat, [flat.zero_degree()])
            self._base_basis = module_gb(
                [module.element([Poly(flat, dict(t))]) for t in self.base_rel], module)
        return self._base_basis

    def minimal_primes(self):
        """Minimal primes of the parameter relations, as tuples of Polys."""
        return tuple(
            tuple(Poly(self, dict(t), _reduce=False) for t in comp)
            for comp in self.minimal_primes_raw
        )

    def _reduce_base(self, terms):
        """Normal form modulo the relations of a term dict of field
        coefficients, by the int reducer of base_basis."""
        p = self.field.char
        ints, den = _to_ints(p, terms)
        nf, mult = self.base_basis().reduce_terms(ints)
        return _from_ints(p, nf, den * mult)

    # -- element construction ------------------------------------------

    def zero(self):
        return Poly(self, {}, _reduce=False)

    def one(self):
        return Poly(self, {(0,) * self.nvars: self.field.one}, _reduce=False)

    def var(self, name):
        i = self.var_index(name)
        exps = [0] * self.nvars
        exps[i] = 1
        return Poly(self, {tuple(exps): self.field.one}, _reduce=False)

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise AlgebraError("bad exponent tuple %r" % (exps,))
        c = self.field.coerce(coeff)
        if not c:
            return self.zero()
        return Poly(self, {exps: c})

    def constant(self, c):
        c = self.field.coerce(c)
        if not c:
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def poly(self, src):
        """Coerce a string, number or Poly into this ring."""
        if isinstance(src, Poly):
            if src.ring == self:
                return src
            return transfer(src, self)
        if isinstance(src, (int, Fraction)):
            return self.constant(src)
        if isinstance(src, str):
            return _parse_poly(self, src)
        raise AlgebraError("cannot coerce %r into %r" % (src, self))

    # -- degree helpers on polys ---------------------------------------

    def degree_of(self, p):
        """Common degree of all terms, or NotHomogeneous."""
        if p.ring != self:
            raise RingMismatch("degree_of: foreign element")
        if not p.terms:
            return None
        degs = {self.term_degree(e) for e in p.terms}
        if len(degs) > 1:
            raise NotHomogeneous("element has degrees %s" % sorted(degs))
        return degs.pop()

    def is_homogeneous(self, p):
        if not p.terms:
            return True
        return len({self.term_degree(e) for e in p.terms}) == 1

    # -- monomial enumeration ------------------------------------------

    def _enumerate(self, degvecs, target):
        """All nonnegative integer combinations of degvecs summing to target."""
        out = []
        n = len(degvecs)
        psis = [self.psi_value(d) for d in degvecs]
        exps = [0] * n

        def rec(i, rest):
            pv = self.psi_value(rest)
            if pv < 0:
                return
            if i == n:
                if all(c == 0 for c in rest):
                    out.append(tuple(exps))
                return
            if pv == 0:
                if all(c == 0 for c in rest):
                    out.append(tuple(exps[:i]) + (0,) * (n - i))
                return
            d = degvecs[i]
            for a in range(pv // psis[i] + 1):
                exps[i] = a
                rec(i + 1, _deg_sub(rest, tuple(a * c for c in d)))
            exps[i] = 0

        rec(0, target)
        return out

    def monomials_of_degree(self, deg):
        """Exponent tuples of the graded monomials of the given degree.

        These label the rows and columns of a strand matrix: parameter
        entries are zero, and the result is sorted descending in the ring
        order, so strand bases come out deterministic.  A count of them is
        monomial_count's, which lists none.
        """
        deg = self.deg_tuple(deg)
        cached = self._mono_cache.get(deg)
        if cached is not None:
            return cached
        combos = self._enumerate(self.degrees, deg)
        zpad = (0,) * self.nz
        monos = [c + zpad for c in combos]
        monos.sort(key=self._key, reverse=True)
        monos = tuple(monos)
        self._mono_cache[deg] = monos
        return monos

    def monomial_count(self, deg):
        """Number of graded monomials of the given degree, memoized:
        len(monomials_of_degree(deg)), with none of them listed.

        Under the standard single grading it is C(d + n - 1, n - 1) for n
        graded variables.  Any other grading walks _enumerate's recursion
        under the same psi bounds: for each power of the first variable,
        the count of what remains in the variables after it, memoized per
        variable and degree.
        """
        return self._count(0, self.deg_tuple(deg))

    def _count(self, i, rest):
        """Number of monomials in the graded variables i, i + 1, ... of
        degree rest."""
        key = (i, rest)
        n = self._count_cache.get(key)
        if n is None:
            degs = self.degrees
            pv = self.psi_value(rest)
            if pv <= 0 or i == len(degs):
                n = 0 if any(rest) else 1
            elif i == 0 and self.gdim == 1 and all(d == (1,) for d in degs):
                n = comb(rest[0] + len(degs) - 1, len(degs) - 1)
            else:
                d = degs[i]
                n = sum(self._count(i + 1, tuple(r - a * c for r, c in zip(rest, d)))
                        for a in range(pv // self.psi_value(d) + 1))
            self._count_cache[key] = n
        return n

    def inverse_monomials_of_degree(self, deg):
        """Exponent tuples with every x-exponent <= -1 and y-exponents >= 0.

        These index the degree-deg slice of the top local cohomology of the
        ring: inverses of the x-variables times ordinary y-monomials.
        """
        deg = self.deg_tuple(deg)
        cached = self._inv_mono_cache.get(deg)
        if cached is not None:
            return cached
        nx, ny = self.nx, self.ny
        if nx == 0:
            raise AlgebraError("ring has no positively graded block to invert")
        xdegs = self.degrees[:nx]
        ydegs = self.degrees[nx : nx + ny]
        # substitute x-exponent = -1 - b with b >= 0
        shifted = deg
        for d in xdegs:
            shifted = _deg_add(shifted, d)
        out = []
        if ny == 0:
            for combo in self._enumerate(xdegs, _deg_neg(shifted)):
                out.append(tuple(-1 - b for b in combo) + (0,) * self.nz)
        else:
            # bigraded layout: y-count is the second degree component
            ycount = shifted[1]
            if ycount >= 0:
                for ycombo in _compositions(ycount, ny):
                    rest = shifted
                    for c, d in zip(ycombo, ydegs):
                        rest = _deg_sub(rest, tuple(c * v for v in d))
                    # rest must now be met by -sum(b_i * xdeg_i)
                    for combo in self._enumerate(xdegs, _deg_neg(rest)):
                        out.append(
                            tuple(-1 - b for b in combo) + tuple(ycombo) + (0,) * self.nz
                        )
        out.sort(key=self._key, reverse=True)
        out = tuple(out)
        self._inv_mono_cache[deg] = out
        return out

    # -- derived rings -------------------------------------------------

    def _replace(self, **fields):
        """This ring with some of its constructor arguments replaced."""
        args = {
            "field": self.field,
            "names": self.names,
            "nx": self.nx,
            "ny": self.ny,
            "nz": self.nz,
            "degrees": self.degrees,
            "psi": self.psi,
            "order": self.order,
            "base_rel_raw": self.base_rel,
            "minimal_primes_raw": self.minimal_primes_raw,
        }
        args.update(fields)
        return Ring(**args)

    def with_graded(self, xvars, xdegrees):
        """A new graded block over the same base.

        The field, the parameters, the relations and their minimal primes
        carry over, with their exponents moved to the new layout; the
        ring gets make_ring's default order and positivity functional.
        """
        ring = make_ring(xvars, xdegrees, params=self.znames, field=self.field)
        if not self.base_rel:
            return ring
        ng = self.ngraded
        pad = (0,) * ring.ngraded

        def moved(raw):
            return [(pad + e[ng:], c) for e, c in raw]

        return ring._replace(
            base_rel_raw=[moved(t) for t in self.base_rel],
            minimal_primes_raw=[[moved(t) for t in comp] for comp in self.minimal_primes_raw],
        )

    def fiber_ring(self):
        """The same graded variables over the plain coefficient field."""
        if self.nz == 0:
            return self
        if self._fiber_ring is None:
            self._fiber_ring = make_ring(
                self.xnames,
                [d for d in self.degrees[: self.nx]],
                yvars=self.ynames,
                ydegrees=[d for d in self.degrees[self.nx :]],
                field=self.field,
                psi=self.psi,
            )
        return self._fiber_ring

    def with_order(self, stages):
        """Same variables, degrees and relations under another monomial order.

        stages are MonomialOrder stages; eliminating a set S of variables
        prefixes the current stages with ('weight', S), and Bayer's
        saturation moves one variable to the end of a grevlex stage.
        """
        return self._replace(order=MonomialOrder(stages))

    def with_extra_relations(self, polys):
        """Adjoin parameter relations as one component: the caller vouches
        for its primality, which makes the enlarged base count as a domain."""
        extra = []
        for p in polys:
            p = self.poly(p)
            if p.support_vars() - set(self.znames):
                raise AlgebraError("relations must only involve parameters")
            extra.append(dict(p.terms))
        rel = [dict(t) for t in self.base_rel] + extra
        return self._replace(base_rel_raw=rel, minimal_primes_raw=[rel])


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


class Poly:
    """Sparse multivariate polynomial: dict from exponent tuple to coefficient.

    Instances are treated as immutable.  When the ring has parameter
    relations the term dict is kept in normal form modulo them, so equality
    is plain dict equality.
    """

    __slots__ = ("ring", "terms", "_sorted")

    def __init__(self, ring, terms, _reduce=True):
        if _reduce and ring.base_rel:
            terms = ring._reduce_base(terms)
        self.ring = ring
        self.terms = terms
        self._sorted = None

    # -- basics --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def sorted_terms(self):
        if self._sorted is None:
            key = self.ring._key
            self._sorted = tuple(
                sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)
            )
        return self._sorted

    def leading_term(self):
        if not self.terms:
            raise AlgebraError("leading term of zero")
        return self.sorted_terms()[0]

    def leading_monomial(self):
        return self.leading_term()[0]

    def constant_value(self):
        """The coefficient if the poly is a constant, else None."""
        if not self.terms:
            return self.ring.field.zero
        if len(self.terms) == 1:
            exps, c = next(iter(self.terms.items()))
            if not any(exps):
                return c
        return None

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch("operands in different rings")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            if s is None:
                terms[e] = c
            else:
                s = s + c
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Poly(self.ring, terms, _reduce=False)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()}, _reduce=False)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (self.__neg__()).__add__(self.ring.constant(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero()
            return Poly(
                self.ring, {e: k * c for e, k in self.terms.items()}, _reduce=False
            )
        self._check(other)
        return Poly(self.ring, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("polynomial power needs a nonnegative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def map_coeffs(self, fn):
        terms = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                terms[e] = v
        return Poly(self.ring, terms, _reduce=False)

    def support_vars(self):
        """Names of variables that actually occur."""
        seen = set()
        for e in self.terms:
            for i, v in enumerate(e):
                if v:
                    seen.add(self.ring.names[i])
        return seen

    # -- normalization --------------------------------------------------

    def primitive(self):
        """Scale to integer content-free form over QQ, or monic over GF(p).

        Returns the normalized poly; the leading coefficient ends up
        positive (QQ) or one (GF(p)).
        """
        if not self.terms:
            return self
        if self.ring.field.char == 0:
            den = lcm(*(c.denominator for c in self.terms.values()))
            num = gcd(*(c.numerator for c in self.terms.values()))
            scale = Fraction(den, num)
            if self.leading_term()[1] < 0:
                scale = -scale
            return self * scale
        lead = self.leading_term()[1]
        inv = self.ring.field.one / lead
        return self.map_coeffs(lambda c: c * inv)

    # -- display -------------------------------------------------------

    def _term_str(self, exps, coeff):
        names = self.ring.names
        parts = []
        for i, e in enumerate(exps):
            if e == 1:
                parts.append(names[i])
            elif e != 0:
                parts.append("%s^%d" % (names[i], e))
        cs = str(coeff.v if isinstance(coeff, ModInt) else coeff)
        if not parts:
            return cs
        body = "*".join(parts)
        if cs == "1":
            return body
        if cs == "-1":
            return "-" + body
        return cs + "*" + body

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            s = self._term_str(exps, coeff)
            if pieces:
                if s.startswith("-"):
                    pieces.append(" - " + s[1:])
                else:
                    pieces.append(" + " + s)
            else:
                pieces.append(s)
        return "".join(pieces)

    def __repr__(self):
        return "Poly(%s)" % self


def _mul_terms(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            s = out.get(e)
            if s is None:
                out[e] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return out


def _to_ints(p, terms):
    """(ints, den) with ints = den * terms for a dict of field coefficients.

    Over QQ den is the lcm of the denominators; over GF(p) the ints are
    the residues and den is 1.  The dict keys are kept as they are.
    """
    if p:
        return {t: c.v for t, c in terms.items()}, 1
    den = lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return {t: c.numerator for t, c in terms.items()}, 1
    return {t: c.numerator * (den // c.denominator) for t, c in terms.items()}, den


def _from_ints(p, terms, den=1):
    """Field coefficients ints / den: Fractions over QQ, ModInts over GF(p)."""
    if p:
        if den == 1:
            return {t: ModInt(c, p) for t, c in terms.items()}
        inv = pow(den, p - 2, p)
        return {t: ModInt(c * inv, p) for t, c in terms.items()}
    if den == 1:
        return {t: Fraction(c) for t, c in terms.items()}
    return {t: Fraction(c, den) for t, c in terms.items()}


# -- construction -------------------------------------------------------


def make_ring(
    xvars,
    xdegrees=None,
    *,
    yvars=(),
    ydegrees=None,
    params=(),
    relations=(),
    minimal_primes=None,
    field=QQ,
    psi=None,
    order=None,
):
    """Build a graded ring k[x, y, z]/(relations).

    xvars are the positively graded variables supporting local cohomology,
    yvars the optional second block of a bigraded layout (x-degrees
    (d, 0) with d > 0, y-degrees (-g, 1) with g >= 0), params the
    degree-zero z-variables.  relations is an iterable of strings or Polys
    in the parameters only, assumed radical; minimal_primes optionally
    lists its components, each an iterable of generators.  BadBase
    refuses a single relation with a repeated factor, a one-generator
    component that factors, and components whose intersection is not
    the relation ideal.  A component with several generators is taken
    on trust.
    """
    xvars = tuple(xvars)
    yvars = tuple(yvars)
    params = tuple(params)
    names = xvars + yvars + params
    if len(set(names)) != len(names):
        raise AlgebraError("duplicate variable names in %r" % (names,))
    if not xvars:
        raise AlgebraError("need at least one positively graded variable")

    if xdegrees is None:
        xdegrees = [(1, 0) if yvars else 1] * len(xvars)
    xdegrees = list(xdegrees)
    if ydegrees is None:
        ydegrees = [(0, 1)] * len(yvars)
    ydegrees = list(ydegrees)
    if len(xdegrees) != len(xvars) or len(ydegrees) != len(yvars):
        raise AlgebraError("degree list length does not match variable count")

    def norm_deg(d):
        return (d,) if isinstance(d, int) else tuple(d)

    degrees = [norm_deg(d) for d in xdegrees] + [norm_deg(d) for d in ydegrees]
    gdims = {len(d) for d in degrees}
    if len(gdims) != 1:
        raise AlgebraError("mixed degree ranks %s" % sorted(gdims))
    gdim = gdims.pop()
    if gdim not in (1, 2):
        raise AlgebraError("grading group must be Z or Z^2")

    if yvars:
        if gdim != 2:
            raise BadBigrading("a y-block needs Z^2 degrees")
        for v, d in zip(xvars, degrees):
            if d[1] != 0 or d[0] <= 0:
                raise BadBigrading("x-variable %s must have degree (d, 0), d > 0; got %r" % (v, d))
        for v, d in zip(yvars, degrees[len(xvars):]):
            if d[1] != 1 or d[0] > 0:
                raise BadBigrading("y-variable %s must have degree (-g, 1), g >= 0; got %r" % (v, d))

    if psi is None:
        psi = _default_psi(degrees, gdim, len(xvars))
    else:
        psi = tuple(psi)
        if len(psi) != gdim:
            raise AlgebraError("psi must have %d components" % gdim)
    for name, d in zip(names, degrees):
        if sum(p * c for p, c in zip(psi, d)) <= 0:
            raise PositivityViolation(
                "psi=%r is not positive on deg(%s)=%r" % (psi, name, d)
            )

    nx, ny, nz = len(xvars), len(yvars), len(params)
    if order is None:
        stages = []
        if nx + ny:
            stages.append(("grevlex", range(nx + ny)))
        if nz:
            stages.append(("grevlex", range(nx + ny, nx + ny + nz)))
        order = MonomialOrder(stages)

    ring = Ring(field, names, nx, ny, nz, degrees, psi, order, [], [])

    def parse_zpoly(src, what):
        p = ring.poly(src) if isinstance(src, str) else transfer(src, ring)
        bad = p.support_vars() - set(params)
        if bad:
            raise AlgebraError("%s %s uses non-parameter variables %s" % (what, p, sorted(bad)))
        return p

    rel_polys = [parse_zpoly(rel, "relation") for rel in relations]
    rel_polys = [p for p in rel_polys if not p.is_zero()]
    if not rel_polys:
        return ring
    if len(rel_polys) == 1 and squarefree_part(rel_polys[0]) != rel_polys[0].primitive():
        raise BadBase("relation %s has a repeated factor" % rel_polys[0])
    prime_raw = []
    if minimal_primes is not None:
        from .groebner import _meet, ideal_equal

        comps = [[parse_zpoly(g, "minimal prime generator") for g in comp]
                 for comp in minimal_primes]
        for comp in comps:
            if len(comp) == 1 and [f.terms for f in irreducible_factors(comp[0])] \
                    != [comp[0].primitive().terms]:
                raise BadBase("the declared component (%s) is not prime" % comp[0])
        meet = _meet([1] * len(comps), comps, ring) if comps else []
        if not ideal_equal(meet, rel_polys, ring):
            raise BadBase("the declared components do not cut out the relations")
        prime_raw = [[g.terms for g in comp] for comp in comps]
    elif len(rel_polys) == 1 and field.char == 0:
        prime_raw = [[f.terms] for f in irreducible_factors(rel_polys[0])]
    return ring._replace(base_rel_raw=[p.terms for p in rel_polys],
                         minimal_primes_raw=prime_raw)


def _default_psi(degrees, gdim, nx):
    if gdim == 1:
        return (1,)
    ydegs = degrees[nx:]
    if ydegs and all(d[1] == 1 and d[0] <= 0 for d in ydegs):
        return (1, max(-d[0] for d in ydegs) + 1)
    # small deterministic search
    for radius in range(1, 13):
        for c1 in range(-radius, radius + 1):
            for c2 in range(-radius, radius + 1):
                if max(abs(c1), abs(c2)) != radius:
                    continue
                if all(c1 * d[0] + c2 * d[1] > 0 for d in degrees):
                    return (c1, c2)
    raise PositivityViolation("no positivity functional found; pass psi explicitly")


def irreducible_factors(p):
    """Distinct irreducible factors of a poly, content dropped.

    This is the one place sympy is called.  Over QQ, p goes to
    sympy.factor_list as a sympy Poly in the variables that occur in it,
    in the ring's order, and each factor comes back primitive.  The factors
    keep factor_list's order: by degree in the first of those variables,
    then multiplicity, then coefficients.  For one variable that is the
    order of factoring p as a sympy expression (t^3 - t gives t - 1, t,
    t + 1); for several it may differ (s*t - t gives t, s - 1, the
    expression gave s - 1, t).  A variable that does not occur is left
    out: as the first generator it would give every factor degree 0.
    There is no multivariate factorization over GF(p) here, so there the
    list holds the primitive part of p alone.  A constant, zero included,
    has no factors and never reaches sympy, and neither does a poly of
    degree one, which is irreducible, nor a power of one variable, whose
    one factor is that variable.

    Factorizations are memoized on p's ring, keyed by p's terms, so each
    distinct poly reaches sympy at most once per ring.  Each factor
    returned is recorded as its own factorization, so asking whether a
    factor is prime costs no sympy call.  That record is skipped when
    reducing a factor modulo the base relations changed it, since the
    reduced poly need not be irreducible.  squarefree_part records the
    factors of the products it builds in the same memo.
    """
    ring = p.ring
    if p.constant_value() is not None:
        return []
    if ring.field.char or all(sum(e) <= 1 for e in p.terms):
        return [p.primitive()]
    if len(p.terms) == 1:
        (e,) = p.terms
        used = [i for i, a in enumerate(e) if a]
        if len(used) == 1:
            return [Poly(ring, {tuple(int(i == used[0]) for i in range(ring.nvars)):
                                ring.field.one})]
    key = frozenset(p.terms.items())
    if key not in ring._factors:
        ring._factors[key] = _sympy_factors(p)
    return list(ring._factors[key])


def _sympy_factors(p):
    ring = p.ring
    used = [i for i in range(ring.nvars) if any(e[i] for e in p.terms)]
    import sympy

    qq = sympy.QQ
    poly = sympy.Poly.from_dict(
        {tuple(e[i] for i in used): qq(c.numerator, c.denominator) for e, c in p.terms.items()},
        *[sympy.Symbol(ring.names[i]) for i in used], domain=qq)
    _c, factors = sympy.factor_list(poly)
    out = []
    for f, _mult in factors:
        terms = {}
        for e, c in f.terms():
            exps = [0] * ring.nvars
            for i, a in zip(used, e):
                exps[i] = a
            terms[tuple(exps)] = Fraction(int(c.p), int(c.q))
        f = Poly(ring, terms)
        exact = f.terms == terms
        f = f.primitive()
        if exact:
            ring._factors.setdefault(frozenset(f.terms.items()), [f])
        out.append(f)
    return out


def squarefree_part(*polys, ring=None):
    """Squarefree part of the product of polys: the product of their
    distinct irreducible factors, content dropped.

    Zero when one of the polys is zero, and one of ring when there are
    none.  Certificates are such products over the certifying minors of
    a computation.
    """
    ring = polys[0].ring if polys else ring
    if any(p.is_zero() for p in polys):
        return ring.zero()
    factors = list(dict.fromkeys(f for p in polys for f in irreducible_factors(p)))
    acc = ring.one()
    for f in factors:
        acc = acc * f
    acc = acc.primitive()
    if factors and not ring.base_rel:
        # a product of distinct irreducibles: its factors are known
        ring._factors.setdefault(frozenset(acc.terms.items()), factors)
    return acc


def transfer(p, target):
    """Reinterpret a poly in another ring, matching variables by name.

    Variables missing from the target must not occur in p.
    """
    src = p.ring
    if src == target:
        return p
    if src.field != target.field:
        raise RingMismatch("cannot transfer between different coefficient fields")
    pos = [target._name_index.get(n) for n in src.names]
    terms = {}
    zero_exps = [0] * target.nvars
    for e, c in p.terms.items():
        out = zero_exps[:]
        for i, a in enumerate(e):
            if a:
                j = pos[i]
                if j is None:
                    raise AlgebraError(
                        "variable %s does not exist in the target ring" % src.names[i]
                    )
                out[j] += a
        key = tuple(out)
        s = terms.get(key)
        terms[key] = c if s is None else s + c
    terms = {e: c for e, c in terms.items() if c}
    return Poly(target, terms)


# -- parsing ------------------------------------------------------------


def _tokenize_poly(src):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j]))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j]))
            i = j
            continue
        if src.startswith("**", i):
            tokens.append(("op", "^"))
            i += 2
            continue
        if ch in "+-*/^()":
            tokens.append(("op", ch))
            i += 1
            continue
        raise AlgebraError("bad character %r in polynomial %r" % (ch, src))
    tokens.append(("end", ""))
    return tokens


def _parse_poly(ring, src):
    tokens = _tokenize_poly(src)
    pos = [0]

    def peek():
        return tokens[pos[0]]

    def take(kind=None, value=None):
        k, v = tokens[pos[0]]
        if (kind and k != kind) or (value and v != value):
            raise AlgebraError("unexpected %r in polynomial %r" % (v or k, src))
        pos[0] += 1
        return v

    def atom():
        k, v = peek()
        if k == "int":
            take()
            return ring.constant(int(v))
        if k == "name":
            take()
            return ring.var(v)
        if v == "(":
            take()
            e = expr()
            take(value=")")
            return e
        raise AlgebraError("unexpected %r in polynomial %r" % (v or k, src))

    def factor():
        neg = False
        while peek() == ("op", "-"):
            take()
            neg = not neg
        while peek() == ("op", "+"):
            take()
        a = atom()
        if peek() == ("op", "^"):
            take()
            if peek() == ("op", "-"):
                raise AlgebraError("negative exponent in %r" % src)
            a = a ** int(take("int"))
        return -a if neg else a

    def term():
        a = factor()
        while True:
            k, v = peek()
            if v == "*":
                take()
                a = a * factor()
            elif v == "/":
                take()
                neg = False
                while peek() == ("op", "-"):
                    take()
                    neg = not neg
                d = int(take("int"))
                if d == 0:
                    raise AlgebraError("division by zero in %r" % src)
                if ring.field.char == 0:
                    a = a * Fraction(-1 if neg else 1, d)
                elif d % ring.field.char == 0:
                    raise AlgebraError("division by %d, which is zero in GF(%d), in %r"
                                       % (d, ring.field.char, src))
                else:
                    inv = ring.field.one / ring.field.coerce(d)
                    a = a * ((-inv) if neg else inv).v
            else:
                return a

    def expr():
        a = term()
        while True:
            k, v = peek()
            if v == "+":
                take()
                a = a + term()
            elif v == "-":
                take()
                a = a - term()
            else:
                return a

    result = expr()
    take("end")
    return result
