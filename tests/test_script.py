"""Session scripts: pretty-printing a session and parsing it back is the identity.

Sessions are generated as plain statement dicts, the parser's own output
format, with polynomials in the canonical text the parser produces:
binary + and - spaced, everything else packed.
"""

from hypothesis import given, settings, strategies as st

from gradedfibers import script

VARS = ["x", "y", "z", "u", "v"]
PARAMS = ["s", "t", "w"]


@st.composite
def polys(draw, depth=1):
    """Canonical polynomial text; factors nest parenthesized polynomials
    up to the given depth."""
    names = VARS + PARAMS
    small = st.integers(0, 40)

    def coeff():
        c = str(draw(small))
        return c if draw(st.booleans()) else "%s/%d" % (c, draw(st.integers(1, 9)))

    def factor():
        if depth and draw(st.integers(0, 4)) == 0:
            body = "(%s)" % draw(polys(depth - 1))
        else:
            body = draw(st.sampled_from(names))
        k = draw(st.integers(1, 3))
        return body if k == 1 else "%s^%d" % (body, k)

    def term():
        parts = [] if draw(st.booleans()) else [coeff()]
        parts += [factor() for _ in range(draw(st.integers(0 if parts else 1, 3)))]
        return "*".join(parts)

    text = ("-" if draw(st.booleans()) else "") + term()
    for _ in range(draw(st.integers(0, 3))):
        text += draw(st.sampled_from([" + ", " - "])) + term()
    return text


# the parser does not check which names a polynomial uses, so one
# strategy over every name serves every position
POLY = polys()


def degrees(pairs):
    if pairs:
        return st.lists(st.integers(-3, 3), min_size=2, max_size=2)
    return st.integers(-3, 3)


@st.composite
def sessions(draw):
    kind = draw(st.sampled_from(["QQ", "GF", "poly", "quotient"]))
    params = []
    if kind == "QQ":
        base = {"type": "QQ"}
    elif kind == "GF":
        base = {"type": "GF", "p": draw(st.sampled_from([2, 7, 32003]))}
    else:
        params = draw(st.lists(st.sampled_from(PARAMS), min_size=1, max_size=3, unique=True))
        base = {"type": "poly", "params": params}
        if kind == "quotient":
            base = {"type": "quotient", "params": params,
                    "relations": draw(st.lists(POLY, min_size=1, max_size=2))}
            if draw(st.booleans()):
                base["components"] = draw(st.lists(st.lists(POLY, min_size=1, max_size=2),
                                                   min_size=1, max_size=2))
    names = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=5, unique=True))
    split = draw(st.integers(1, len(names)))
    pairs = draw(st.booleans())
    deg = degrees(pairs)
    ring = {"kind": "ring", "name": "R", "base": base,
            "vars": [{"name": n, "degree": draw(deg)} for n in names[:split]],
            "vars2": [{"name": n, "degree": draw(deg)} for n in names[split:]],
            "order": draw(st.sampled_from([None, "grevlex", "lex", "block"]))}
    p = POLY
    decls = [ring]
    targets, fibers = [], []
    for i in range(draw(st.integers(1, 4))):
        what = draw(st.sampled_from(["ideal", "module", "fiber"]))
        name = "%s%d" % (what[0].upper(), i)
        if what == "ideal":
            decls.append({"kind": "ideal", "name": name, "gens": draw(st.lists(p, max_size=3))})
            targets.append(name)
        elif what == "module":
            nrows = draw(st.integers(1, 3))
            ncols = draw(st.integers(1, 3))
            rows = [[draw(p) for _ in range(ncols)] for _ in range(nrows)]
            shifts = draw(st.one_of(st.none(), st.lists(deg, min_size=nrows, max_size=nrows)))
            decls.append({"kind": "module", "name": name, "rows": rows, "shifts": shifts})
            targets.append(name)
        elif draw(st.booleans()):
            point = [[z, draw(POLY)]
                     for z in draw(st.lists(st.sampled_from(PARAMS), max_size=3, unique=True))]
            decls.append({"kind": "fiber", "name": name, "point": point})
            fibers.append(name)
        else:
            decls.append({"kind": "fiber", "name": name, "generic": draw(st.lists(p, max_size=2))})
            fibers.append(name)
    window = st.lists(deg, min_size=2, max_size=2)
    fiber = st.one_of(st.none(), st.sampled_from(fibers)) if fibers else st.none()
    ops = ["ratmap"] + (["loci", "localcoh", "specialize", "invariants", "harness"]
                        if targets else [])
    commands = []
    for op in draw(st.lists(st.sampled_from(ops), min_size=1, max_size=5)):
        cmd = {"kind": "cmd", "op": op}
        if op == "ratmap":
            cmd["forms"] = draw(st.lists(p, max_size=3))
        else:
            cmd["target"] = draw(st.sampled_from(targets))
        if op in ("loci", "specialize"):
            cmd["window"] = draw(st.one_of(st.none(), window))
        elif op in ("localcoh", "harness"):
            cmd["window"] = draw(window)
        if op == "specialize":
            cmd["power"] = draw(st.integers(-2, 6))
        if op == "harness":
            cmd["samples"] = draw(st.one_of(st.none(), st.integers(0, 50)))
        elif op != "loci":
            cmd["fiber"] = draw(fiber)
        commands.append(cmd)
    return script.SessionScript(decls, commands)


@settings(max_examples=60, deadline=None)
@given(sessions())
def test_pretty_then_parse_is_identity(session):
    text = session.pretty()
    assert script.parse(text) == session
    assert script.parse(text).pretty() == text
