"""Command line driver: run a session script, write one JSON file per command.

Outputs land in the --out directory as NN_<command>.json with the seed
recorded in every payload, so identical script and seed give
byte-identical files.  A command that fails writes an error payload,
whose kind tells bad input from an engine bug, and flips the exit code;
later commands still run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import loci, localcohom, ratmap, script, specialize
from .errors import AlgebraError, DualityMismatch, MultiplicityMismatch, ScriptError
from .modules import FreeModule, FreeMap, Presentation
from .rings import MonomialOrder, PrimeField, QQ, make_ring


def _build_ring(decl):
    base = decl["base"]
    field = QQ
    params = []
    relations = []
    minimal = None
    if base["type"] == "GF":
        field = PrimeField(base["p"])
    elif base["type"] in ("poly", "quotient"):
        params = list(base["params"])
        relations = list(base.get("relations", []))
        if base.get("components") is not None:
            minimal = [list(c) for c in base["components"]]
    xs = decl["vars"]
    ys = decl["vars2"]
    bigraded = bool(ys) or any(isinstance(v["degree"], list) for v in xs)
    if bigraded:
        for v in ys:
            if not isinstance(v["degree"], list):
                raise AlgebraError("second-block variables need bidegrees (a, b)")
        xdeg = [tuple(v["degree"]) if isinstance(v["degree"], list)
                else (v["degree"], 0) for v in xs]
        ydeg = [tuple(v["degree"]) for v in ys]
    else:
        xdeg = [v["degree"] for v in xs]
        ydeg = []
    nx = len(xs)
    ny = len(ys)
    nz = len(params)
    order = None
    if decl["order"] == "lex":
        stages = [("lex", list(range(nx + ny)))]
        if nz:
            stages.append(("grevlex", list(range(nx + ny, nx + ny + nz))))
        order = MonomialOrder(stages)
    return make_ring(
        [v["name"] for v in xs],
        xdeg,
        yvars=[v["name"] for v in ys],
        ydegrees=ydeg,
        params=params,
        relations=relations,
        minimal_primes=minimal,
        field=field,
        order=order,
    )


def _window_degrees(ring, window):
    lo, hi = window
    if ring.gdim == 1:
        if isinstance(lo, list) or isinstance(hi, list):
            raise AlgebraError("this ring is singly graded; window ends are integers")
        if hi < lo:
            raise AlgebraError("empty degree window")
        if hi - lo > 80:
            raise AlgebraError("degree window wider than 80")
        return [(d,) for d in range(lo, hi + 1)]
    if not isinstance(lo, list) or not isinstance(hi, list):
        raise AlgebraError("this ring is bigraded; window corners need (a, b)")
    (a1, b1), (a2, b2) = lo, hi
    if a2 < a1 or b2 < b1:
        raise AlgebraError("empty degree window")
    if (a2 - a1 + 1) * (b2 - b1 + 1) > 400:
        raise AlgebraError("degree window larger than 400 points")
    return [(a, b) for a in range(a1, a2 + 1) for b in range(b1, b2 + 1)]


class _Env:
    """Named objects of one session, built on first use and cached, so a
    broken declaration only fails the commands that touch it."""

    def __init__(self, session, seed):
        self.session = session
        self.seed = seed
        self.ring_decl = session.ring_decl
        self.decls = {d["name"]: d for d in session.declarations
                      if d["kind"] != "ring"}
        self._cache = {}

    def ring(self):
        if "ring" not in self._cache:
            if self.ring_decl is None:
                raise AlgebraError("the script declares no ring")
            self._cache["ring"] = _build_ring(self.ring_decl)
        return self._cache["ring"]

    def presentation(self, name):
        key = ("pres", name)
        if key not in self._cache:
            ring = self.ring()
            decl = self.decls[name]
            if decl["kind"] == "ideal":
                pres = Presentation.cyclic(ring, [ring.poly(g) for g in decl["gens"]])
            else:
                rows = [[ring.poly(e) for e in row] for row in decl["rows"]]
                shifts = decl["shifts"]
                if shifts is None:
                    shifts = [ring.zero_degree()] * len(rows)
                else:
                    shifts = [ring.deg_tuple(tuple(s) if isinstance(s, list) else s)
                              for s in shifts]
                target = FreeModule(ring, shifts)
                cols = [target.element([rows[i][j] for i in range(len(rows))])
                        for j in range(len(rows[0]))]
                pres = Presentation(FreeMap.from_columns(target, cols))
            self._cache[key] = pres
        return self._cache[key]

    def bundle(self, name):
        key = ("bundle", name)
        if key not in self._cache:
            ring = self.ring()
            decl = self.decls[name]
            if decl["kind"] == "ideal":
                self._cache[key] = specialize.rees_powers(decl["gens"], ring=ring)
            else:
                self._cache[key] = specialize.rees_powers(self.presentation(name))
        return self._cache[key]

    def fiber(self, name):
        if name is None:
            return None
        key = ("fiber", name)
        if key not in self._cache:
            ring = self.ring()
            decl = self.decls[name]
            if "point" in decl:
                values = {}
                for z, text in decl["point"]:
                    v = Fraction(text)
                    values[z] = int(v) if v.denominator == 1 else v
                missing = [n for n in ring.znames if n not in values]
                if missing:
                    raise AlgebraError("point gives no value for %s"
                                       % ", ".join(missing))
                self._cache[key] = specialize.FiberPoint.rational(ring, values)
            elif decl["generic"]:
                self._cache[key] = specialize.FiberPoint.generic(ring, decl["generic"])
            else:
                self._cache[key] = None  # plain generic fiber of the whole base
        return self._cache[key]


# -- command handlers ---------------------------------------------------------


def _cmd_invariants(env, cmd, opts):
    pres = env.presentation(cmd["target"])
    point = env.fiber(cmd["fiber"])
    if pres.ring.nz and (point is None or point.kind != "rational"):
        # a generic fiber keeps its parameters, and the duality route
        # behind the invariants runs over a field only
        raise AlgebraError("invariants need a field base or a rational fiber point")
    if point is not None:
        pres = pres.evaluate(point)
    inv = localcohom.cohomology_invariants(pres)
    r = pres.ring.nx
    a = [inv["top_degrees"].get(i) for i in range(r + 1)]
    return {
        "target": cmd["target"],
        "fiber": point.describe() if point else None,
        "dim": inv["dimension"],
        "depth": inv["depth"],
        "a": a,
        "reg": inv["regularity"],
    }


def _cmd_localcoh(env, cmd, opts):
    ring = env.ring()
    pres = env.presentation(cmd["target"])
    degrees = _window_degrees(ring, cmd["window"])
    point = env.fiber(cmd["fiber"])
    table = localcohom.local_cohomology_table(pres, degrees, point=point)
    entries = [{"i": i, "degree": list(mu), "dim": d}
               for (i, mu), d in sorted(table.dims.items())]
    return {
        "target": cmd["target"],
        "window": cmd["window"],
        "fiber": point.describe() if point else None,
        "entries": entries,
        "meta": dict(table.meta),
    }


def _cmd_loci(env, cmd, opts):
    ring = env.ring()
    pres = env.presentation(cmd["target"])
    window = None
    if cmd.get("window") is not None:
        window = _window_degrees(ring, cmd["window"])
    excl = loci.duality_exclusion_locus(pres, window=window)
    info = excl["module"]
    rad, exact = loci.locus_radical(info["ideal"], ring)
    out = {
        "target": cmd["target"],
        "nonfree": {
            "generators": info["ideal_strings"],
            "radical": [str(g) for g in rad],
            "radical_exact": exact,
            "is_empty": info["is_empty"],
            "coverage": "all degrees" if window is None else cmd["window"],
            "certificate": [str(a) for a in info["certificate"]],
        },
        "duality_exclusion": {
            "generators": excl["ideal_strings"],
            "detail": excl["detail"],
        },
    }
    return out


def _cmd_specialize(env, cmd, opts):
    ring = env.ring()
    if ring.gdim != 1:
        raise AlgebraError("specialize works over singly graded module rings")
    kmax = cmd["power"]
    if kmax < 0:
        raise AlgebraError("power %d is negative" % kmax)
    if opts.power_cutoff is not None:
        kmax = min(kmax, opts.power_cutoff)
    bundle = env.bundle(cmd["target"])
    if cmd["window"] is not None:
        degs = _window_degrees(ring, cmd["window"])
    else:
        degs = [(d,) for d in range(bundle.b * kmax, bundle.b * kmax + 5)]
    ks = list(range(kmax + 1))
    point = env.fiber(cmd["fiber"])
    out = {
        "target": cmd["target"],
        "power": kmax,
        "shift": bundle.b,
        "fiber": point.describe() if point else None,
    }
    if point is None:
        rep = specialize.generic_agreement_certificate(bundle, ks, degs)
        dims = rep["generic_dims"]
        out["certificate"] = str(rep["certificate"])
    else:
        dims = specialize.power_dims_at(bundle, ks, degs, point)
    out["rows"] = [{"power": k, "degree": list(deg), "dim": dim}
                   for (k, deg), dim in sorted(dims.items())]
    return out


def _cmd_ratmap(env, cmd, opts):
    ring = env.ring()
    forms = [ring.poly(f) for f in cmd["forms"]]
    rmap = ratmap.RationalMap(ring, forms)
    point = env.fiber(cmd["fiber"])
    info = ratmap.fiber_invariants(rmap, point=point, cutoff=opts.power_cutoff)
    info["forms"] = cmd["forms"]
    return info


def _cmd_harness(env, cmd, opts):
    ring = env.ring()
    pres = env.presentation(cmd["target"])
    degrees = _window_degrees(ring, cmd["window"])
    samples = cmd["samples"] if cmd["samples"] is not None else 2
    if samples < 0:
        raise AlgebraError("sample count %d is negative" % samples)
    out = {"target": cmd["target"], "window": cmd["window"]}
    rad = ()
    if ring.nz and ring.base_is_domain:
        # the jump locus comes first: the samples are drawn off it
        jl = loci.cohomology_jump_loci(pres, degrees)
        rad, _exact = loci.locus_radical(jl["ideal"], ring)
        factors = sorted({str(f) for g in rad for f in loci.irreducible_factors(g)})
        out["jump_locus"] = {
            "generators": [str(g) for g in jl["ideal"]],
            "radical": [str(g) for g in rad],
            "factors": factors,
        }
    out.update(loci.constancy_report(pres, degrees, seed=env.seed, samples=samples,
                                     locus=rad))
    return out


_HANDLERS = {
    "invariants": _cmd_invariants,
    "localcoh": _cmd_localcoh,
    "loci": _cmd_loci,
    "specialize": _cmd_specialize,
    "ratmap": _cmd_ratmap,
    "harness": _cmd_harness,
}


def _csv_rows(payload):
    if "entries" in payload:
        return [("i", "degree", "dim")] + [
            (e["i"], " ".join(str(a) for a in e["degree"]), e["dim"])
            for e in payload["entries"]]
    if "rows" in payload:
        return [("power", "degree", "dim")] + [
            (e["power"], " ".join(str(a) for a in e["degree"]), e["dim"])
            for e in payload["rows"]]
    flat = [(k, json.dumps(v, sort_keys=True)) for k, v in sorted(payload.items())
            if not isinstance(v, (dict, list))]
    return [("key", "value")] + flat


def _error_kind(exc):
    """Error kind of a payload: "input" for bad input, "internal" for an engine bug."""
    if isinstance(exc, (DualityMismatch, MultiplicityMismatch)):
        return "internal"
    return "input" if isinstance(exc, AlgebraError) else "internal"


def run(session, seed=0, out_dir=".", power_cutoff=None, csv=False):
    """Execute every command; returns 0 iff none errored."""
    opts = argparse.Namespace(power_cutoff=power_cutoff)
    env = _Env(session, seed)
    os.makedirs(out_dir, exist_ok=True)
    failed = False
    for idx, cmd in enumerate(session.commands, 1):
        payload = {"command": cmd["op"], "index": idx, "seed": seed}
        try:
            payload.update(_HANDLERS[cmd["op"]](env, cmd, opts))
        except Exception as exc:
            payload["error"] = {"type": type(exc).__name__, "message": str(exc),
                                "kind": _error_kind(exc)}
            failed = True
        name = "%02d_%s" % (idx, cmd["op"])
        with open(os.path.join(out_dir, name + ".json"), "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        if csv:
            with open(os.path.join(out_dir, name + ".csv"), "w") as fh:
                for row in _csv_rows(payload):
                    fh.write(",".join(str(c) for c in row) + "\n")
    return 1 if failed else 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="gradedfibers",
        description="Run a session script: graded local cohomology, loci, "
                    "specialization and rational-map invariants.")
    ap.add_argument("--script", required=True, help="session script file")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed recorded in and driving all sampling")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--power-cutoff", type=int, default=None,
                    help="cap on symbolic powers and limit cutoffs")
    ap.add_argument("--csv", action="store_true", help="also write CSV mirrors")
    args = ap.parse_args(argv)
    if args.power_cutoff is not None and args.power_cutoff < 1:
        ap.error("--power-cutoff must be at least 1")
    try:
        with open(args.script, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print("cannot read script: %s" % exc, file=sys.stderr)
        return 2
    try:
        session = script.parse(text)
    except ScriptError as exc:
        print("script error: %s" % exc, file=sys.stderr)
        return 2
    return run(session, seed=args.seed, out_dir=args.out,
               power_cutoff=args.power_cutoff, csv=args.csv)


if __name__ == "__main__":
    sys.exit(main())
