"""Workloads of the benchmark: session scripts and their seeded coordinate change.

Each workload is a short list of session scripts under ``scripts/``:
``field`` holds the scripts over a coefficient field (QQ and GF(32003)),
``loci`` those over a parameter ring QQ[t] or QQ[s,t].  A seed picks, for
every script, one graded transvection x_i -> x_i + k*x_j and applies it
to every ideal, module and map form of the script.  Parameters are never
substituted.  x_i and x_j are the first and last variable of one block of
equal degree (the seed picks the block when there are two), and k is
drawn from COEFFS.  Every answer the benchmark checks is invariant under
such a change, so one set of expected answers serves every seed, while
the polynomials the program sees differ from seed to seed.

The pair is fixed per block because the pair sets the cost: on the
quartic, b -> b + k*c costs 1.9 times what a -> a + k*d costs, and on
Katzman's hypersurface v -> v + u and y -> y + x run past 60 s (see
plan.json).  The coefficient moves the cost by about 10 %.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

SCRIPT_DIR = Path(__file__).resolve().parent / "scripts"

WORKLOADS = {
    "field": ["cohom_qq", "cohom_gf", "rees_qq"],
    "loci": ["loci_katzman", "loci_ladder", "loci_family", "loci_module"],
}

COEFFS = (-2, -1, 1, 2)


def literal_text(name):
    return (SCRIPT_DIR / (name + ".gf")).read_text(encoding="utf-8")


def transvection_choices(ring_decl):
    """(first, last) variable of each block whose two ends share a degree."""
    pairs = []
    for block in (ring_decl["vars"], ring_decl["vars2"]):
        if len(block) > 1 and block[0]["degree"] == block[-1]["degree"]:
            pairs.append((block[0]["name"], block[-1]["name"]))
    return pairs


def _substitute(poly_text, var, image):
    return re.sub(r"(?<![A-Za-z0-9_])%s(?![A-Za-z0-9_])" % re.escape(var),
                  "(%s)" % image, poly_text)


def transvect(session, var, other, k):
    """Apply var -> var + k*other to every ideal, module and map form."""
    sign = "+" if k > 0 else "-"
    if abs(k) == 1:
        image = "%s %s %s" % (var, sign, other)
    else:
        image = "%s %s %d*%s" % (var, sign, abs(k), other)
    for decl in session.declarations:
        if decl["kind"] == "ideal":
            decl["gens"] = [_substitute(g, var, image) for g in decl["gens"]]
        elif decl["kind"] == "module":
            decl["rows"] = [[_substitute(e, var, image) for e in row]
                            for row in decl["rows"]]
    for cmd in session.commands:
        if "forms" in cmd:
            cmd["forms"] = [_substitute(f, var, image) for f in cmd["forms"]]
    return image


def seeded_scripts(script_module, workload, seed):
    """Script texts of a workload after the seed's coordinate changes.

    Returns a list of (script name, text, substitution record).  The
    texts are the pretty-printed transformed sessions; a pass parses them
    afresh.
    """
    out = []
    for name in WORKLOADS[workload]:
        session = script_module.parse(literal_text(name))
        rng = random.Random("%d:%s" % (seed, name))
        var, other = rng.choice(transvection_choices(session.ring_decl))
        image = transvect(session, var, other, rng.choice(COEFFS))
        out.append((name, session.pretty(), {"script": name, "var": var,
                                             "image": image}))
    return out
