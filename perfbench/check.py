"""Checked answers of a session run and their comparison with expected ones.

Only fields invariant under the seed's coordinate change are checked.
Sample rows and constancy verdicts are left out: their payloads are
planned to change, and the ``globally_constant`` verdict is known to
disagree with ``locally_constant`` on Katzman's hypersurface.
"""

from __future__ import annotations

import json
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


def _harness(p):
    return {
        "generic_dims": {comp: v["generic_dims"]
                         for comp, v in sorted(p["components"].items())},
        "jump_factors": p["jump_locus"]["factors"],
    }


_FIELDS = {
    "localcoh": lambda p: {"entries": p["entries"]},
    "invariants": lambda p: {k: p[k] for k in ("dim", "depth", "a", "reg")},
    "ratmap": lambda p: {k: p[k] for k in ("degY", "degG", "e_sat", "j", "stable")},
    "specialize": lambda p: {"rows": p["rows"]},
    "loci": lambda p: {"radical": p["nonfree"]["radical"],
                       "is_empty": p["nonfree"]["is_empty"],
                       "duality_exclusion": p["duality_exclusion"]["generators"]},
    "harness": _harness,
}


def checked_answers(out_dir, ncommands):
    """One entry per command, read from the JSON files a run wrote.

    An entry is the dict of checked fields, or {"error": ...} when the
    command raised, its file is missing or a checked field is absent.
    """
    files = {p.name.split("_", 1)[0]: p for p in Path(out_dir).glob("*.json")}
    answers = []
    for idx in range(1, ncommands + 1):
        path = files.get("%02d" % idx)
        if path is None:
            answers.append({"error": "no output file"})
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        if "error" in payload:
            answers.append({"error": payload["error"]})
            continue
        try:
            answers.append(_FIELDS[payload["command"]](payload))
        except (KeyError, TypeError) as exc:
            answers.append({"error": "checked field missing: %r" % (exc,)})
    return answers


def load_expected():
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


def count_failures(answers, expected):
    """Commands that raised or whose checked answer differs."""
    if len(answers) != len(expected):
        return max(len(answers), len(expected))
    return sum(1 for got, want in zip(answers, expected) if got != want)
