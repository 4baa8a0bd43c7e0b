"""Outside-in spans around public gradedfibers functions.

The traced run rebinds each function named by BENCHMARK.json's per-layer
metrics on every gradedfibers module that holds it (methods on their
class), so the program itself is not edited.  Each call records a span:
name, start, end, parent span, pass id and a work count read from the
return value.  Spans stay in memory until
the run ends; ``aggregate`` turns them into per-layer metrics named
``<module>.<function>.<stat>``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _cells(args, out):
    if hasattr(out, "nrows"):  # a StrandMatrix
        return out.nrows * out.ncols
    rows = args[0]  # matrix_rank_generic(entries, ring) ranks its argument
    return len(rows) * (len(rows[0]) if rows else 0)


def _basis_size(args, out):
    return len(out)


def _rank_sum(args, out):
    return sum(m.rank for m in out.modules)


WORK = {"cells": _cells, "basis_size": _basis_size, "rank_sum": _rank_sum}


BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
TIMES = ("calls", "s", "self_s")  # read from the spans themselves
RUN_METRICS = ("trace.overhead",)  # per-layer metrics run.py reports itself


def load_targets():
    """The traced functions and their stats, from BENCHMARK.json.

    Each per-layer name is ``<module>.<qualname>.<stat>``: calls, s
    (inclusive), self_s (inclusive minus child spans) or one work count
    of WORK.  Returns {(module, qualname): [(stat, unit), ...]} in file
    order.
    """
    bench = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    targets = {}
    for metric in bench["per_layer"]:
        if metric["name"] in RUN_METRICS:
            continue
        mod_name, rest = metric["name"].split(".", 1)
        qualname, stat = rest.rsplit(".", 1)
        if stat not in TIMES and stat not in WORK:
            raise ValueError("unknown stat in per-layer metric %r" % metric["name"])
        targets.setdefault((mod_name, qualname), []).append((stat, metric["unit"]))
    return targets


class Tracer:
    """Installs the wrappers, records spans, and restores the originals."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, pass id, work]
        self.pass_id = None
        self.targets = load_targets()
        self._stack = []
        self._restore = []

    def _wrapper(self, fn, name, work):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(args, out)
            return out

        return traced

    def install(self):
        import sympy

        packages = [m for n, m in sorted(sys.modules.items())
                    if (n == "gradedfibers" or n.startswith("gradedfibers."))
                    and m is not None]
        for (mod_name, qualname), stats in self.targets.items():
            work = next((WORK[s] for s, _unit in stats if s in WORK), None)
            name = "%s.%s" % (mod_name, qualname)
            if mod_name == "sympy":
                home = sympy
            else:
                home = sys.modules["gradedfibers." + mod_name]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original,
                             self._wrapper(original, name, work))
                continue
            original = getattr(home, qualname)
            wrapped = self._wrapper(original, name, work)
            holders = [home] + [m for m in packages if m is not home]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, attr, original, wrapped)

    def _rebind(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._restore.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, pass_id, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "pass": pass_id, "work": work}) + "\n")


def aggregate(spans, npasses):
    """Per-layer totals per pass.

    ``s`` sums a name's spans that have no ancestor of the same name, so
    recursion is not counted twice; ``self_s`` sums each span's duration
    minus the durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _p, _w in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {}
    for i, (name, start, end, parent, _p, work) in enumerate(spans):
        t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        dur = end - start
        t["calls"] += 1
        t["self_s"] += dur - child_time[i]
        t["work"] += work
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc < 0:
            t["s"] += dur
    metrics = {}
    for (mod_name, qualname), stats in load_targets().items():
        t = totals.get("%s.%s" % (mod_name, qualname),
                       {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        for stat, unit in stats:
            value = t["work"] if stat in WORK else t[stat]
            metrics["%s.%s.%s" % (mod_name, qualname, stat)] = {
                "value": value / npasses, "unit": unit}
    return metrics


def root_time(spans, pass_id):
    """Summed duration of a pass's top-level spans: their self time plus
    the spans below them."""
    return sum(end - start for _n, start, end, parent, p, _w in spans
               if parent < 0 and p == pass_id)
