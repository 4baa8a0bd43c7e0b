"""The benchmark's per-layer metrics name functions that exist.

Each per-layer name in BENCHMARK.json is ``<module>.<qualname>.<stat>``,
and the traced benchmark run rebinds that function (a method in its
class's own namespace), so a rename or a deletion in gradedfibers breaks
the traced run.  This test catches it without running the benchmark.
Names without a qualname, such as ``trace.overhead``, are measured by the
runner itself.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def traced_names():
    names = {}
    for metric in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]:
        module, rest = metric["name"].split(".", 1)
        if "." in rest:
            names[(module, rest.rsplit(".", 1)[0])] = None
    return list(names)


def resolves(module, qualname):
    if module == "sympy":
        return qualname == "factor_list"
    home = importlib.import_module("gradedfibers." + module)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return callable(vars(getattr(home, cls_name, object)).get(attr))
    return callable(getattr(home, qualname, None))


def test_every_per_layer_name_resolves():
    names = traced_names()
    assert len(names) > 30
    gone = ["%s.%s" % name for name in names if not resolves(*name)]
    assert gone == []
