"""Session scripts end to end: payload files are byte-identical to golden copies.

Each ``tests/golden/<name>.gf`` script has its expected payloads in
``tests/golden/<name>/``, written by the program when they were recorded
and not edited afterwards, save for the error ``kind`` added by hand to
``bad_window`` when error payloads gained it.  A rerun must reproduce them
byte for byte, also when the same script runs twice in one process.
"""

import json
from pathlib import Path

import pytest

from gradedfibers import cli, script
from gradedfibers.errors import DualityMismatch, InvalidFiber, MultiplicityMismatch
from gradedfibers.modules import Presentation

GOLDEN = Path(__file__).resolve().parent / "golden"

# script name -> exit code of cli.run: 1 when some command wrote an error payload
CASES = {
    "cubic_qq": 0,
    "cubic_gf": 0,
    "module_loci": 0,
    "loci_points": 0,
    "rees_qq": 0,
    "quotient_qq": 0,
    "module_powers": 0,
    "module_embed": 0,
    "quartic_qq": 0,
    "ratmap_p2": 0,
    "loci_cusp": 0,
    "loci_quartic_family": 0,
    "ratmap_cusp": 0,
    "loci_jumps": 0,
    "harness_katzman": 0,
    "powers_capacity": 0,
    "bad_window": 1,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_payloads_match_golden(name, tmp_path):
    text = (GOLDEN / (name + ".gf")).read_text(encoding="utf-8")
    want = {p.name: p.read_bytes() for p in (GOLDEN / name).iterdir()}
    assert want
    for run in range(2):
        out = tmp_path / str(run)
        assert cli.run(script.parse(text), seed=0, out_dir=str(out)) == CASES[name]
        got = {p.name: p.read_bytes() for p in out.iterdir()}
        assert got == want


def test_main_reports_unreadable_script(tmp_path, capsys):
    assert cli.main(["--script", str(tmp_path / "missing.gf"),
                     "--out", str(tmp_path)]) == 2
    assert "cannot read script" in capsys.readouterr().err


@pytest.mark.parametrize("exc, kind", [(KeyError("mu"), "internal"),
                                       (DualityMismatch("routes differ"), "internal"),
                                       (InvalidFiber("no such point"), "input"),
                                       (MultiplicityMismatch("j=2, d^r=4"), "internal")])
def test_error_payloads_tell_input_from_engine_bugs(exc, kind, tmp_path, monkeypatch):
    def broken(env, cmd, opts):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "localcoh", broken)
    text = (GOLDEN / "bad_window.gf").read_text(encoding="utf-8")
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 1
    error = json.loads((tmp_path / "01_localcoh.json").read_text())["error"]
    assert (error["type"], error["kind"]) == (type(exc).__name__, kind)


def test_specialize_drops_zero_generators(tmp_path):
    # a zero generator is valid input: the payload is that of the ideal
    # without it, not an internal error
    text = ("ring R base poly(QQ, t) vars x:1 y:1;\n"
            "ideal Z = (0, x);\nideal X = (x);\n"
            "cmd specialize Z power 2;\ncmd specialize X power 2;\n")
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 0
    zero, plain = (json.loads((tmp_path / ("%02d_specialize.json" % i)).read_text())
                   for i in (1, 2))
    assert "error" not in zero
    for payload in (zero, plain):
        del payload["index"], payload["target"]
    assert zero == plain


@pytest.mark.parametrize("fiber", ["", " at H"])
def test_invariants_over_a_parameter_base_ask_for_a_rational_point(fiber, tmp_path,
                                                                  monkeypatch):
    # the duality route needs a field; the generic fiber keeps its
    # parameters, so the command is refused as input before any work
    def no_work(*args, **kwargs):
        raise AssertionError("invariants specialized the module")

    monkeypatch.setattr(Presentation, "evaluate", no_work)
    text = ("ring R base poly(QQ, t) vars x:1 y:1;\n"
            "ideal I = (x^2, t*x*y, (t - 1)*y^2);\n"
            "fiber H = generic(t - 1);\n"
            "cmd invariants I%s;\n" % fiber)
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 1
    error = json.loads((tmp_path / "01_invariants.json").read_text())["error"]
    assert (error["type"], error["kind"]) == ("AlgebraError", "input")
    assert "need a field base or a rational fiber point" in error["message"]


def mirror_rows(payload):
    """The rows a payload's CSV mirror holds: its `entries` or `rows`
    table, else one (key, JSON value) row per scalar key."""
    for key, head in (("entries", "i"), ("rows", "power")):
        if key in payload:
            return [[head, "degree", "dim"]] + [
                [str(e[head]), " ".join(map(str, e["degree"])), str(e["dim"])]
                for e in payload[key]]
    return [["key", "value"]] + [[k, json.dumps(v)] for k, v in sorted(payload.items())
                                 if not isinstance(v, (dict, list))]


def test_power_cutoff_caps_powers_and_keeps_the_exact_image_degree(tmp_path):
    # the cutoff stops the power limits short, but deg Y is read off the
    # image and needs none: 2 for the Veronese map, 1 for (x^2, y^2)
    assert cli.main(["--script", str(GOLDEN / "rees_qq.gf"), "--out", str(tmp_path),
                     "--power-cutoff", "2"]) == 0
    ratmaps = [json.loads((tmp_path / name).read_text())
               for name in ("01_ratmap.json", "02_ratmap.json")]
    assert [(p["degY"], p["stable"]) for p in ratmaps] == [(2, False), (1, False)]
    powers = json.loads((tmp_path / "03_specialize.json").read_text())
    assert powers["power"] == 2
    assert {row["power"] for row in powers["rows"]} == {0, 1, 2}


@pytest.mark.parametrize("command, message", [
    ("specialize V power -1", "power -1 is negative"),
    ("harness V window [0, 1] samples -1", "sample count -1 is negative"),
], ids=["power", "samples"])
def test_negative_counts_are_refused_as_input(command, message, tmp_path):
    # a negative power or sample count has no answer: an input error, not
    # an empty table or a verdict as if no rational point existed
    text = ("ring R base poly(QQ, t) vars x:1 y:1;\n"
            "ideal V = (x^2, t*x*y, y^2);\n"
            "cmd %s;\n" % command)
    assert cli.run(script.parse(text), out_dir=str(tmp_path)) == 1
    (path,) = tmp_path.glob("01_*.json")
    payload = json.loads(path.read_text())
    assert sorted(payload) == ["command", "error", "index", "seed"]
    assert payload["error"] == {"type": "AlgebraError", "message": message, "kind": "input"}


@pytest.mark.parametrize("cutoff", ["0", "-2"])
def test_power_cutoff_below_one_is_a_usage_error(cutoff, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--script", str(GOLDEN / "rees_qq.gf"), "--out", str(tmp_path / "out"),
                  "--power-cutoff", cutoff])
    assert exc.value.code == 2
    assert "--power-cutoff must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name, cutoff", [("rees_qq", ["--power-cutoff", "2"]),
                                          ("cubic_qq", [])])
def test_csv_mirrors_match_their_payloads(name, cutoff, tmp_path):
    assert cli.main(["--script", str(GOLDEN / (name + ".gf")), "--out", str(tmp_path),
                     "--csv"] + cutoff) == 0
    payloads = sorted(tmp_path.glob("*.json"))
    assert payloads and sorted(tmp_path.glob("*.csv")) == [p.with_suffix(".csv")
                                                             for p in payloads]
    kinds = set()
    for path in payloads:
        payload = json.loads(path.read_text())
        want = mirror_rows(payload)
        kinds.add(want[0][0])
        got = [line.split(",") for line in path.with_suffix(".csv").read_text().splitlines()]
        assert got == want, path.name
    assert kinds == ({"key", "power"} if name == "rees_qq" else {"i"})
