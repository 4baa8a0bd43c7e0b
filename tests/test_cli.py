"""Session scripts end to end: payload files are byte-identical to golden copies.

Each ``tests/golden/<name>.gf`` script has its expected payloads in
``tests/golden/<name>/``, written by the program when they were recorded
and not edited afterwards.  A rerun must reproduce them byte for byte,
also when the same script runs twice in one process.
"""

from pathlib import Path

import pytest

from gradedfibers import cli, script

GOLDEN = Path(__file__).resolve().parent / "golden"

# script name -> exit code of cli.run: 1 when some command wrote an error payload
CASES = {
    "cubic_qq": 0,
    "cubic_gf": 0,
    "module_loci": 0,
    "rees_qq": 0,
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
