"""Set-up probe: a fresh interpreter imports gradedfibers and sympy and
parses the workload's seeded scripts, then exits.

run.py times this whole process several times and reports the median as
``setup_s``.  Usage: python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import sympy  # noqa: E402,F401  every CLI run pays this import
from gradedfibers import cli, script  # noqa: E402,F401

import workloads  # noqa: E402

if __name__ == "__main__":
    for _name, text, _sub in workloads.seeded_scripts(script, sys.argv[1],
                                                       int(sys.argv[2])):
        script.parse(text)
