"""Self-test of the benchmark's inputs and answer check.

    python3 perfbench/selftest.py

Runs every script of every workload once for each of two seeds, with the
seed's coordinate change, and checks that the checked answers equal
``expected.json`` and so agree between the seeds.  Exits 1 on any
mismatch.
"""

from __future__ import annotations

import shutil
import sys

import check
import run
import workloads

SEEDS = (1, 2)


def answers_of(cli, script, name, text, seed):
    out_dir = run.OUT / ("selftest-" + name)
    shutil.rmtree(out_dir, ignore_errors=True)
    session = script.parse(text)
    cli.run(session, seed=seed, out_dir=str(out_dir))
    return check.checked_answers(out_dir, len(session.commands))


def main():
    cli, script = run.load_program()
    run.OUT.mkdir(exist_ok=True)
    expected = check.load_expected()
    ok = True
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for name, text, sub in workloads.seeded_scripts(script, workload, seed):
                got = answers_of(cli, script, name, text, seed)
                bad = check.count_failures(got, expected[name])
                ok = ok and bad == 0
                print("seed %d %-13s %-24s %s" % (seed, name, sub["var"] + " -> "
                                                   + sub["image"],
                                                   "ok" if bad == 0 else
                                                   "%d mismatches" % bad))
    print("all answers agree" if ok else "MISMATCH")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
