"""Benchmark of gradedfibers session scripts, run in-process through cli.run.

Usage (from the repository root):

    python3 perfbench/run.py --workload field --seed 1 --seconds 55 --trace 0

A pass parses every script of the workload afresh and runs it with
``gradedfibers.cli.run``; no ring or monomial cache carries from one pass
to the next.  A run makes at least MIN_PASSES passes, so that its median
stands against one slow pass, and more while the next one is expected to
end within ``--seconds``.  Every command's checked answer is compared with
``expected.json`` after every run of its script.

With ``--trace 0`` the last line reports the end-to-end metrics:
``solve_s`` (median pass time), ``setup_s`` (median time of fresh
interpreters that import gradedfibers and sympy and parse the scripts)
and ``peak_rss_mb``.  With ``--trace 1`` an untraced warm-up pass is
followed by paired passes, which run each script untraced and traced back
to back; the last line reports the per-layer metrics of layertrace.py,
averaged over the traced runs, plus ``trace.overhead``, the median of the
traced/untraced time ratios of the pairs.  Lines before the last one
record the seed's coordinate changes, the pass times and the sample count.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 9
MIN_PASSES = 3
MIN_COVERAGE = 0.95  # share of a traced pass its top-level spans must cover


def load_program():
    """Import gradedfibers from the checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sympy  # noqa: F401  every CLI run pays this import
        import gradedfibers
        from gradedfibers import cli, script
    except ImportError as exc:
        sys.exit("cannot import gradedfibers from %s: %s" % (src, exc))
    if Path(gradedfibers.__file__).resolve().parent != src / "gradedfibers":
        sys.exit("gradedfibers was imported from %s, not from %s"
                 % (gradedfibers.__file__, src))
    return cli, script


def measure_setup(workload, seed, count):
    """Wall times of ``count`` fresh interpreters running probe.py."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls the child in sleeps of up
        # to 50 ms, which would round every probe up to that step
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs one workload's seeded scripts and checks every answer."""

    def __init__(self, cli, script, texts, seed, expected):
        self.cli = cli
        self.script = script
        self.texts = texts
        self.seed = seed
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.answers = {}  # script name -> checked answers of each run

    def run_script(self, name, text, tracer=None):
        """Parse and run one script, traced when a tracer is given; returns
        its wall time."""
        out_dir = OUT / name
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            session = self.script.parse(text)
            self.cli.run(session, seed=self.seed, out_dir=str(out_dir))
            elapsed = time.perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.remove()
        want = self.expected[name]
        got = check.checked_answers(out_dir, len(want))
        self.answers.setdefault(name, []).append(got)
        self.attempted += len(want)
        self.failed += check.count_failures(got, want)
        return elapsed

    def one_pass(self):
        return sum(self.run_script(name, text) for name, text in self.texts)

    def passes(self, deadline):
        """Pass times; another pass starts until there are MIN_PASSES, then
        while one of mean length still ends before the deadline."""
        times = [self.one_pass()]
        while (len(times) < MIN_PASSES
               or time.perf_counter() + statistics.fmean(times) <= deadline):
            times.append(self.one_pass())
        return times

    def paired_pass(self, tracer, index):
        """Runs each script untraced and traced back to back, the order
        alternating from script to script and pass to pass, so that both
        runs of a pair see the same machine.  Returns the (untraced,
        traced) time of each script."""
        tracer.pass_id = index
        pairs = []
        for i, (name, text) in enumerate(self.texts):
            if (i + index) % 2:
                traced = self.run_script(name, text, tracer)
                untraced = self.run_script(name, text)
            else:
                untraced = self.run_script(name, text)
                traced = self.run_script(name, text, tracer)
            pairs.append((untraced, traced))
        return pairs

    def answers_agree(self):
        """Every run of a script gave the same checked answers."""
        return all(a == runs[0] for runs in self.answers.values() for a in runs)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli, script = load_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    seeded = workloads.seeded_scripts(script, args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "substitutions": [sub for _n, _t, sub in seeded]}))
    texts = [(name, text) for name, text, _sub in seeded]
    runner = Runner(cli, script, texts, args.seed, check.load_expected())
    OUT.mkdir(exist_ok=True)

    if args.trace == 0:
        # half the set-up probes before the passes and half after, so that
        # they sample the machine at both ends of the run
        setup = measure_setup(args.workload, args.seed, SETUP_PROBES // 2)
        times = runner.passes(time.perf_counter() + args.seconds)
        setup += measure_setup(args.workload, args.seed, SETUP_PROBES - len(setup))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps({"solve_s": {"samples": len(times), "passes": times},
                          "setup_s": {"samples": len(setup), "probes": setup}}))
        metrics = {
            "solve_s": {"value": statistics.median(times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
        correct = runner.failed == 0
    else:
        deadline = time.perf_counter() + args.seconds
        warmup = runner.one_pass()
        tracer = layertrace.Tracer()
        pairs = [runner.paired_pass(tracer, 0)]
        while time.perf_counter() + statistics.fmean(
                sum(u + t for u, t in p) for p in pairs) <= deadline:
            pairs.append(runner.paired_pass(tracer, len(pairs)))
        traced = [sum(t for _u, t in p) for p in pairs]
        coverage = [layertrace.root_time(tracer.spans, i) / t
                    for i, t in enumerate(traced)]
        tracer.write(OUT / ("spans-%s-%d.jsonl" % (args.workload, args.seed)))
        metrics = layertrace.aggregate(tracer.spans, len(traced))
        ratios = [t / u for p in pairs for u, t in p]
        metrics["trace.overhead"] = {
            "value": statistics.median(ratios), "unit": "ratio"}
        same = runner.answers_agree()
        print(json.dumps({"warmup_s": warmup, "pairs_s": pairs,
                          "overhead_ratios": ratios, "spans": len(tracer.spans),
                          "coverage": coverage,
                          "traced_answers_equal_untraced": same}))
        correct = (runner.failed == 0 and same
                   and all(c >= MIN_COVERAGE for c in coverage))

    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
