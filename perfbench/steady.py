"""Steadiness self-check: repeat each workload and compare spreads with bounds.

    python3 perfbench/steady.py [--save FILE] [--against FILE]

Runs ``run.py`` on seeds 1 to 10, one seed per run, for every workload of
``BENCHMARK.json``, with its ``run_seconds``.  For every end-to-end metric
it prints the median, the quartiles (as ``statistics.quantiles(values,
n=4)`` gives them) and the spread, the distance between the quartiles as a
share of the median, against the metric's bound: ``steady`` below a third
of the bound, ``within`` below the bound, ``UNSTEADY`` otherwise.
``--save`` writes the values to a JSON file; ``--against`` compares the
medians with such a file and flags a metric whose median got worse by more
than its bound.  It exits with 1 when a run fails its checks, a metric is
``UNSTEADY`` or a median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)


def main(argv=None):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args(argv)

    earlier = json.loads(open(args.against).read()) if args.against else {}
    values = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values[workload] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in SEEDS:
            result = run_once(workload, seed, spec["run_seconds"])
            ok &= result["correct"]
            line = ", ".join(f"{k} {v['value']:.4f}"
                             for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed; {line}",
                  flush=True)
            for name, metric in result["metrics"].items():
                values[workload][name].append(metric["value"])
        for m in spec["end_to_end"]:
            ok &= report(workload, m, values[workload][m["name"]],
                         earlier.get(workload, {}).get(m["name"]))
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(values, fh, indent=1)
    return 0 if ok else 1


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=240)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    return json.loads(lines[-1])


def report(workload, metric, vals, earlier):
    q1, med, q3 = statistics.quantiles(vals, n=4)
    spread = (q3 - q1) / med
    bound = metric["bound"]
    verdict = ("steady" if spread < bound / 3 else
               "within" if spread <= bound else "UNSTEADY")
    line = (f"  {workload:16s} {metric['name']:12s} median {med:.4f} "
            f"{metric['unit']} q1 {q1:.4f} q3 {q3:.4f} n={len(vals)} "
            f"spread {spread:.3f} bound {bound} {verdict}")
    ok = verdict != "UNSTEADY"
    if earlier:
        before = statistics.median(earlier)
        change = (med - before) / before
        if metric["better"] == "higher":
            change = -change
        worse = change > bound
        ok &= not worse
        line += f"; vs earlier median {before:.4f}: {change:+.3f}" + (
            " WORSE" if worse else "")
    print(line, flush=True)
    return ok


if __name__ == "__main__":
    sys.exit(main())
