"""Regenerate ``references.json``: the variant table and each variant's outputs.

    python3 perfbench/make_references.py [--workload NAME ...]

Runs every input variant of the chosen workloads once, in a fresh
interpreter exactly as the benchmark does, and records the outputs the
benchmark later compares against: the refined fold locations of a snake
and the per-width cusp couplings.  A stability snake also gets the unstable
count each segment between folds must show.  Before a variant is recorded its
outputs must pass the checks that do not depend on a reference: all folds
refined, segment counts equal to the D4 orbit-size sequence of
``studies.expected_fold_sequence``, every cusp width converged and
nullity-checked, and the cusp fit near its known limit.  When any variant
fails them, or its study does not run, the failures are reported, the
table is left as it was and the script exits with 1: the table never
shrinks to hide a defect.  Entry 0 of each table is the workload's base
input, used by seed 0.
"""

from __future__ import annotations

import argparse
import csv
import json
import shutil
import sys

import run

# d stays within 10% of the base value: at d = 8e-4 the N_d = 10 branch has
# 507 points against 437 at d = 1.25e-3, and that difference alone spreads
# wall_s across seeds by about 0.19.  Between 9e-4 and 1.1e-3 it has
# 457-472 points.
SNAKE_VARIANTS = [{"d": d, "mu_start": mu}
                  for mu in (0.5, 0.45, 0.55)
                  for d in (1e-3, 9e-4, 1.1e-3)]
CUSP_VARIANTS = [{"d_bracket": [lower, 0.12]}
                 for lower in (0.04, 0.035, 0.045, 0.0375, 0.0425)]
VARIANTS = {"snake_trace": SNAKE_VARIANTS,
            "snake_stability": SNAKE_VARIANTS,
            "cusp": CUSP_VARIANTS}


def expected_segment_counts(max_folds):
    """Unstable count of each segment, from the crossing count at each fold.

    The branch starts on v-bar(1,1) with its orbit's eigenvalues unstable;
    each right fold restabilises the critical orbit and each left fold
    destabilises the next one.
    """
    sys.path.insert(0, str(run.SRC))
    from snaklat import studies

    seq = studies.expected_fold_sequence(max_folds)
    counts = [seq[0][2]]
    for kind, _, crossing in seq:
        counts.append(counts[-1] + (crossing if kind == "left" else -crossing))
    return counts


def reference_from(workload, out):
    if run.WORKLOADS[workload]["command"] == "cusp":
        with open(out / "cusps.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return {"N": [int(r["N"]) for r in rows],
                "d_N": [float(r["d_N"]) if r["d_N"] else None for r in rows]}
    folds = json.loads((out / "folds.json").read_text())
    ref = {"fold_mu": [f["mu"] for f in folds]}
    if run.WORKLOADS[workload]["run"]["stability"]:
        ref["segment_unstable"] = expected_segment_counts(
            run.WORKLOADS[workload]["run"]["max_folds"])
    return ref


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(VARIANTS))
    args = ap.parse_args(argv)
    path = run.REFERENCES
    table = json.loads(path.read_text()) if path.is_file() else {}
    failures = []
    for workload in args.workload or sorted(VARIANTS):
        entries = []
        for i, inputs in enumerate(VARIANTS[workload]):
            run_dir = run.WORK / f"reference-{workload}-{i}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            bench = run.Bench(workload, {"inputs": inputs}, 0, run_dir)
            try:
                child, _ = bench.spawn("study", "study")
                out = run_dir / "study"
                entry = {"inputs": inputs,
                         "reference": reference_from(workload, out)}
                problems = ([f"exit code {child['rc']}"] if child["rc"] else
                            run.check_outputs(workload, entry, out))
            except (run.StudyFailed, OSError, ValueError, KeyError) as exc:
                problems = [repr(exc)]
            if problems:
                failures.append(f"{workload} {inputs}: {'; '.join(problems)}")
                print(f"FAILED {failures[-1]}", flush=True)
                continue
            print(f"{workload} {inputs}: {child['wall_s']:.2f} s, ok",
                  flush=True)
            entries.append(entry)
            shutil.rmtree(run_dir)
        table[workload] = entries
    if failures:
        print(f"{len(failures)} variants failed; {path.name} not written",
              file=sys.stderr)
        return 1
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
