"""snaklat benchmark: CLI studies in fresh interpreters, checked against references.

    python3 perfbench/run.py --workload snake_trace --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  Each study runs in its own
interpreter, started with BLAS pinned to one thread, and calls
``snaklat.cli.main`` on a config generated from the workload and the seed.
Seed 0 runs the workload's base inputs; other seeds pick an entry of the
committed variant table in ``references.json`` (seed modulo its length).
Every study's output files are checked against that variant's reference.

``--trace 0`` repeats the study until ``--seconds`` is used up (at least
once) and reports the end-to-end metrics of ``BENCHMARK.json``.  Their
times are in reference seconds.  Every interpreter times the fixed kernel
of ``calibrate.py`` right after its set-up, and a study's interpreter also
runs it every half second while the study runs (see ``child.py``).  A
set-up time is scaled by ``CAL_REF_S`` over the mean kernel time that
follows it, and a study's time, less the time its kernel samples took, by
``CAL_REF_S`` over their mean time; that divides out the drift of a shared
processor's speed.  The raw times are printed next to them.
``--trace 1`` runs the study once untraced and once with spans recorded
around every public function of the traced modules (see ``spans.py``),
and reports the per-layer metrics and ``trace.overhead_s``; its timings
never feed the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go to
``.perfbench/`` in the checkout; a run that passes its checks removes its
own.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans as spans_module

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = BENCH / "references.json"

WORKLOADS = {
    "snake_trace": {"command": "snake", "N_d": 20,
                    "run": {"max_folds": 19, "stability": False}},
    "snake_stability": {"command": "snake", "N_d": 10,
                        "run": {"max_folds": 7, "stability": True}},
    "cusp": {"command": "cusp", "N_d": 25,
             "run": {"N_range": [4, 5, 6]}},
}

# One thread for every BLAS/OpenMP runtime numpy or scipy may load.
BLAS_THREADS = 1
PINNED_ENV = {var: str(BLAS_THREADS) for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_PROBES = 4        # import-only interpreters per run, besides the studies
# Typical time of one calibration kernel sample on the machine the benchmark
# was defined on (2 CPUs of an Intel Xeon); a time t measured while the
# kernel took c is reported as t * CAL_REF_S / c.
# Changing it rescales every result.
CAL_REF_S = 0.014
RUN_DEADLINE_S = 170.0  # a run never outlives this, whatever --seconds says

FOLD_MU_TOL = 1e-7      # refined folds converge to residual 1e-10
CUSP_D_TOL = 2e-4       # bisection resolution of acceptance criterion 8
CUSP_LIMIT = (0.887, 0.068)
CUSP_LIMIT_TOL = 0.01


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps the study it is waiting on
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "snaklat" / "__init__.py").is_file():
        print(f"no snaklat package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads(REFERENCES.read_text())[args.workload]
    entry = table[args.seed % len(table)]

    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    bench = Bench(args.workload, entry, args.seed, run_dir)
    print(f"workload {args.workload} seed {args.seed} inputs "
          f"{json.dumps(entry['inputs'])}")

    if args.trace:
        metrics = bench.traced()
        wanted = spec["per_layer"]
    else:
        metrics = bench.measure(args.seconds)
        wanted = spec["end_to_end"]
    env = {"cpu": _cpu_model(), "nproc": len(os.sched_getaffinity(0)),
           "blas_threads": BLAS_THREADS, **bench.env}
    print("env " + json.dumps(env))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"metrics {missing} not measured", file=sys.stderr)
        return 1
    attempted, failed = len(bench.studies), len(bench.failures)
    print(f"fail_frac = {failed / attempted:.4g} ratio "
          f"({failed} of {attempted} studies failed)")
    for problem in bench.failures:
        print(f"FAILED {problem}")
    result = {
        "correct": not bench.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (WORK / f"{args.workload}-last-t{args.trace}.json").write_text(
        json.dumps({"seed": args.seed, "inputs": entry["inputs"], "env": env,
                    "studies": bench.studies, "setups": bench.setups,
                    "failures": bench.failures, **result}, indent=1))
    if not bench.failures:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


class Bench:
    """The studies of one run, with their samples and failures."""

    def __init__(self, workload, entry, seed, run_dir):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.entry = entry
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.config = run_dir / "config.json"
        self.config.write_text(json.dumps({
            "model": {"family": "cubic_quintic"},
            "grid": {"N_d": self.spec["N_d"], "symmetry": "offsite"},
            "run": {**self.spec["run"], **entry["inputs"]},
            "seed": seed,
        }, indent=1))
        self.setups = []     # raw set-up and kernel time of every interpreter
        self.studies = []    # one dict per study attempted
        self.failures = []   # one line per failed study
        self.env = {}

    def measure(self, seconds):
        for i in range(SETUP_PROBES):
            try:
                self.spawn(f"setup{i}", "setup")
            except StudyFailed as exc:
                raise SystemExit(f"set-up probe failed: {exc}")
        start = time.monotonic()
        while True:
            self.study(f"study{len(self.studies)}", "study")
            elapsed = time.monotonic() - start
            typical = statistics.median(s["elapsed_s"] for s in self.studies)
            if (elapsed + typical > seconds
                    or time.monotonic() + typical > self.deadline):
                break
        done = [s for s in self.studies if "wall_s" in s]
        if not done:
            raise SystemExit("no study finished; nothing to report")
        walls = [CAL_REF_S * (s["wall_s"] - sum(s["study_cal_s"]))
                 / statistics.mean(s["study_cal_s"] or s["cal_s"])
                 for s in done]
        setups = [CAL_REF_S * s["setup_s"] / statistics.mean(s["cal_s"])
                  for s in self.setups]
        cals = [c for s in done for c in s["study_cal_s"]]
        _report("calibration", "s", cals, "kernel samples during studies",
                f"; reference {CAL_REF_S} s")
        _report("wall_s", "s", walls, "studies", "; raw "
                f"{statistics.median(s['wall_s'] for s in done):.6g} s")
        raw_setup = statistics.median(s["setup_s"] for s in self.setups)
        _report("setup_s", "s", setups, "interpreter set-ups",
                f"; raw {raw_setup:.6g} s")
        _report("peak_rss_mb", "MB", [s["peak_rss_mb"] for s in done],
                "studies")
        return {"wall_s": statistics.median(walls),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(s["peak_rss_mb"]
                                                 for s in done)}

    def traced(self):
        plain = self.study("untraced", "study")
        traced = self.study("traced", "trace")
        spans_path = self.run_dir / "traced" / "spans.json"
        if "wall_s" not in traced or not spans_path.is_file():
            raise SystemExit("traced study did not finish; nothing to report")
        with open(spans_path) as fh:
            spans = json.load(fh)["spans"]
        metrics = layer_metrics(spans)
        # raw seconds on both sides; the untraced study less its kernel samples
        untraced = plain.get("wall_s", float("nan")) - sum(
            plain.get("study_cal_s", []))
        if "wall_s" in plain:
            metrics["trace.overhead_s"] = traced["wall_s"] - untraced
        print(f"traced wall_s {traced['wall_s']:.4f} s, untraced "
              f"{untraced:.4f} s, {len(spans)} spans")
        print_span_table(spans)
        for name, value in metrics.items():
            print(f"{name} = {value:.6g}")
        return metrics

    def study(self, label, mode):
        """Run the study once in a fresh interpreter and check its outputs."""
        out = self.run_dir / label
        sample = {"label": label}
        self.studies.append(sample)
        try:
            child, elapsed = self.spawn(label, mode)
        except StudyFailed as exc:
            sample["elapsed_s"] = time.monotonic() - exc.started
            self.failures.append(f"{label}: {exc}")
            return sample
        sample.update(elapsed_s=elapsed, wall_s=child["wall_s"],
                      cal_s=child["cal_s"], study_cal_s=child["study_cal_s"],
                      peak_rss_mb=child["peak_rss_kb"] / 1024.0)
        try:
            problems = ([f"exit code {child['rc']}"] if child["rc"] != 0
                        else check_outputs(self.workload, self.entry, out))
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return sample

    def spawn(self, label, mode):
        out = self.run_dir / label
        out.mkdir()
        cmd = [sys.executable, str(BENCH / "child.py"), str(SRC),
               self.spec["command"], str(self.config), str(out), mode]
        started = time.monotonic()
        timeout = max(1.0, self.deadline - started)
        try:
            with open(out / "stderr.txt", "w") as err:
                proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ,
                                                          **PINNED_ENV},
                                      stdout=subprocess.DEVNULL, stderr=err,
                                      timeout=timeout)
        except subprocess.TimeoutExpired:
            raise StudyFailed(f"timed out after {timeout:.0f} s", started)
        elapsed = time.monotonic() - started
        if proc.returncode != 0:
            tail = (out / "stderr.txt").read_text().strip().splitlines()[-1:]
            raise StudyFailed(f"interpreter exited {proc.returncode} "
                              f"{' '.join(tail)}", started)
        child = json.loads((out / "child.json").read_text())
        self.setups.append({"label": label,
                            "setup_s": child["ready"] - started,
                            "cal_s": child["cal_s"]})
        self.env = child["env"]
        return child, elapsed


class StudyFailed(Exception):
    def __init__(self, message, started):
        super().__init__(message)
        self.started = started


def _report(name, unit, values, what, note=""):
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    print(f"{name} = {statistics.median(values):.6g} {unit} "
          f"(median of n={len(values)} {what}; q1 {q1:.6g}, q3 {q3:.6g}"
          f"{note})")


# ---------------------------------------------------------------------------
# output checks


def check_outputs(workload, entry, out):
    """Problems found in one study's output files; empty when all agree."""
    ref = entry["reference"]
    if WORKLOADS[workload]["command"] == "cusp":
        return _check_cusp(ref, out)
    run = {**WORKLOADS[workload]["run"], **entry["inputs"]}
    return _check_snake(run["max_folds"], ref, out)


def _check_snake(max_folds, ref, out):
    folds = json.loads((out / "folds.json").read_text())
    problems = []
    if len(folds) != max_folds:
        problems.append(f"{len(folds)} folds, expected {max_folds}")
    unrefined = [i for i, f in enumerate(folds) if not f["refined"]]
    if unrefined:
        problems.append(f"folds {unrefined} not refined")
    moved = [i for i, (f, mu) in enumerate(zip(folds, ref["fold_mu"]))
             if not abs(f["mu"] - mu) <= FOLD_MU_TOL]
    if moved:
        problems.append(f"folds {moved} moved by more than {FOLD_MU_TOL}")
    if "segment_unstable" in ref:
        got = segment_unstable_counts(out / "branch.csv")
        if got != ref["segment_unstable"]:
            problems.append(f"segment unstable counts {got}, expected "
                            f"{ref['segment_unstable']}")
    return problems


def segment_unstable_counts(branch_csv):
    """n_unstable at the midpoint of every segment between fold events."""
    with open(branch_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    folds = [i for i, r in enumerate(rows) if "fold" in r["event"].split("+")]
    bounds = [0] + folds + [len(rows) - 1]
    counts = []
    for a, b in zip(bounds, bounds[1:]):
        value = rows[(a + b) // 2]["n_unstable"]
        counts.append(int(value) if value != "" else None)
    return counts


def _check_cusp(ref, out):
    with open(out / "cusps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fit = json.loads((out / "cusp_fit.json").read_text())
    problems = []
    ns = [int(r["N"]) for r in rows]
    if ns != ref["N"]:
        problems.append(f"widths {ns}, expected {ref['N']}")
    for r, d_ref in zip(rows, ref["d_N"]):
        if r["converged"] != "True" or r["nullity_check"] != "True":
            problems.append(f"N={r['N']} converged={r['converged']} "
                            f"nullity_check={r['nullity_check']}")
        elif not abs(float(r["d_N"]) - d_ref) <= CUSP_D_TOL:
            problems.append(f"N={r['N']} d_N={r['d_N']}, reference {d_ref}")
    limit = (fit.get("mu_inf"), fit.get("d_inf"))
    if None in limit or any(not abs(x - x0) <= CUSP_LIMIT_TOL
                            for x, x0 in zip(limit, CUSP_LIMIT)):
        problems.append(f"fit (mu_inf, d_inf) = {limit}, expected within "
                        f"{CUSP_LIMIT_TOL} of {CUSP_LIMIT}")
    return problems


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of a traced study

FIELD = {name: i for i, name in enumerate(spans_module.FIELDS)}

FOLD_HUNTS = ("studies.find_right_fold", "studies.find_left_fold")
OUTPUT_WRITERS = ("continuation.save_branch_csv",
                  "continuation.save_event_profiles", "cli._write_manifest")

# metric -> (statistic, span names)
LAYER_METRICS = {
    "solver.residual.calls": ("calls", ("solver.residual_values",)),
    "solver.residual.s": ("s", ("solver.residual_values",)),
    "solver.jacobian.calls": ("calls", ("solver.jacobian_matrix",)),
    "solver.jacobian.s": ("s", ("solver.jacobian_matrix",)),
    "solver.bordered.calls": ("calls", ("solver.bordered_solve",)),
    "solver.bordered.self_s": ("self_s", ("solver.bordered_solve",)),
    "solver.newton.calls": ("calls", ("solver.newton_solve",)),
    "solver.newton.fail": ("fail", ("solver.newton_solve",)),
    "factor.calls": ("calls", ("factor.splu",)),
    "factor.s": ("s", ("factor.splu",)),
    "factor.n_mean": ("size_mean", ("factor.splu",)),
    "continuation.branch.calls": ("calls", ("continuation.continue_branch",)),
    "continuation.branch.self_s": ("self_s",
                                   ("continuation.continue_branch",)),
    "continuation.points": ("size_sum", ("continuation.continue_branch",)),
    "continuation.refine_fold.calls": ("calls", ("continuation.refine_fold",)),
    "continuation.refine_fold.s": ("s", ("continuation.refine_fold",)),
    "continuation.refine_fold.fail": ("fail", ("continuation.refine_fold",)),
    "continuation.tag_stability.s": ("s", ("continuation.tag_stability",)),
    "spectral.inertia.calls": ("calls", ("spectral.banded_ldl_inertia",)),
    "spectral.inertia.s": ("s", ("spectral.banded_ldl_inertia",)),
    "spectral.inertia.fail": ("fail", ("spectral.banded_ldl_inertia",)),
    "spectral.dense_inertia.calls": ("calls", ("spectral.dense_ldl_inertia",)),
    "spectral.unstable_count.calls": ("calls", ("spectral.unstable_count",)),
    "spectral.unstable_count.s": ("s", ("spectral.unstable_count",)),
    "codim2.crossing.s": ("s", ("codim2.fold_curve_crossing",)),
    "codim2.find_cusp.calls": ("calls", ("codim2.find_cusp",)),
    "codim2.find_cusp.s": ("s", ("codim2.find_cusp",)),
    "codim2.find_cusp.fail": ("fail", ("codim2.find_cusp",)),
    "codim2.component_eig.calls": ("calls", ("codim2.smallest_component_eig",)),
    "codim2.component_eig.s": ("s", ("codim2.smallest_component_eig",)),
    "studies.fold_hunt.calls": ("calls", FOLD_HUNTS),
    "studies.fold_hunt.s": ("s", FOLD_HUNTS),
    "studies.prepared_state.calls": ("calls", ("studies.prepared_state",)),
    "studies.prepared_state.s": ("s", ("studies.prepared_state",)),
    "lattice.laplacian.calls": ("calls", ("lattice.laplacian_matrix",)),
    "lattice.unfold.calls": ("calls", ("lattice.unfold",)),
    "cli.output.s": ("s", OUTPUT_WRITERS),
}


def span_stats(spans):
    """Per span name: calls, inclusive s, self s, failures, size sum/count."""
    i_parent, i_name = FIELD["parent"], FIELD["name"]
    i_start, i_end = FIELD["start"], FIELD["end"]
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp[i_parent] >= 0:
            child_time[sp[i_parent]] += sp[i_end] - sp[i_start]
    stats = {}
    for sp, covered in zip(spans, child_time):
        st = stats.setdefault(sp[i_name], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                           "fail": 0, "size_sum": 0,
                                           "sized": 0})
        dur = sp[i_end] - sp[i_start]
        st["calls"] += 1
        st["self_s"] += dur - covered
        st["fail"] += bool(sp[FIELD["failed"]])
        if not sp[FIELD["nested"]]:
            st["s"] += dur
        if sp[FIELD["size"]] is not None:
            st["size_sum"] += sp[FIELD["size"]]
            st["sized"] += 1
    return stats


def layer_metrics(spans):
    stats = span_stats(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "fail": 0, "size_sum": 0,
             "sized": 0}
    out = {}
    for metric, (stat, names) in LAYER_METRICS.items():
        rows = [stats.get(n, empty) for n in names]
        if stat == "size_mean":
            sized = sum(r["sized"] for r in rows)
            out[metric] = sum(r["size_sum"] for r in rows) / sized if sized \
                else 0.0
        else:
            out[metric] = sum(r[stat] for r in rows)
    points = out["continuation.points"]
    out["continuation.solves_per_point"] = (
        _count_under(spans, "solver.bordered_solve",
                     ("continuation.continue_branch",)) / points
        if points else 0.0)
    hunts = out["studies.fold_hunt.calls"]
    out["studies.branches_per_hunt"] = (
        _count_under(spans, "continuation.continue_branch", FOLD_HUNTS) / hunts
        if hunts else 0.0)
    return out


def _count_under(spans, name, ancestors):
    """Spans called ``name`` that run inside a span named in ``ancestors``."""
    i_parent, i_name = FIELD["parent"], FIELD["name"]
    count = 0
    for sp in spans:
        if sp[i_name] != name:
            continue
        p = sp[i_parent]
        while p >= 0 and spans[p][i_name] not in ancestors:
            p = spans[p][i_parent]
        count += p >= 0
    return count


def print_span_table(spans):
    stats = span_stats(spans)
    print(f"{'span':42s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s} "
          f"{'fail':>5s}")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:42s} {st['calls']:8d} {st['s']:9.4f} "
              f"{st['self_s']:9.4f} {st['fail']:5d}")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())
