"""Command-line front end: study configuration, subcommands, manifests.

Every run validates its JSON config (unknown keys are rejected), executes
one study, writes data-only outputs (CSV/JSON; plotting is left to external
tools), and records a manifest with the config echo, package and library
versions, the RNG seed, and the wall time, so a run can be reproduced
byte-for-byte.

Exit codes: 0 success, 1 numerical failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np
import scipy

from . import (__version__, asymptotics, codim2, continuation, dynamics,
               lattice, model, solver, studies)
from .model import PatternId, UBAR, VBAR


class ConfigError(Exception):
    pass


_KNOWN_KEYS = {
    "": {"model", "grid", "run", "output", "seed"},
    "model": {"family", "coefficients"},
    "grid": {"N_d", "symmetry"},
    "output": {"directory"},
}

_RUN_KEYS = {
    "solve": {"pattern", "mu", "d"},
    "snake": {"d", "mu_start", "max_folds", "max_points", "stability",
              "h_init", "h_max"},
    "asym": {"d", "N", "M", "eps", "max_points"},
    "isola": {"d", "N", "mu_start", "max_points"},
    "cusp": {"N_range", "d_bracket"},
    "simulate": {"pattern", "mu", "d", "t_end", "perturbation", "samples"},
    "reduced": {"system"},
    "verify-asym": {"ending", "d_list", "N", "M"},
}


def _check_keys(obj, allowed, path):
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown config key(s) {sorted(unknown)} in "
                          f"'{path or 'top level'}'")


def load_config(path, command):
    with open(path) as fh:
        cfg = json.load(fh)
    _check_keys(cfg, _KNOWN_KEYS[""], "")
    for section in ("model", "grid", "output"):
        if section in cfg:
            _check_keys(cfg[section], _KNOWN_KEYS[section], section)
    run = cfg.get("run", {})
    if command in _RUN_KEYS:
        _check_keys(run, _RUN_KEYS[command], "run")
    return cfg


def _nonlinearity(cfg):
    mdl = cfg.get("model", {})
    family = mdl.get("family", "cubic_quintic")
    try:
        return model.builtin_nonlinearity(family, mdl.get("coefficients"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _grid_args(cfg):
    grid = cfg.get("grid", {})
    n_d = int(grid.get("N_d", 10))
    symmetry = grid.get("symmetry", lattice.OFFSITE)
    if symmetry not in (lattice.OFFSITE, lattice.ONSITE):
        raise ConfigError(f"unknown grid.symmetry {symmetry!r}")
    return n_d, symmetry


def _pattern(run, symmetry, n_d):
    spec = run.get("pattern")
    if not spec:
        raise ConfigError("run.pattern is required")
    try:
        variant = {"ubar": UBAR, "vbar": VBAR}[spec.get("variant", "ubar")]
        pattern = PatternId(int(spec["N"]), int(spec["M"]), variant, symmetry)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"invalid run.pattern: {exc}") from exc
    _check_width(pattern.N, n_d)
    return pattern


def _check_width(N, n_d):
    if N > n_d:
        raise ConfigError(f"pattern exceeds domain: N={N} > N_d={n_d}")


def _write_manifest(out_dir, cfg, seed, t0, outputs, bordered_solves):
    manifest = {
        "config": cfg,
        "seed": seed,
        "versions": {
            "snaklat": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": time.perf_counter() - t0,
        "outputs": outputs,
        "stats": {"bordered_solves": bordered_solves},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def cmd_solve(cfg, out_dir, seed):
    nl = _nonlinearity(cfg)
    n_d, symmetry = _grid_args(cfg)
    run = cfg.get("run", {})
    pattern = _pattern(run, symmetry, n_d)
    mu = float(run.get("mu", 0.5))
    d = float(run.get("d", 0.0))
    u = studies.prepared_state(nl, pattern, mu, d, n_d)
    res = solver.residual(u, nl, mu, d).norm_inf()
    path = os.path.join(out_dir, "profile.json")
    lattice.save_profile(u, path)
    lattice.export_csv(u, os.path.join(out_dir, "profile.csv"))
    log = {"mu": mu, "d": d, "residual_inf": res}
    with open(os.path.join(out_dir, "solve_log.json"), "w") as fh:
        json.dump(log, fh, indent=2)
    return [path]


def cmd_snake(cfg, out_dir, seed):
    nl = _nonlinearity(cfg)
    n_d, symmetry = _grid_args(cfg)
    run = cfg.get("run", {})
    d = float(run.get("d", 1e-3))
    mu_lo, mu_hi = nl.window
    mu_start = float(run.get("mu_start", 0.5))
    if not (mu_lo < mu_start < mu_hi):
        raise ConfigError(
            f"mu_start={mu_start} outside the bistable window {nl.window}"
        )
    branch = studies.snake_branch(
        nl, d, symmetry=symmetry, n_d=n_d,
        mu_start=mu_start,
        max_folds=int(run.get("max_folds", 19)),
        max_points=int(run.get("max_points", 20000)),
        h_init=run.get("h_init"), h_max=run.get("h_max"))
    if run.get("stability", True):
        continuation.tag_stability(branch, nl)
    folds = continuation.detect_and_refine_folds(branch, nl)
    path = os.path.join(out_dir, "branch.csv")
    continuation.save_branch_csv(branch, path)
    continuation.save_event_profiles(branch, out_dir)
    with open(os.path.join(out_dir, "folds.json"), "w") as fh:
        json.dump([{"mu": f.mu, "d": f.d, "refined": f.refined}
                   for f in folds], fh, indent=2)
    return [path]


def cmd_asym(cfg, out_dir, seed):
    nl = _nonlinearity(cfg)
    n_d, symmetry = _grid_args(cfg)
    run = cfg.get("run", {})
    d = float(run.get("d", 1e-3))
    N = int(run.get("N", 3))
    M = int(run.get("M", 1))
    _check_width(N, n_d)
    fold = studies.find_right_fold(nl, N, M, d, symmetry=symmetry, n_d=n_d)
    lo, hi = nl.window
    results = studies.asymmetric_fan(
        fold, nl,
        eps=run.get("eps"),
        config=continuation.StepConfig(
            max_points=int(run.get("max_points", 2500)),
            refine_bands=((hi - 10 * d * (hi - lo), lo + 2.0 * (hi - lo),
                           (2 * d) ** 0.75 / 3.0),
                          (lo - 1.0 * (hi - lo), lo + 0.15 * (hi - lo),
                           0.005))))
    written = []
    summary = []
    for label, seed_pt, branch, reconnect in results:
        entry = {"label": label, "seeded": seed_pt is not None,
                 "reconnected": reconnect is not None}
        if branch is not None:
            path = os.path.join(out_dir, f"branch_{label}.csv")
            continuation.save_branch_csv(branch, path)
            written.append(path)
            if reconnect is not None:
                entry["reconnect_mu"] = reconnect.mu
                entry["reconnect_norm"] = reconnect.norm
        summary.append(entry)
    with open(os.path.join(out_dir, "asym_summary.json"), "w") as fh:
        json.dump({"fold_mu": fold.mu, "d": d, "branches": summary}, fh,
                  indent=2)
    return written


def cmd_isola(cfg, out_dir, seed):
    nl = _nonlinearity(cfg)
    n_d, symmetry = _grid_args(cfg)
    run = cfg.get("run", {})
    d = float(run.get("d", 0.12))
    N = int(run.get("N", 4))
    _check_width(N, n_d)
    branch = studies.trace_pattern_isola(
        nl, N, d, n_d=n_d, symmetry=symmetry,
        mu_start=run.get("mu_start"),
        max_points=int(run.get("max_points", 8000)))
    path = os.path.join(out_dir, "isola.csv")
    continuation.save_branch_csv(branch, path)
    with open(os.path.join(out_dir, "isola_summary.json"), "w") as fh:
        json.dump({"closed": branch.closed, "d": d, "N": N,
                   "n_points": len(branch.points),
                   "n_folds": len(branch.fold_indices())}, fh, indent=2)
    return [path]


def cmd_cusp(cfg, out_dir, seed):
    nl = _nonlinearity(cfg)
    n_d, symmetry = _grid_args(cfg)
    run = cfg.get("run", {})
    n_range = [int(n) for n in run.get("N_range", [4, 5, 6, 7])]
    bracket = tuple(run.get("d_bracket", (0.04, 0.12)))
    for N in n_range:
        if not 4 <= N <= 16:
            raise ConfigError(f"cusp pattern width N={N} outside [4, 16]")
        # every crossing also hunts the next-wider pattern
        _check_width(N + 1, n_d)
    points, fit = codim2.cusp_sequence(n_range, nl, n_d=n_d,
                                       symmetry=symmetry, d_bracket=bracket)
    path = os.path.join(out_dir, "cusps.csv")
    with open(path, "w") as fh:
        fh.write("N,mu_N,d_N,nullity_check,converged\n")
        for e in points:
            fh.write(f"{e['N']},{e.get('mu', '')},{e.get('d', '')},"
                     f"{e['nullity_check']},{e['converged']}\n")
    with open(os.path.join(out_dir, "cusp_fit.json"), "w") as fh:
        json.dump(fit, fh, indent=2)
    return [path]


def cmd_simulate(cfg, out_dir, seed):
    nl = _nonlinearity(cfg)
    n_d, symmetry = _grid_args(cfg)
    run = cfg.get("run", {})
    pattern = _pattern(run, symmetry, n_d)
    mu = float(run.get("mu", 0.5))
    d = float(run.get("d", 1e-3))
    u = studies.prepared_state(nl, pattern, mu, d, n_d)
    amp = float(run.get("perturbation", 0.0))
    u0 = u.copy()
    if amp:
        rng = np.random.default_rng(seed)
        u0.values = u0.values + amp * rng.standard_normal(u0.grid.size)
    traj = dynamics.integrate(u0, nl, mu, d,
                              t_end=float(run.get("t_end", 100.0)),
                              n_samples=int(run.get("samples", 101)),
                              reference=u)
    path = os.path.join(out_dir, "trajectory.csv")
    dynamics.export_csv(traj, path)
    return [path]


def cmd_reduced(cfg, out_dir, seed):
    run = cfg.get("run", {})
    wanted = run.get("system")
    systems = [wanted] if wanted else list(asymptotics.REDUCED_IDS)
    out = {}
    for sid in systems:
        if sid not in asymptotics.REDUCED_IDS:
            raise ConfigError(f"unknown reduced system {sid!r}")
        s_fold, d_fold = asymptotics.reduced_fold(sid)
        out[sid] = {"fold_s": s_fold, "fold_d": d_fold}
    path = os.path.join(out_dir, "reduced_folds.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2)
    return [path]


def cmd_verify_asym(cfg, out_dir, seed):
    nl = _nonlinearity(cfg)
    n_d, symmetry = _grid_args(cfg)
    run = cfg.get("run", {})
    ending = run.get("ending", asymptotics.PITCHFORK_INTERIOR)
    if ending not in asymptotics.ENDINGS:
        raise ConfigError(f"unknown ending {ending!r}")
    d_list = [float(x) for x in run.get("d_list", (1e-5, 1e-4, 1e-3))]
    N = int(run.get("N", 3))
    M = int(run.get("M", 1))
    side = asymptotics.ending_side(ending)

    def fold_finder(d):
        if side == "lower":
            return studies.find_left_fold(nl, N, M, d, symmetry=symmetry,
                                          n_d=n_d).mu
        return studies.find_right_fold(nl, N, M, d, symmetry=symmetry,
                                       n_d=n_d).mu

    report = asymptotics.verify_asymptotics(ending, d_list, fold_finder, nl)
    path = os.path.join(out_dir, "fit_report.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    return [path]


_COMMANDS = {
    "solve": cmd_solve,
    "snake": cmd_snake,
    "asym": cmd_asym,
    "isola": cmd_isola,
    "cusp": cmd_cusp,
    "simulate": cmd_simulate,
    "reduced": cmd_reduced,
    "verify-asym": cmd_verify_asym,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="snaklat",
        description="localized-pattern continuation studies on the square "
                    "lattice")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="study config JSON")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides config seed")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        cfg = load_config(args.config, args.command)
    except (ConfigError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    out_dir = args.out or cfg.get("output", {}).get("directory", ".")
    os.makedirs(out_dir, exist_ok=True)
    try:
        with solver.counting_bordered_solves() as bordered_solves:
            outputs = _COMMANDS[args.command](cfg, out_dir, seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except solver.SolverError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    _write_manifest(out_dir, cfg, seed, t0, outputs, bordered_solves)
    return 0


if __name__ == "__main__":
    sys.exit(main())
