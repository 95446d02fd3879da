import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from snaklat import cli, codim2, continuation, lattice, model
from snaklat.model import PatternId, UBAR, anti_continuum_pattern


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestConfigValidation:
    def test_unknown_top_level_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {}, "bogus": 1})
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2

    def test_unknown_run_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"run": {"pattern": {"N": 1, "M": 1},
                                              "wrong": True}})
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2

    def test_unknown_family_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"family": "septic"},
                                      "run": {"pattern": {"N": 1, "M": 1}}})
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2

    def test_pattern_exceeding_domain_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 3},
            "run": {"pattern": {"N": 4, "M": 1}, "mu": 0.5, "d": 0.0}})
        rc = cli.main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "pattern exceeds domain" in capsys.readouterr().err

    @pytest.mark.parametrize("command, run, message", [
        ("asym", {"N": 4}, "pattern exceeds domain"),
        ("isola", {"N": 4}, "pattern exceeds domain"),
        # each crossing also hunts the next-wider pattern
        ("cusp", {"N_range": [3]}, "outside [4, 16]"),
        ("cusp", {"N_range": [4, 17]}, "outside [4, 16]"),
        ("cusp", {"N_range": [4, 5]}, "pattern exceeds domain: N=6"),
    ])
    def test_width_exceeding_domain_is_config_error(self, tmp_path, capsys,
                                                    command, run, message):
        n_d = 3 if command != "cusp" else 5
        cfg = write_config(tmp_path, {"grid": {"N_d": n_d}, "run": run})
        rc = cli.main([command, "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestSolve:
    def test_decoupled_solve_matches_pattern_exactly(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 5, "symmetry": "offsite"},
            "run": {"pattern": {"N": 3, "M": 2}, "mu": 0.5, "d": 0.0}})
        rc = cli.main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 0
        prof = lattice.load_profile(out / "profile.json")
        nl = model.cubic_quintic()
        expect = anti_continuum_pattern(PatternId(3, 2, UBAR, "offsite"),
                                        0.5, nl, n_d=5)
        assert np.array_equal(prof.values, expect.values)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["versions"]["snaklat"]
        assert manifest["seed"] == 0
        assert (out / "profile.csv").exists()

    def test_coupled_solve_meets_tolerance(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 6},
            "run": {"pattern": {"N": 3, "M": 2}, "mu": 0.5, "d": 1e-3}})
        rc = cli.main(["solve", "--config", cfg, "--out", str(out)])
        assert rc == 0
        log = json.loads((out / "solve_log.json").read_text())
        assert log["residual_inf"] <= 1e-10


class TestSnake:
    def test_small_snake_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 7},
            "run": {"d": 1e-3, "max_folds": 3, "stability": False}})
        rc = cli.main(["snake", "--config", cfg, "--out", str(out)])
        assert rc == 0
        with open(out / "branch.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["index", "mu", "d", "norm", "n_unstable", "event"]
        events = [r[5] for r in rows[1:] if r[5]]
        assert "start" in events[0]
        assert any("fold" in e for e in events)
        folds = json.loads((out / "folds.json").read_text())
        assert len(folds) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        solves = manifest["stats"]["bordered_solves"]
        assert set(solves) == {"banded", "fallback", "factorizations"}
        assert solves["banded"] > 0 and solves["fallback"] == 0

    def test_missed_event_is_a_numerical_failure(self, tmp_path, capsys,
                                                 monkeypatch):
        def missed(branch, nonlinearity, **kwargs):
            raise continuation.MissedEvent("unstable count changed")

        monkeypatch.setattr(continuation, "tag_stability", missed)
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 5},
            "run": {"d": 1e-3, "max_folds": 1, "stability": True}})
        rc = cli.main(["snake", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_colliding_root_failure_is_a_numerical_failure(
            self, tmp_path, capsys, monkeypatch):
        # the fold-ending scale's Newton on f_u cannot step when f_uu = 0
        flat = model.cubic_quintic()
        flat.f_uu = lambda u, mu: 0.0
        monkeypatch.setattr(model, "cubic_quintic", lambda: flat)
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 5},
            "run": {"d": 1e-3, "max_folds": 1, "stability": False}})
        rc = cli.main(["snake", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_mu_start_outside_window_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"run": {"d": 1e-3, "mu_start": 1.4}})
        rc = cli.main(["snake", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2


class TestOutputDirectory:
    def test_config_directory_used_without_out(self, tmp_path):
        out = tmp_path / "from_config"
        cfg = write_config(tmp_path, {"output": {"directory": str(out)}})
        assert cli.main(["reduced", "--config", cfg]) == 0
        assert (out / "reduced_folds.json").is_file()
        assert (out / "manifest.json").is_file()

    def test_out_overrides_config_directory(self, tmp_path):
        cfg = write_config(tmp_path, {"output": {
            "directory": str(tmp_path / "from_config")}})
        out = tmp_path / "from_flag"
        assert cli.main(["reduced", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "reduced_folds.json").is_file()
        assert not (tmp_path / "from_config").exists()

    def test_working_directory_is_the_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {})
        assert cli.main(["reduced", "--config", cfg]) == 0
        assert (tmp_path / "reduced_folds.json").is_file()

    def test_output_formats_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"output": {"formats": ["csv"]}})
        rc = cli.main(["reduced", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "formats" in capsys.readouterr().err


class TestOtherCommands:
    def test_reduced_outputs_all_folds(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {})
        rc = cli.main(["reduced", "--config", cfg, "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "reduced_folds.json").read_text())
        assert data["pitch_interior"]["fold_d"] == pytest.approx(
            1 / (3 * np.sqrt(3)))
        assert data["trans_interior"]["fold_d"] == 0.125

    def test_simulate_writes_trajectory(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 5},
            "run": {"pattern": {"N": 2, "M": 1}, "mu": 0.5, "d": 1e-3,
                    "t_end": 5.0, "perturbation": 1e-4, "samples": 11},
            "seed": 7})
        rc = cli.main(["simulate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,deviation"
        assert len(lines) == 12

    def test_verify_asym_fold_ending(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 7},
            "run": {"ending": "fold_m_near_n", "d_list": [1e-5, 1e-4, 1e-3],
                    "N": 2, "M": 2}})
        rc = cli.main(["verify-asym", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert abs(report["exponent"] - 1.0) < 0.05
        assert abs(report["coefficient"] - 2.0) / 2.0 < 0.1

    @pytest.mark.slow
    def test_asym_command(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 8},
            "run": {"d": 1e-3, "N": 3, "M": 1, "max_points": 4000}})
        rc = cli.main(["asym", "--config", cfg, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "asym_summary.json").read_text())
        assert sum(b["seeded"] for b in summary["branches"]) >= 7

    def test_cusp_passes_the_grid_symmetry(self, tmp_path, monkeypatch):
        seen = {}

        def cusp_sequence(n_range, nonlinearity, **kwargs):
            seen.update(kwargs)
            return [], {}

        monkeypatch.setattr(codim2, "cusp_sequence", cusp_sequence)
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 8, "symmetry": "onsite"},
            "run": {"N_range": [4]}})
        rc = cli.main(["cusp", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 0
        assert seen["symmetry"] == "onsite"

    @pytest.mark.slow
    def test_cusp_command(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 14},
            "run": {"N_range": [4, 5], "d_bracket": [0.05, 0.1]}})
        rc = cli.main(["cusp", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = (out / "cusps.csv").read_text().strip().splitlines()
        assert rows[0] == "N,mu_N,d_N,nullity_check,converged"
        assert len(rows) == 3
        fit = json.loads((out / "cusp_fit.json").read_text())
        assert "mu_inf" in fit and "rho" in fit
        # every fold-refinement step is four counted bordered solves on
        # one factorization
        manifest = json.loads((out / "manifest.json").read_text())
        solves = manifest["stats"]["bordered_solves"]
        assert solves["banded"] > 0 and solves["fallback"] == 0
        assert solves["factorizations"] < solves["banded"]

    def test_isola_negative_control(self, tmp_path):
        # the corner-receded family merges with the primary branch at large
        # coupling: the trace must come back open
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "grid": {"N_d": 12},
            "run": {"d": 0.2, "N": 4, "max_points": 3000}})
        rc = cli.main(["isola", "--config", cfg, "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "isola_summary.json").read_text())
        assert summary["closed"] is False


_STARTUP_SCRIPT = """
import json, os, sys
out = sys.argv[1]
import snaklat.cli as cli
from snaklat import codim2

def heavy():
    return sorted(m for m in sys.modules
                  if m.startswith(("scipy.optimize", "scipy.integrate")))

def run(command, cfg):
    path = os.path.join(out, command + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    assert cli.main([command, "--config", path,
                     "--out", os.path.join(out, command)]) == 0

report = {"import": heavy()}
run("snake", {"grid": {"N_d": 6},
              "run": {"d": 1e-3, "max_folds": 3, "stability": True}})
report["snake"] = heavy()
run("cusp", {"grid": {"N_d": 14},
             "run": {"N_range": [4, 5], "d_bracket": [0.05, 0.1]}})
# two widths are too few for the geometric fit: run it on four entries
codim2.fit_geometric([{"N": n, "converged": True, "mu": 0.9 + 0.1 * 0.5**n,
                       "d": 0.07 - 0.2 * 0.5**n} for n in (4, 5, 6, 7)])
report["cusp"] = heavy()
print(json.dumps(report))
"""


class TestStartup:
    def test_commands_never_load_optimize_or_integrate(self, tmp_path):
        # a fresh interpreter: pytest's own may already hold the modules
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        assert report == {"import": [], "snake": [], "cusp": []}
