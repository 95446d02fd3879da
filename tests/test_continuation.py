import csv
from dataclasses import replace

import numpy as np
import pytest

from snaklat import continuation as ct
from snaklat import lattice, model, solver, studies
from snaklat.lattice import OFFSITE
from snaklat.model import PatternId, UBAR, VBAR, anti_continuum_pattern

NL = model.cubic_quintic()


def fixed_point_state(pattern, mu, d, n_d=8, tol=1e-12):
    u0 = anti_continuum_pattern(pattern, mu, NL, n_d=n_d)
    lap = lattice.laplacian_matrix(u0.grid)
    scale = 1.0 / NL.f_u(u0.values, mu)
    u = u0.values.copy()
    for _ in range(200000):
        res = d * (lap @ u) + NL.f(u, mu)
        if np.max(np.abs(res)) < tol:
            return lattice.Field(u0.grid, u)
        u = u - scale * res
    raise AssertionError("oracle did not converge")


class TestContinueBranch:
    def test_points_satisfy_residual_tolerance(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(2, 1, UBAR, OFFSITE), 0.5,
                                   d, 8)
        cfg = ct.StepConfig(max_points=40)
        br = ct.continue_branch(u, NL, 0.5, d, config=cfg, direction=1.0,
                                p_bounds=(0.3, 0.9))
        assert len(br.points) > 10
        for pt in br.points:
            res = solver.residual(pt.u, NL, pt.mu, pt.d)
            assert res.norm_inf() <= 1e-10
            assert abs(np.linalg.norm(pt.tangent) - 1.0) < 1e-9

    def test_small_coupling_branch_tracks_decoupled_pattern(self):
        d = 1e-6
        u = studies.prepared_state(NL, PatternId(2, 2, UBAR, OFFSITE), 0.5,
                                   d, 8)
        cfg = ct.StepConfig(max_points=12, h_max=0.01)
        br = ct.continue_branch(u, NL, 0.5, d, config=cfg, direction=-1.0,
                                p_bounds=(0.3, 0.7))
        for pt in br.points[::4]:
            ref = fixed_point_state(PatternId(2, 2, UBAR, OFFSITE), pt.mu, d)
            assert np.max(np.abs(pt.u.values - ref.values)) < 1e-8

    def test_arclength_steps_bounded_below(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(1, 1, UBAR, OFFSITE), 0.5,
                                   d, 6)
        cfg = ct.StepConfig(max_points=60)
        br = ct.continue_branch(u, NL, 0.5, d, config=cfg, direction=1.0,
                                p_bounds=(0.2, 0.95))
        for a, b in zip(br.points, br.points[1:]):
            dx = np.linalg.norm(np.concatenate(
                [b.u.values - a.u.values, [b.mu - a.mu]]))
            assert dx >= ct.H_MIN

    def test_domain_boundary_stops_with_end_event(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(1, 1, UBAR, OFFSITE), 0.5,
                                   d, 6)
        cfg = ct.StepConfig(max_points=500)
        br = ct.continue_branch(u, NL, 0.5, d, config=cfg, direction=-1.0,
                                p_bounds=(0.4, 0.9))
        assert br.events[-1][1] == ct.END
        assert br.points[br.events[-1][0]].mu < 0.41


class TestFolds:
    def test_left_fold_corner_location(self):
        # corner ending of the literal cubic-quintic: mu_l -> 3 d^(2/3)
        d = 1e-4
        fold = studies.find_left_fold(NL, 1, 1, d, n_d=8)
        assert fold.refined
        assert abs(fold.mu / d ** (2.0 / 3.0) - 3.0) < 0.15
        res = solver.residual(fold.u, NL, fold.mu, fold.d)
        assert res.norm_inf() <= 1e-10
        jac = solver.jacobian(fold.u, NL, fold.mu, fold.d)
        assert np.max(np.abs(jac @ fold.phi.values)) <= 1e-8
        assert abs(np.linalg.norm(fold.phi.values) - 1.0) < 1e-12

    def test_left_fold_interior_location(self):
        # interior ending of the literal cubic-quintic: mu_l -> 108^(1/3) d^(2/3)
        d = 1e-4
        fold = studies.find_left_fold(NL, 3, 1, d, n_d=9)
        assert fold.refined
        assert abs(fold.mu / d ** (2.0 / 3.0) - 108 ** (1.0 / 3.0)) < 0.25

    def test_right_fold_location(self):
        d = 1e-3
        fold = studies.find_right_fold(NL, 2, 2, d, n_d=8)
        assert fold.refined
        assert abs(fold.mu - (1 - 2 * d)) <= 5 * d**1.5

    def test_transcritical_fold_locations(self):
        nl = model.quadratic_cubic()
        d = 1e-4
        fold = studies.find_left_fold(nl, 3, 1, d, n_d=9)
        assert abs(fold.mu / np.sqrt(d) - 4 * np.sqrt(2)) < 0.25
        fold = studies.find_left_fold(nl, 1, 1, d, n_d=8)
        assert abs(fold.mu / np.sqrt(d) - 4.0) < 0.15

    def test_onsite_right_fold_locations(self):
        # on-site boundary cells lose connections differently than off-site:
        # the (N,1) row keeps four self-interactions and one filled neighbor,
        # putting its fold at 1 - 3d; the center cell (1,1) folds at 1 - 4d
        d = 1e-4
        fold = studies.find_right_fold(NL, 3, 1, d, symmetry="onsite", n_d=8)
        assert abs((1 - fold.mu) / d - 3.0) < 0.05
        fold = studies.find_right_fold(NL, 1, 1, d, symmetry="onsite", n_d=8)
        assert abs((1 - fold.mu) / d - 4.0) < 0.05
        # the diagonal cell matches the generic two-neighbor law 1 - 2d
        fold = studies.find_right_fold(NL, 2, 2, d, symmetry="onsite", n_d=8)
        assert abs((1 - fold.mu) / d - 2.0) < 0.05

    def test_logistic_transcritical_one_endings(self):
        # the logistic family is exactly normalized at (1, 1); both the
        # M in {N-1, N} cells and the (N, 1) off-site row have two effective
        # connections removed, so both fold at 1 - 2*sqrt(2 d) to leading
        # order (the tabulated sqrt(2) coefficient for M=1 is not what the
        # cell geometry produces)
        cl = model.cubic_logistic()
        d = 1e-5
        fold = studies.find_right_fold(cl, 2, 2, d, n_d=8)
        assert abs((1 - fold.mu) / np.sqrt(d) - 2 * np.sqrt(2)) < 0.02
        fold = studies.find_right_fold(cl, 3, 1, d, n_d=8)
        assert abs((1 - fold.mu) / np.sqrt(d) - 2 * np.sqrt(2)) < 0.02

    def test_refinement_failure_flagged_not_fatal(self, monkeypatch):
        d = 1e-3
        fold, branch = studies.find_left_fold(NL, 2, 1, d, n_d=8,
                                              return_branch=True)

        def fail(*args, **kwargs):
            raise ct.RefinementFailed("refinement refused")

        monkeypatch.setattr(ct, "refine_fold", fail)
        pts = ct.detect_and_refine_folds(branch, NL)
        assert pts and not pts[0].refined


class TestSwitchBranch:
    def test_zero_amplitude_returns_input(self):
        d = 1e-3
        fold = studies.find_right_fold(NL, 2, 1, d, n_d=6)
        psi = lattice.unfold(fold.phi)
        pt = ct.switch_branch(fold, psi, NL, eps=0.0)
        assert pt.mu == fold.mu
        assert np.array_equal(pt.u.values,
                              lattice.unfold(fold.u).values)

    def test_symmetric_direction_stays_on_primary(self):
        d = 1e-3
        fold = studies.find_right_fold(NL, 2, 1, d, n_d=6)
        psi = lattice.unfold(fold.phi)
        psi.values /= np.linalg.norm(psi.values)
        pt = ct.switch_branch(fold, psi, NL, eps=1e-3)
        # corrected point remains D4-symmetric
        asym = ct.asymmetry(pt.u)
        assert asym < 1e-9

    def test_asymmetric_direction_leaves_symmetric_class(self):
        d = 1e-3
        fold = studies.find_right_fold(NL, 3, 1, d, n_d=7)
        dirs = studies.switch_directions(fold, NL)
        labels = [lab for lab, _ in dirs]
        assert set(labels) >= {"sign1", "sign2", "sign3"}
        label, psi = dirs[0]
        pt = ct.switch_branch(fold, psi, NL, eps=5e-3)
        asym = ct.asymmetry(pt.u)
        assert asym > 1e-4
        res = solver.residual(pt.u, NL, pt.mu, pt.d)
        assert res.norm_inf() <= 1e-10

    def test_diverging_attempts_stop_early(self):
        # exactly at the fold the mh-plane direction leaves the pinned
        # system without a nearby solution (the fan offsets mu for it): every
        # amplitude's residual blows up on the first step, and the attempt
        # ends there instead of after 40 steps
        fold = studies.find_right_fold(NL, 3, 1, 1e-3, n_d=6)
        psi = dict(studies.switch_directions(fold, NL))["two_dim_p0_mh"]
        grid = replace(fold.u.grid, group=lattice.isotropy(psi),
                       rep="trivial")
        with solver.counting() as stats:
            with pytest.raises(ct.NoConvergence):
                ct.switch_branch(fold, lattice.fold(psi, grid), NL,
                                 mu_offsets=(0.0,))
        # five amplitudes, at most two solves each
        assert sum(stats["bordered_solves"][k]
                   for k in ("banded", "fallback")) <= 10


class TestIsola:
    def test_open_branch_not_flagged_closed(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(2, 1, UBAR, OFFSITE), 0.5,
                                   d, 8)
        cfg = ct.StepConfig(max_points=60, detect_closure=True)
        br = ct.continue_branch(u, NL, 0.5, d, config=cfg,
                                p_bounds=(0.1, 0.9))
        assert not br.closed


class TestStabilityTagging:
    def test_counts_constant_between_events(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(2, 1, VBAR, OFFSITE), 0.5,
                                   d, 8)
        cfg = ct.StepConfig(max_points=25, h_max=0.02)
        br = ct.continue_branch(u, NL, 0.5, d, config=cfg, direction=1.0,
                                p_bounds=(0.4, 0.8))
        ct.tag_stability(br, NL)
        counts = {pt.unstable_count for pt in br.points}
        assert counts == {8}


class TestBranchIO:
    def test_csv_and_event_profiles(self, tmp_path):
        d = 1e-3
        fold, branch = studies.find_left_fold(NL, 1, 1, d, n_d=6,
                                              return_branch=True)
        ct.tag_stability(branch, NL)
        path = tmp_path / "branch.csv"
        ct.save_branch_csv(branch, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,mu,d,norm,n_unstable,event"
        assert len(lines) == 1 + len(branch.points)
        assert any(",fold" in ln or "fold" in ln.split(",")[-1]
                   for ln in lines[1:])
        written = ct.save_event_profiles(branch, tmp_path)
        assert written
        loaded = lattice.load_profile(written[0])
        assert loaded.grid == branch.points[0].u.grid

    def test_csv_numbers_parse(self, tmp_path):
        # after a Newton solve mu is a numpy float, whose repr under numpy 2
        # is "np.float64(...)"
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(1, 1, UBAR, OFFSITE), 0.5,
                                   d, 4)
        branch = ct.continue_branch(u, NL, 0.5, d,
                                    config=ct.StepConfig(max_points=6))
        path = tmp_path / "branch.csv"
        ct.save_branch_csv(branch, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(branch.points)
        for row, pt in zip(rows, branch.points):
            assert float(row["mu"]) == pt.mu
            assert float(row["d"]) == pt.d
            assert float(row["norm"]) == pt.norm
