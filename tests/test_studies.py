from dataclasses import replace

import numpy as np
import pytest

from snaklat import continuation as ct
from snaklat import asymptotics, lattice, model, spectral, studies
from snaklat.lattice import OFFSITE

NL = model.cubic_quintic()


class TestFoldScale:
    def test_scales_read_the_window(self):
        # -mu u + u^3 - u^5 on (0, 1/4) folds at mu = 1/4 - 2 d
        c = np.zeros((2, 6))
        c[1, 1], c[0, 3], c[0, 5] = -1.0, 1.0, -1.0
        nl = model.polynomial(c, window=(0.0, 0.25))
        lo, hi, scale = studies.fold_scale(nl, asymptotics.FOLD_M_NEAR_N,
                                           1e-3, upper=True)
        assert (lo, hi) == (0.0, 0.25)
        assert scale == pytest.approx(0.002, rel=1e-9)
        # moved to (0.1, 0.35), the lower fold sits 3 d^(2/3) above 0.1
        c[0, 1] = 0.1
        nl = model.polynomial(c, window=(0.1, 0.35))
        _, _, scale = studies.fold_scale(nl, asymptotics.PITCHFORK_INTERIOR,
                                         1e-3, upper=False)
        assert scale == pytest.approx(0.03, rel=1e-9)

    def test_fan_seeds_map_to_a_rescaled_window(self):
        # -4 nu u + 2 u^3 - u^5 on (0, 1/4) is the cubic-quintic at mu = 4 nu
        c = np.zeros((2, 6))
        c[1, 1], c[0, 3], c[0, 5] = -4.0, 2.0, -1.0
        scaled = model.polynomial(c, window=(0.0, 0.25))
        fold = studies.find_right_fold(NL, 3, 1, 1e-3, n_d=6)
        cfg = ct.StepConfig(max_points=3)
        ref = studies.asymmetric_fan(fold, NL, config=cfg)
        got = studies.asymmetric_fan(replace(fold, mu=fold.mu / 4), scaled,
                                     config=cfg)
        assert [r[0] for r in got] == [r[0] for r in ref]
        seeds = [(a[1], b[1]) for a, b in zip(ref, got)]
        assert len(seeds) == 7 and all(a and b for a, b in seeds)
        for a, b in seeds:
            assert abs(b.mu - a.mu / 4) < 1e-8
            assert np.max(np.abs(b.u.values - a.u.values)) < 1e-8

    def test_snake_folds_map_to_a_rescaled_window(self):
        # 2 f(v/2, 4 nu) = -4 nu v + v^3/2 - v^5/16: F~(v, nu, d) =
        # 2 F(v/2, 4 nu, d), so its folds are the cubic-quintic's at
        # mu = 4 nu, u = v/2
        c = np.zeros((2, 6))
        c[1, 1], c[0, 3], c[0, 5] = -4.0, 0.5, -1.0 / 16
        scaled = model.polynomial(c, endpoint_lo=model.PITCHFORK,
                                  endpoint_hi=model.FOLD, window=(0.0, 0.25))
        ref = ct.detect_and_refine_folds(
            studies.snake_branch(NL, 1e-3, n_d=6, max_folds=5), NL)
        got = ct.detect_and_refine_folds(
            studies.snake_branch(scaled, 1e-3, n_d=6, max_folds=5,
                                 mu_start=0.125), scaled)
        assert len(got) == len(ref) == 5
        for a, b in zip(ref, got):
            assert a.refined and b.refined
            assert abs(4 * b.mu - a.mu) < 1e-9
            assert np.max(np.abs(b.u.values / 2 - a.u.values)) < 1e-8


class TestFoldHunt:
    def test_plain_hunt_stops_one_point_past_the_fold(self, monkeypatch):
        branches = []
        real = ct.continue_branch

        def spy(*args, **kwargs):
            branches.append(real(*args, **kwargs))
            return branches[-1]

        monkeypatch.setattr(ct, "continue_branch", spy)
        fold = studies.find_right_fold(NL, 3, 1, 1e-3, n_d=6)
        plain = branches[-1]
        kept, branch = studies.find_right_fold(NL, 3, 1, 1e-3, n_d=6,
                                               return_branch=True)
        assert branch is branches[-1]
        assert (fold.mu, fold.d) == (kept.mu, kept.d)
        assert np.array_equal(fold.u.values, kept.u.values)
        assert np.array_equal(fold.phi.values, kept.phi.values)
        (idx,) = plain.fold_indices()
        assert len(plain.points) == idx + 2
        assert all(np.array_equal(a.u.values, b.u.values) and a.mu == b.mu
                   for a, b in zip(plain.points, branch.points))
        assert len(branch.points) > idx + 2


class TestExpectedFoldSequence:
    def test_matches_orbit_sizes(self):
        seq = studies.expected_fold_sequence(19)
        assert seq[0] == ("right", (1, 1), 4)
        assert seq[1] == ("left", (2, 1), 8)
        assert seq[9] == ("left", (3, 3), 4)
        kinds = [k for k, _, _ in seq]
        assert kinds == ["right", "left"] * 9 + ["right"]
        for _, cell, count in seq:
            assert count == lattice.orbit_size(cell, OFFSITE)


class TestSnakeBranch:
    def test_short_snake_passes_folds_in_order(self):
        br = studies.snake_branch(NL, 1e-3, n_d=8, max_folds=5)
        folds = ct.detect_and_refine_folds(br, NL)
        assert len(folds) == 5
        expected = studies.expected_fold_sequence(5)
        for fold, (kind, cell, _) in zip(folds, expected):
            if kind == "right":
                assert fold.mu > 0.99
            else:
                assert fold.mu < 0.06
            assert fold.refined


class TestOnSiteSnake:
    def test_crossing_counts_match_onsite_orbits(self):
        from snaklat import spectral
        br = studies.snake_branch(NL, 1e-3, symmetry="onsite", n_d=8,
                                  max_folds=5)
        folds = ct.detect_and_refine_folds(br, NL)
        cells = [(1, 1), (2, 1), (2, 1), (2, 2), (2, 2)]
        kinds = ["right", "left", "right", "left", "right"]
        for idx, fold, cell, kind in zip(br.fold_indices(), folds, cells,
                                         kinds):
            assert fold.refined
            got = spectral.crossing_count_at_fold(
                br, idx, NL, window=2e-4 if kind == "right" else 2e-3,
                fold_point=fold)
            assert got == lattice.orbit_size(cell, "onsite")


class TestCouplingContinuation:
    def test_branch_in_d_folds_at_existence_boundary(self):
        # continued in d at fixed mu, the pattern branch turns where the
        # left-fold curve sweeps past: a fold event in the d parameter
        u = studies.prepared_state(
            NL, studies.PatternId(4, 1, studies.UBAR, OFFSITE), 0.5, 1e-3, 10)
        cfg = ct.StepConfig(max_points=500, h_max=0.02,
                            stop_after_folds=1)
        br = ct.continue_branch(u, NL, 0.5, 1e-3, parameter="d", config=cfg,
                                direction=+1.0, p_bounds=(0.0, 0.5))
        folds = ct.detect_and_refine_folds(br, NL)
        assert folds and folds[0].refined
        assert folds[0].parameter == "d"
        assert 0.05 < folds[0].d < 0.09
        assert folds[0].mu == 0.5


class TestSwitchDirections:
    def test_seven_directions_at_eight_crossing_fold(self):
        fold = studies.find_right_fold(NL, 3, 1, 1e-3, n_d=7)
        dirs = studies.switch_directions(fold, NL)
        labels = {lab for lab, _ in dirs}
        assert len(dirs) == 7
        assert {"sign1", "sign2", "sign3"} <= labels
        assert sum(lab.startswith("two_dim") for lab in labels) == 4
        for lab, psi in dirs:
            tag, norms = spectral.isotypic_classify(psi)
            expect = lab.split("_p")[0] if lab.startswith("two_dim") else lab
            assert tag == expect
            assert abs(np.linalg.norm(psi.values) - 1) < 1e-9


def first_stop(asym, norm=1.0):
    """Index of the reconnection found by feeding the asymmetries one point
    at a time, as the fan's stop condition does, and the number of points
    fed before it fired."""
    for n in range(1, len(asym) + 1):
        i = studies.reconnection(asym[:n], [norm] * n)
        if i is not None:
            return i, n
    return None, len(asym)


class TestReconnection:
    RISE = list(np.linspace(0.01, 2.0, 20))

    def test_point_below_the_drop_ends_the_branch(self):
        # 1e-3 lands below RECONNECT_DROP * 2 and ends the branch there,
        # before the minimum that follows
        asym = self.RISE + [1.0, 0.1, 1e-3, 5e-4, 0.2, 1.0]
        assert first_stop(asym) == (22, 23)

    def test_step_over_a_v_shaped_minimum(self):
        # the closest point, 6e-3, stays above RECONNECT_DROP * 2 = 2e-3; the
        # next point rises again and shows it as the minimum
        asym = self.RISE + [1.0, 0.2, 6e-3, 0.15, 1.0, 2.0]
        assert 6e-3 > studies.RECONNECT_DROP * max(asym)
        assert first_stop(asym) == (22, 24)
        assert studies.reconnection(asym[:23], [1.0] * 23) is None

    def test_shallow_minimum_is_not_a_reconnection(self):
        # a dip to 0.6 of the peak is a feature of the branch, not a return
        # to symmetry
        asym = self.RISE + [1.5, 1.2, 1.4, 2.1, 1.9]
        assert first_stop(asym) == (None, len(asym))

    def test_unarmed_branch_never_reconnects(self):
        # the asymmetry never exceeds RECONNECT_ARM * max(1, norm)
        asym = [1e-4, 2e-4, 1e-7, 3e-4, 1e-9, 2e-4]
        assert first_stop(asym) == (None, len(asym))
        # a hundred times larger, the same sequence drops at once
        assert first_stop([100 * a for a in asym]) == (2, 3)

    def test_minimum_at_a_plateau_counts_once(self):
        asym = self.RISE + [0.5, 0.01, 0.01, 0.3]
        assert first_stop(asym) == (22, 24)


@pytest.mark.slow
class TestAsymmetricFan:
    def test_seven_branches_reconnect_at_other_folds(self):
        d = 1e-3
        fold = studies.find_right_fold(NL, 3, 1, d, n_d=8)
        cfg = ct.StepConfig(max_points=6000, h_max=0.03,
                            refine_bands=((1 - 10 * d, 2.0,
                                           (2 * d) ** 0.75 / 3.0),
                                          (-1.0, 0.14, 0.005)))
        results = studies.asymmetric_fan(fold, NL, config=cfg)
        seeded = [r for r in results if r[1] is not None]
        assert len(seeded) >= 7
        # each branch keeps the isotropy subgroup of its direction exactly
        directions = dict(studies.switch_directions(fold, NL))
        names = lattice.element_names()
        for label, seed, branch, rec in seeded:
            group = lattice.isotropy(directions[label])
            assert len(group) == (2 if label.startswith("two_dim") else 4)
            perms = [lattice.action_permutations(seed.u.grid)[names.index(g)]
                     for g in group]
            for pt in [seed, *branch.points] + ([rec] if rec else []):
                for p in perms:
                    assert np.array_equal(pt.u.values[p], pt.u.values)
        reconnected = [r for r in results if r[3] is not None]
        assert len(reconnected) >= 7
        # distinct branches: mid-branch states pairwise far apart
        mids = [r[2].points[len(r[2].points) // 2].u.values
                for r in reconnected]
        for i in range(len(mids)):
            for j in range(i + 1, len(mids)):
                assert np.linalg.norm(mids[i] - mids[j]) > 0.5
        # every reconnection happens away from the originating fold
        for _, _, _, rec in reconnected:
            assert abs(rec.mu - fold.mu) > 0.1


@pytest.mark.slow
class TestIsola:
    def test_closes_before_collision_and_merges_after(self):
        br = studies.trace_pattern_isola(NL, 4, 0.12, n_d=12)
        assert br.closed
        first, last = br.points[0], br.points[-1]
        gap = np.linalg.norm(np.concatenate(
            [first.u.values - last.u.values, [first.mu - last.mu]]))
        assert gap < 1e-9  # endpoints coincide
        br2 = studies.trace_pattern_isola(NL, 4, 0.2, n_d=12,
                                          max_points=3000)
        assert not br2.closed
