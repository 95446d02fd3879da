from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snaklat import codim2, lattice, model, solver, spectral, studies
from snaklat.lattice import OFFSITE, ONSITE, Field

NL = model.cubic_quintic()


def block_spectra(uw, mu, d):
    """Eigenvalues of the Jacobian blocks at a wedge state: the trivial and
    sign components and the two mirror-fixed planes of the two-dimensional
    representation, keyed by name."""
    g = uw.grid
    grids = {rep: replace(g, rep=rep)
             for rep in ("trivial",) + lattice.SIGN_REPS}
    grids.update({name: lattice.GridSpec(g.half_width, g.symmetry, *space)
                  for name, space in lattice.MIRROR_PLANES.items()})
    return {name: np.linalg.eigvalsh(spectral.symmetric_block(
        uw, NL, mu, d, grid).toarray()) for name, grid in grids.items()}


def assert_blocks_tile_the_full_square(uw, mu, d):
    # trivial + sign components + the mh plane twice (the two-dimensional
    # representation) reproduce the full spectrum; the md plane carries the
    # same eigenvalues as the mh plane
    blocks = block_spectra(uw, mu, d)
    jf = solver.jacobian(lattice.unfold(uw), NL, mu, d).toarray()
    ev_full = np.linalg.eigvalsh(jf)
    tiles = np.sort(np.concatenate(
        [blocks[r] for r in ("trivial",) + lattice.SIGN_REPS]
        + [blocks["mh"]] * 2))
    scale = max(1.0, np.abs(ev_full).max())
    assert tiles.shape == ev_full.shape
    assert np.allclose(tiles, ev_full, rtol=0, atol=1e-9 * scale)
    assert np.allclose(blocks["md"], blocks["mh"], rtol=0, atol=1e-9 * scale)


class TestCharacterLaplacian:
    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_component_spectra_tile_the_full_square(self, symmetry):
        rng = np.random.default_rng(31)
        g = lattice.wedge(4, symmetry)
        uw = Field(g, rng.uniform(0.2, 1.2, g.size))
        assert_blocks_tile_the_full_square(uw, 0.55, 0.17)

    @settings(max_examples=30, deadline=None)
    @given(symmetry=st.sampled_from([OFFSITE, ONSITE]),
           n_d=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
           mu=st.floats(0.05, 0.95), d=st.floats(0.0, 1.0))
    def test_block_spectra_tile_the_full_square_property(
            self, symmetry, n_d, seed, mu, d):
        g = lattice.wedge(n_d, symmetry)
        uw = Field(g, np.random.default_rng(seed).uniform(-0.2, 1.3, g.size))
        assert_blocks_tile_the_full_square(uw, mu, d)

    def test_block_needs_a_state_fixed_by_its_group(self):
        rng = np.random.default_rng(33)
        full = lattice.full_square(3, OFFSITE)
        u = Field(full, rng.uniform(0.2, 1.2, full.size))
        with pytest.raises(ValueError, match="not fixed"):
            spectral.symmetric_block(u, NL, 0.5, 0.1,
                                     lattice.wedge(3, OFFSITE))
        # on its own grid, the block is the full Jacobian
        sym = spectral.symmetric_block(u, NL, 0.5, 0.1, full)
        jac = solver.jacobian(u, NL, 0.5, 0.1)
        assert abs(sym - jac).max() == 0.0

    def test_active_sites_respect_mirrors(self):
        g = lattice.wedge(5, OFFSITE)
        # sign1 flips under the diagonal mirror, so diagonal sites drop out
        sites = replace(g, rep="sign1").sites()
        assert set(map(tuple, sites)) < set(map(tuple, g.sites()))
        assert all(n != m for n, m in sites)
        # sign3 keeps the diagonal mirror: all wedge sites stay active
        assert replace(g, rep="sign3").size == g.size

    def test_unfolded_component_lies_in_rep(self):
        g = lattice.wedge(4, OFFSITE)
        rng = np.random.default_rng(32)
        for rep in lattice.SIGN_REPS:
            comp = replace(g, rep=rep)
            vec = rng.standard_normal(comp.size)
            full = lattice.unfold(Field(comp, vec))
            tag, norms = spectral.isotypic_classify(full)
            assert tag == rep
            others = sum(v for k, v in norms.items() if k != rep)
            assert others < 1e-12


def assert_nullities_match_spectra(cert, blocks):
    # on every block the certificate counts the eigenvalues within
    # NULLITY_TOL of zero that a dense eigensolve of the block finds
    for rep, count in cert["nullities"].items():
        assert count == int(np.sum(np.abs(blocks[rep]) < codim2.NULLITY_TOL))


class TestComponentNullities:
    def test_plain_fold_has_no_sign_null_direction(self):
        # a generic fold's null space is one-dimensional and symmetric
        fold = studies.find_right_fold(NL, 3, 1, 0.01, n_d=8)
        cert = codim2.null_certificate(fold.u, NL, fold.mu, fold.d)
        nullities = cert["nullities"]
        assert (nullities["trivial"], nullities["sign1"]) == (1, 0)
        assert_nullities_match_spectra(
            cert, block_spectra(fold.u, fold.mu, fold.d))

    def test_regular_state_fails_the_check(self):
        # a prepared pattern inside the window is far from any fold: no
        # near-zero trivial eigenvalue
        lo, hi = NL.window
        mu, d = 0.5 * (lo + hi), 0.01
        u = studies.prepared_state(NL, model.PatternId(4, 1, model.UBAR,
                                                       OFFSITE), mu, d, 8)
        cert = codim2.null_certificate(u, NL, mu, d)
        assert cert["nullities"]["trivial"] == 0
        assert not cert["nullity_check"]
        assert_nullities_match_spectra(cert, block_spectra(u, mu, d))

    @pytest.mark.slow
    def test_crossing_fold_n4(self, monkeypatch):
        crossings = []
        real = codim2.fold_curve_crossing

        def spy(*args, **kwargs):
            crossings.append(real(*args, **kwargs))
            return crossings[-1]

        monkeypatch.setattr(codim2, "fold_curve_crossing", spy)
        (entry,), _ = codim2.cusp_sequence([4], NL, n_d=16)
        d_star, mu_star, fold = crossings[0]
        assert 0.06 < d_star < 0.09
        assert 0.86 < mu_star < 0.91
        assert entry["nullity_check"]
        nullities = entry["nullities"]
        assert (nullities["trivial"], nullities[entry["rep"]]) == (1, 1)
        blocks = block_spectra(fold.u, fold.mu, fold.d)
        assert_nullities_match_spectra(entry, blocks)
        # the null eigenvalue and the next one in each component sit more
        # than ten times from the tolerance on either side
        assert entry["null_floor"] < codim2.NULLITY_TOL / 10
        for rep in ("trivial", entry["rep"]):
            second = np.sort(np.abs(blocks[rep]))[1]
            assert second > 10 * codim2.NULLITY_TOL


def same_fold(a, b):
    return (a.mu == b.mu and a.d == b.d and a.refined == b.refined
            and np.array_equal(a.u.values, b.u.values)
            and np.array_equal(a.phi.values, b.phi.values))


class TestFoldHuntTable:
    BRACKET = (0.05, 0.1)

    @pytest.mark.slow
    def test_seeded_table_gives_the_same_crossing(self):
        fresh = codim2.fold_curve_crossing(NL, 5, 14, d_bracket=self.BRACKET)
        folds = {}
        codim2.fold_curve_crossing(NL, 4, 14, d_bracket=self.BRACKET,
                                   folds=folds)
        # the previous width hunted u-bar(5,1) at the shared probes
        assert any(width == 5 for width, _ in folds)
        seeded = codim2.fold_curve_crossing(NL, 5, 14,
                                            d_bracket=self.BRACKET,
                                            folds=folds)
        assert fresh[:2] == seeded[:2]
        assert same_fold(fresh[2], seeded[2])
        # the returned fold is u-bar(5,1)'s; u-bar(6,1) is not hunted there
        assert same_fold(folds[5, seeded[0]], seeded[2])
        assert (6, seeded[0]) not in folds

    @pytest.mark.slow
    def test_no_fold_is_hunted_twice(self, monkeypatch):
        hunted = []
        real = studies.find_right_fold

        def spy(nonlinearity, N, M, d, **kwargs):
            hunted.append((N, M, d))
            return real(nonlinearity, N, M, d, **kwargs)

        monkeypatch.setattr(studies, "find_right_fold", spy)
        points, _ = codim2.cusp_sequence([4, 5], NL, n_d=14,
                                         d_bracket=self.BRACKET)
        assert all(e["converged"] and e["nullity_check"] for e in points)
        assert {N for N, _, _ in hunted} == {4, 5, 6}
        assert len(hunted) == len(set(hunted))


class TestGridConvergence:
    def test_fold_location_insensitive_to_domain_size(self):
        # collision-region folds are converged in the truncation radius:
        # tails decay like d per site, so N_d = 16 vs 25 agree far below 1e-6
        f16 = studies.find_right_fold(NL, 4, 1, 0.07, n_d=16)
        f25 = studies.find_right_fold(NL, 4, 1, 0.07, n_d=25)
        assert abs(f16.mu - f25.mu) < 1e-6


class TestGeometricFit:
    def test_recovers_exact_sequence(self):
        rho = 0.35
        pts = [{"N": n, "converged": True,
                "mu": 0.887 + 0.2 * rho**n,
                "d": 0.068 - 0.5 * rho**n} for n in range(4, 11)]
        fit = codim2.fit_geometric(pts)
        assert fit["mu_inf"] == pytest.approx(0.887, abs=1e-10)
        assert fit["d_inf"] == pytest.approx(0.068, abs=1e-10)
        assert fit["rho"] == pytest.approx(rho, abs=1e-8)

    def test_trims_one_outlier(self):
        rho = 0.35
        pts = [{"N": n, "converged": True,
                "mu": 0.887 + 0.2 * rho**n,
                "d": 0.068 - 0.5 * rho**n} for n in range(4, 11)]
        pts[3]["mu"] += 0.05
        pts[3]["d"] += 0.03
        fit = codim2.fit_geometric(pts)
        assert fit["mu_inf"] == pytest.approx(0.887, abs=1e-6)
        assert fit["d_inf"] == pytest.approx(0.068, abs=1e-6)
        assert fit["n_points"] == 6

    @settings(max_examples=60, deadline=None)
    @given(rho=st.floats(0.05, 0.9), n_max=st.integers(7, 12),
           amps=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
    @example(rho=0.2, n_max=9, amps=(0.2, -0.5))
    def test_exact_sequence_keeps_every_entry(self, rho, n_max, amps):
        # residuals at rounding level must not trip the trim
        pts = [{"N": n, "converged": True,
                "mu": 0.887 + amps[0] * rho**n,
                "d": 0.068 + amps[1] * rho**n} for n in range(4, n_max + 1)]
        assert codim2.fit_geometric(pts)["n_points"] == len(pts)

    def test_too_few_points(self):
        fit = codim2.fit_geometric([{"N": 4, "converged": True,
                                     "mu": 0.9, "d": 0.07}])
        assert fit["mu_inf"] is None


def _least_squares_rate(ns, ys, log_rho0):
    """The rate search fit_geometric replaced: Levenberg-Marquardt on all five
    parameters (mu_inf, d_inf, log rho, C_mu, C_d) from the same start."""
    mus, ds = ys[:, 0], ys[:, 1]

    def model(theta):
        mu_inf, d_inf, log_rho, cmu, cd = theta
        rho_n = np.exp(log_rho * ns)
        return np.concatenate([(mus - mu_inf - cmu * rho_n),
                               (ds - d_inf - cd * rho_n) * 10.0])

    rho0 = np.exp(log_rho0)
    theta0 = np.array([mus[-1], ds[-1], log_rho0,
                       (mus[0] - mus[-1]) / rho0 ** ns[0],
                       (ds[0] - ds[-1]) / rho0 ** ns[0]])
    sol = scipy.optimize.least_squares(model, theta0, method="lm",
                                       max_nfev=20000)
    return sol.x[2]


def _fell_back(fit, pts):
    # the sanity fallback takes both limits from one of the entries
    return (fit["mu_inf"] in [e["mu"] for e in pts]
            and fit["d_inf"] in [e["d"] for e in pts])


class TestGeometricFitOracle:
    @settings(max_examples=60, deadline=None)
    @given(rho=st.floats(0.05, 0.9),
           n_max=st.integers(6, 10),
           limits=st.tuples(st.floats(0.5, 1.0), st.floats(0.01, 0.2)),
           amps=st.tuples(st.floats(0.1, 1.0), st.floats(0.1, 1.0),
                          st.sampled_from([1.0, -1.0]),
                          st.sampled_from([1.0, -1.0])),
           scale=st.floats(0.0, 1e-6),
           unit_noise=st.lists(st.floats(-1.0, 1.0), min_size=14,
                               max_size=14))
    # a slow rate and large amplitudes put the fitted limits far outside
    # the data: the sanity fallback
    @example(rho=0.9, n_max=6, limits=(0.5, 0.1), amps=(1.0, 1.0, -1.0, 1.0),
             scale=0.0, unit_noise=[0.0] * 14)
    def test_matches_the_least_squares_fit(self, rho, n_max, limits, amps,
                                           scale, unit_noise):
        # geometric (mu_N, d_N) over N = 4..n_max (3 to 7 entries) with
        # amplitudes of the cusp sequence's size, 0.1 to 1
        mu_inf, d_inf = limits
        cmu, cd = amps[0] * amps[2], amps[1] * amps[3]
        noise = [scale * u for u in unit_noise]
        pts = [{"N": n, "converged": True,
                "mu": mu_inf + cmu * rho**n + noise[2 * i],
                "d": d_inf + cd * rho**n + noise[2 * i + 1]}
               for i, n in enumerate(range(4, n_max + 1))]
        fit = codim2.fit_geometric(pts)
        with mock.patch.object(codim2, "_min_geometric_cost",
                               _least_squares_rate):
            ref = codim2.fit_geometric(pts)
        assert _fell_back(fit, pts) == _fell_back(ref, pts)
        if fit["n_points"] == ref["n_points"]:
            # no worse a minimum than the oracle's, up to the rounding of an
            # exact fit and the last 1e-8 a cost falling all the way to
            # rho -> 0 loses below the search's end, rho = 1e-8
            assert (fit["fit_residual"]
                    <= ref["fit_residual"] * (1 + 1e-7) + 1e-13)
        if 100 * scale > min(abs(cmu), abs(cd)) * rho**n_max:
            # the tail is lost in the noise: the five-parameter search can
            # stall anywhere on a cost that falls all the way to a minimum
            # (from rho = 0.15 it stops at 2e-5 where the minimum is at 0.5)
            return
        assert fit["mu_inf"] == pytest.approx(ref["mu_inf"], abs=1e-8)
        assert fit["d_inf"] == pytest.approx(ref["d_inf"], abs=1e-8)
        assert fit["rho"] == pytest.approx(ref["rho"], abs=1e-6, nan_ok=True)
