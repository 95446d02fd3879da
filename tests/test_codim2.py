import numpy as np
import pytest

from snaklat import codim2, lattice, model, solver, studies
from snaklat.lattice import OFFSITE, ONSITE, Field

NL = model.cubic_quintic()


class TestCharacterLaplacian:
    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_component_spectra_tile_the_full_square(self, symmetry):
        # trivial + sign components + a doubly degenerate remainder (the
        # two-dimensional representation) must reproduce the full spectrum
        rng = np.random.default_rng(31)
        g = lattice.wedge(4, symmetry)
        uw = Field(g, rng.uniform(0.2, 1.2, g.size))
        mu, d = 0.55, 0.17
        jf = solver.jacobian(lattice.unfold(uw), NL, mu, d).toarray()
        ev_full = np.sort(np.linalg.eigvalsh(jf))
        jw = solver.jacobian(uw, NL, mu, d)
        evs = list(np.linalg.eigvalsh(lattice.symmetric_form(
            jw, lattice.orbit_weights(g)).toarray()))
        for rep in codim2.SIGN_REPS:
            jc, act = codim2.component_jacobian(uw.values, g, NL, mu, d, rep)
            if len(act):
                w = lattice.orbit_weights(lattice.GridSpec(4, symmetry,
                                                           rep=rep))
                evs.extend(np.linalg.eigvalsh(
                    lattice.symmetric_form(jc, w).toarray()))
        remaining = list(ev_full)
        for lam in sorted(evs):
            k = int(np.argmin(np.abs(np.array(remaining) - lam)))
            assert abs(remaining[k] - lam) < 1e-9
            remaining.pop(k)
        remaining = np.sort(np.array(remaining)).reshape(-1, 2)
        assert np.allclose(remaining[:, 0], remaining[:, 1], atol=1e-9)

    def test_active_sites_respect_mirrors(self):
        g = lattice.wedge(5, OFFSITE)
        # sign1 flips under the diagonal mirror, so diagonal sites drop out
        comp, act = codim2.component(g, "sign1")
        sites = g.sites()[act]
        assert np.array_equal(sites, comp.sites())
        assert all(n != m for n, m in sites)
        # sign3 keeps the diagonal mirror: all wedge sites stay active
        _, act3 = codim2.component(g, "sign3")
        assert len(act3) == g.size

    def test_unfolded_component_lies_in_rep(self):
        from snaklat import spectral
        g = lattice.wedge(4, OFFSITE)
        rng = np.random.default_rng(32)
        for rep in codim2.SIGN_REPS:
            comp, _ = codim2.component(g, rep)
            vec = rng.standard_normal(comp.size)
            full = lattice.unfold(Field(comp, vec))
            tag, norms = spectral.isotypic_classify(full)
            assert tag == rep
            others = sum(v for k, v in norms.items() if k != rep)
            assert others < 1e-12


class TestFindCusp:
    def test_plain_fold_rejected(self):
        # generic folds have a one-dimensional null space: the extended
        # system must not report a cusp there
        d = 0.01
        fold = studies.find_right_fold(NL, 3, 1, d, n_d=8)
        with pytest.raises((codim2.WrongNullity, codim2.NoConvergence)):
            codim2.find_cusp(fold.u, fold.mu, fold.d, NL, "sign1",
                             phi1=fold.phi.values, max_param_move=0.02)

    @pytest.mark.slow
    def test_collision_point_n4(self):
        d_star, mu_star, fold = codim2.fold_curve_crossing(NL, 4, n_d=16)
        assert 0.06 < d_star < 0.09
        assert 0.86 < mu_star < 0.91
        rep = min(codim2.SIGN_REPS,
                  key=lambda r: abs(codim2.smallest_component_eig(
                      fold.u.values, fold.u.grid, NL, fold.mu, fold.d,
                      r)[0]))
        cusp = codim2.find_cusp(fold.u, fold.mu, fold.d, NL, rep,
                                phi1=fold.phi.values, stall_accept=1e-3,
                                max_param_move=0.05)
        # null vectors orthonormal across components, residuals recorded
        assert abs(np.linalg.norm(cusp.phi1.values) - 1) < 1e-10
        assert abs(np.linalg.norm(cusp.phi2.values) - 1) < 1e-10
        assert abs(cusp.phi1.values @ cusp.phi2.values) < 1e-8
        assert solver.residual(cusp.u, NL, cusp.mu, cusp.d).norm_inf() < 1e-9
        assert cusp.null_residuals[0] < 1e-7
        assert cusp.null_residuals[1] < 1e-4  # avoided-crossing floor


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

    def test_too_few_points(self):
        fit = codim2.fit_geometric([{"N": 4, "converged": True,
                                     "mu": 0.9, "d": 0.07}])
        assert fit["mu_inf"] is None
