import numpy as np
import pytest

from snaklat import dynamics, lattice, model, solver, spectral, studies
from snaklat.lattice import OFFSITE
from snaklat.model import PatternId, UBAR, VBAR

NL = model.cubic_quintic()


class TestIntegrate:
    def test_equilibrium_stays_put(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(2, 1, UBAR, OFFSITE), 0.5,
                                   d, 6)
        traj = dynamics.integrate(u, NL, 0.5, d, t_end=50.0,
                                  rtol=1e-10, atol=1e-12)
        assert np.all(traj.deviation < 1e-8)
        assert np.all(np.diff(traj.times) > 0)
        # default tolerances keep the drift within an order of that
        traj = dynamics.integrate(u, NL, 0.5, d, t_end=50.0)
        assert np.all(traj.deviation < 1e-7)

    def test_stable_state_attracts_perturbations(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(2, 1, UBAR, OFFSITE), 0.5,
                                   d, 6)
        rng = np.random.default_rng(42)
        u0 = u.copy()
        u0.values = u0.values + 1e-3 * rng.standard_normal(u0.grid.size)
        traj = dynamics.integrate(u0, NL, 0.5, d, t_end=200.0, reference=u)
        assert traj.deviation[-1] < 1e-6

    def test_unstable_growth_matches_eigenvalue(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(2, 1, VBAR, OFFSITE), 0.5,
                                   d, 6)
        rep = spectral.unstable_count(u, NL, 0.5, d)
        lam_max = float(max(val for val, _ in
                            _wedge_unstable_eigs(u, NL, 0.5, d)))
        # perturb along the leading unstable wedge mode
        _, vecs = _leading_wedge_mode(u, NL, 0.5, d)
        u0 = u.copy()
        u0.values = u0.values + 1e-6 * vecs
        t_end = np.log(1e3) / lam_max
        traj = dynamics.integrate(u0, NL, 0.5, d, t_end=t_end,
                                  n_samples=121, reference=u)
        rate = dynamics.growth_rate(traj, window=(0.1 * t_end, 0.8 * t_end))
        assert abs(rate - lam_max) / lam_max < 0.1

    def test_odd_symmetry(self):
        rng = np.random.default_rng(5)
        g = lattice.wedge(5, OFFSITE)
        u0 = lattice.Field(g, 0.5 * rng.standard_normal(g.size))
        minus = lattice.Field(g, -u0.values)
        t1 = dynamics.integrate(u0, NL, 0.4, 0.05, t_end=5.0)
        t2 = dynamics.integrate(minus, NL, 0.4, 0.05, t_end=5.0)
        assert np.allclose(t1.final_state().values,
                           -t2.final_state().values, atol=1e-7)

    def test_tolerance_halving_convergence(self):
        d = 1e-3
        u = studies.prepared_state(NL, PatternId(1, 1, UBAR, OFFSITE), 0.5,
                                   d, 5)
        u0 = u.copy()
        u0.values = u0.values * 1.01
        base = dynamics.integrate(u0, NL, 0.5, d, t_end=10.0, rtol=1e-8,
                                  atol=1e-10)
        fine = dynamics.integrate(u0, NL, 0.5, d, t_end=10.0, rtol=5e-9,
                                  atol=5e-11)
        diff = np.max(np.abs(base.final_state().values
                             - fine.final_state().values))
        assert diff < 10 * 1e-8

    def test_rejects_nonpositive_horizon(self):
        u = lattice.zeros(lattice.wedge(3, OFFSITE))
        with pytest.raises(ValueError):
            dynamics.integrate(u, NL, 0.5, 0.0, t_end=0.0)

    def test_csv_export(self, tmp_path):
        u = lattice.zeros(lattice.wedge(3, OFFSITE))
        traj = dynamics.integrate(u, NL, 0.5, 0.0, t_end=1.0, n_samples=5)
        path = tmp_path / "traj.csv"
        dynamics.export_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,deviation"
        assert len(lines) == 6


def _wedge_unstable_eigs(u, nl, mu, d):
    jac = solver.jacobian(u, nl, mu, d)
    w = lattice.orbit_weights(u.grid)
    sym = lattice.symmetric_form(jac, w)
    vals = np.linalg.eigvalsh(sym.toarray())
    return [(v, None) for v in vals if v > 0]


def _leading_wedge_mode(u, nl, mu, d):
    jac = solver.jacobian(u, nl, mu, d)
    w = lattice.orbit_weights(u.grid)
    sym = lattice.symmetric_form(jac, w)
    vals, vecs = np.linalg.eigh(sym.toarray())
    k = int(np.argmax(vals))
    vec = vecs[:, k] / np.sqrt(w)
    return vals[k], vec / np.linalg.norm(vec)
