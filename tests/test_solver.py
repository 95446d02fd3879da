import numpy as np
import pytest
import scipy.sparse as sp

from snaklat import lattice, model, solver
from snaklat.lattice import OFFSITE, ONSITE, Field
from snaklat.model import PatternId, UBAR, VBAR, anti_continuum_pattern


def fixed_point_oracle(u0, nl, mu, d, tol=1e-12, max_iter=50000):
    """Iterate u <- u - diag(f_u(u0))^{-1} (d*Lap(u) + f(u)) to convergence."""
    lap = lattice.laplacian_matrix(u0.grid)
    scale = 1.0 / nl.f_u(u0.values, mu)
    u = u0.values.copy()
    for _ in range(max_iter):
        res = d * (lap @ u) + nl.f(u, mu)
        if np.max(np.abs(res)) < tol:
            return Field(u0.grid, u)
        u = u - scale * res
    raise AssertionError("fixed-point oracle did not converge")


class TestResidual:
    def test_pattern_is_root_at_zero_coupling(self):
        nl = model.cubic_quintic()
        u = anti_continuum_pattern(PatternId(3, 2, UBAR, OFFSITE), 0.5, nl, n_d=5)
        res = solver.residual(u, nl, 0.5, 0.0)
        assert res.norm_inf() == 0.0

    def test_zero_field_is_root(self):
        for nl in (model.cubic_quintic(), model.quadratic_cubic()):
            u = lattice.zeros(lattice.wedge(4, ONSITE))
            res = solver.residual(u, nl, 0.3, 0.7)
            assert res.norm_inf() == 0.0

    def test_constant_upper_root(self):
        nl = model.cubic_quintic()
        g = lattice.wedge(5, OFFSITE)
        u = lattice.constant(g, nl.u_plus(0.5))
        res = solver.residual(u, nl, 0.5, 0.1)
        assert res.norm_inf() < 1e-13


class TestJacobian:
    def test_diagonal_at_zero_coupling(self):
        nl = model.cubic_quintic()
        u = anti_continuum_pattern(PatternId(2, 1, VBAR, OFFSITE), 0.4, nl, n_d=4)
        jac = solver.jacobian(u, nl, 0.4, 0.0).toarray()
        assert np.allclose(jac, np.diag(nl.f_u(u.values, 0.4)))

    @pytest.mark.parametrize("symmetry", [OFFSITE, ONSITE])
    def test_matches_finite_differences(self, symmetry):
        rng = np.random.default_rng(5)
        h = 1e-5
        for nl in (model.cubic_quintic(), model.quadratic_cubic(),
                   model.cubic_logistic()):
            g = lattice.wedge(5, symmetry)
            u = Field(g, rng.uniform(-1, 1.4, g.size))
            v = rng.standard_normal(g.size)
            jac = solver.jacobian(u, nl, 0.6, 0.05)
            plus = solver.residual_values(u.values + h * v, g, nl, 0.6, 0.05)
            minus = solver.residual_values(u.values - h * v, g, nl, 0.6, 0.05)
            fd = (plus - minus) / (2 * h)
            assert np.max(np.abs(fd - jac @ v)) < 500 * h**2

    def test_full_square_symmetric(self):
        rng = np.random.default_rng(6)
        nl = model.cubic_quintic()
        g = lattice.full_square(4, OFFSITE)
        u = Field(g, rng.standard_normal(g.size))
        jac = solver.jacobian(u, nl, 0.5, 0.3)
        v = rng.standard_normal(g.size)
        w = rng.standard_normal(g.size)
        assert abs((jac @ v) @ w - v @ (jac @ w)) < 1e-12

    def test_wedge_weighted_symmetric(self):
        rng = np.random.default_rng(7)
        nl = model.cubic_quintic()
        g = lattice.wedge(5, OFFSITE)
        u = Field(g, rng.standard_normal(g.size))
        jac = solver.jacobian(u, nl, 0.5, 0.3)
        wts = lattice.orbit_weights(g)
        v = rng.standard_normal(g.size)
        w = rng.standard_normal(g.size)
        assert abs((jac @ v) @ (wts * w) - (wts * v) @ (jac @ w)) < 1e-11


class TestNewton:
    def test_converges_in_zero_iterations_on_exact_root(self):
        nl = model.cubic_quintic()
        u0 = anti_continuum_pattern(PatternId(3, 1, UBAR, OFFSITE), 0.5, nl, n_d=5)
        u, iters = solver.newton_solve(u0, nl, 0.5, 0.0)
        assert iters == 0
        assert np.array_equal(u.values, u0.values)

    def test_small_coupling_against_fixed_point_oracle(self):
        nl = model.cubic_quintic()
        d = 1e-3
        u0 = anti_continuum_pattern(PatternId(2, 1, UBAR, OFFSITE), 0.5, nl, n_d=6)
        u, _ = solver.newton_solve(u0, nl, 0.5, d)
        assert solver.residual(u, nl, 0.5, d).norm_inf() <= 1e-10
        ref = fixed_point_oracle(u0, nl, 0.5, d)
        assert np.max(np.abs(u.values - ref.values)) < 1e-9
        # O(d) distance from the decoupled pattern
        assert 0 < np.max(np.abs(u.values - u0.values)) < 20 * d

    def test_residual_recheck_after_success(self):
        nl = model.quadratic_cubic()
        u0 = anti_continuum_pattern(PatternId(2, 2, VBAR, ONSITE), 0.4, nl, n_d=5)
        u, _ = solver.newton_solve(u0, nl, 0.4, 5e-4, tol=1e-11)
        assert solver.residual(u, nl, 0.4, 5e-4).norm_inf() <= 1e-11

    def test_degenerate_window_endpoint_reported(self):
        # at mu=1, d=0 the diagonal entry f_u(u_-(1)) vanishes exactly; with a
        # nonzero residual elsewhere the solve must fail loudly
        nl = model.cubic_quintic()
        u0 = anti_continuum_pattern(PatternId(2, 1, VBAR, OFFSITE), 1.0, nl, n_d=4)
        u0.values[u0.grid.index(1, 1)] += 1e-3
        with pytest.raises((solver.SingularJacobian, solver.NoConvergence)):
            solver.newton_solve(u0, nl, 1.0, 0.0)

    def test_continue_in_coupling(self):
        nl = model.cubic_quintic()
        u0 = anti_continuum_pattern(PatternId(3, 2, UBAR, OFFSITE), 0.5, nl, n_d=6)
        u = solver.continue_in_coupling(u0, nl, 0.5, 0.05)
        assert solver.residual(u, nl, 0.5, 0.05).norm_inf() <= 1e-10


class TestNewtonKernel:
    @staticmethod
    def arctan_step(x, F):
        return -F * (1.0 + x**2)

    def test_full_steps_are_taken_even_when_the_residual_grows(self):
        # Newton on arctan from x0 = 2 overshoots further on every step;
        # without halvings the kernel must follow it (the pseudo-arclength
        # corrector relies on undamped steps) and report the cap
        norms = []

        def done(x, F):
            norms.append(float(np.max(np.abs(F))))
            return False

        with pytest.raises(solver.NoConvergence) as info:
            solver.newton(np.arctan, self.arctan_step, np.array([2.0]), done,
                          3)
        assert len(norms) == 4
        assert norms == sorted(norms) and norms[-1] > norms[0]
        assert info.value.x[0] < -100.0
        assert info.value.norm == norms[-1]

    def test_halvings_rescue_the_overshooting_iteration(self):
        x, F, steps = solver.newton(
            np.arctan, self.arctan_step, np.array([2.0]),
            lambda x, F: np.max(np.abs(F)) <= 1e-12, 50, halvings=8)
        assert abs(x[0]) <= 1e-12 and 0 < steps < 50

    def test_damped_stall_carries_last_iterate_and_norm(self):
        # x^2 + 1 has no root: the damped iteration decreases |F| a few
        # times, then no step length helps
        def residual(x):
            return x**2 + 1.0

        accepted = []

        def done(x, F):
            accepted.append(x.copy())
            return False

        with pytest.raises(solver.NoConvergence, match="stalled") as info:
            solver.newton(residual, lambda x, F: -F / (2.0 * x),
                          np.array([2.0]), done, 50, halvings=8)
        exc = info.value
        assert len(accepted) > 1
        assert np.array_equal(exc.x, accepted[-1])
        assert exc.norm == np.max(np.abs(residual(exc.x)))
        assert 1.0 <= exc.norm < residual(2.0)

    def test_failed_step_becomes_no_convergence_at_last_iterate(self):
        def step(x, F):
            raise solver.SingularJacobian("singular")

        with pytest.raises(solver.NoConvergence) as info:
            solver.newton(np.arctan, step, np.array([0.5]),
                          lambda x, F: False, 10)
        assert info.value.x[0] == 0.5
        assert isinstance(info.value.__cause__, solver.SingularJacobian)


class TestBorderedSolve:
    def test_identity_with_zero_border(self):
        n = 6
        J = sp.eye(n, format="csc")
        rhs = np.arange(1.0, n + 1)
        x, y = solver.bordered_solve(J, np.zeros(n), np.zeros(n), 1.0, rhs, [0.0])
        assert np.allclose(x, rhs)
        assert np.allclose(y, 0.0)

    def test_rank_deficient_core_dense_oracle(self):
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        lam = np.diag([2.0, -1.0, 0.5, 3.0, 0.0])  # rank-deficient
        J = q @ lam @ q.T
        phi = q[:, 4]  # kernel vector
        rhs = rng.standard_normal(5)
        x, y = solver.bordered_solve(sp.csc_matrix(J), phi, phi, 0.0, rhs, [0.7])
        big = np.zeros((6, 6))
        big[:5, :5] = J
        big[:5, 5] = phi
        big[5, :5] = phi
        expect = np.linalg.solve(big, np.concatenate([rhs, [0.7]]))
        assert np.allclose(np.concatenate([x, y]), expect, atol=1e-10)

    def test_arclength_row_satisfied_exactly(self):
        rng = np.random.default_rng(10)
        n = 8
        J = sp.csc_matrix(np.diag(rng.uniform(1, 2, n)))
        t_u = rng.standard_normal(n)
        t_p = 0.8
        f_p = rng.standard_normal(n)
        rhs_top = rng.standard_normal(n)
        c = 0.3
        x, y = solver.bordered_solve(J, f_p, t_u, t_p, rhs_top, [c])
        assert abs(t_u @ x + t_p * y[0] - c) < 1e-12

    def test_singular_bordered_reported(self):
        J = sp.csc_matrix(np.zeros((3, 3)))
        with pytest.raises(solver.SingularBorderedSystem):
            solver.bordered_solve(J, np.zeros(3), np.zeros(3), 0.0,
                                  np.ones(3), [0.0])
