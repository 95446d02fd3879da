import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from snaklat import lattice, model, solver, studies
from snaklat.lattice import OFFSITE, ONSITE, Field
from snaklat.model import PatternId, UBAR, VBAR, anti_continuum_pattern
from test_lattice import ORBIT_SPACES


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


class TestResidualProperties:
    @settings(max_examples=30, deadline=None)
    @given(symmetry=st.sampled_from([OFFSITE, ONSITE]),
           n_d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           mu=st.floats(0.05, 0.95), d=st.floats(0.0, 0.5))
    def test_d4_equivariance(self, symmetry, n_d, seed, mu, d):
        # F(g.u) = g.F(u) for every element g of the D4 action
        nl = model.cubic_quintic()
        g = lattice.full_square(n_d, symmetry)
        u = np.random.default_rng(seed).uniform(-0.2, 1.3, g.size)
        F = solver.residual_values(u, g, nl, mu, d)
        for perm in lattice.action_permutations(g):
            assert np.allclose(solver.residual_values(u[perm], g, nl, mu, d),
                               F[perm], rtol=0, atol=1e-13)


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
        g = lattice.wedge(3, OFFSITE)
        n = g.size
        rhs = np.append(np.arange(1.0, n + 1), 0.0)
        x = solver.bordered_solve(g, 0.0, np.ones(n), rhs, np.zeros(n),
                                  np.zeros(n), 1.0)
        assert np.allclose(x[:n], rhs[:n])
        assert np.allclose(x[n], 0.0)

    def test_rank_deficient_core_dense_oracle(self):
        rng = np.random.default_rng(9)
        g = lattice.wedge(4, OFFSITE)
        n = g.size
        # d*L annihilates constants
        phi = np.ones(n) / np.sqrt(n)
        rhs = np.append(rng.standard_normal(n), 0.7)
        x = solver.bordered_solve(g, 0.3, np.zeros(n), rhs, phi, phi, 0.0)
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = 0.3 * lattice.laplacian_matrix(g).toarray()
        big[:n, n] = phi
        big[n, :n] = phi
        assert np.allclose(x, np.linalg.solve(big, rhs), atol=1e-10)

    def test_arclength_row_satisfied_exactly(self):
        rng = np.random.default_rng(10)
        g = lattice.wedge(4, OFFSITE)
        n = g.size
        t_u = rng.standard_normal(n)
        t_p = 0.8
        f_p = rng.standard_normal(n)
        c = 0.3
        x = solver.bordered_solve(g, 0.0, rng.uniform(1, 2, n),
                                  np.append(rng.standard_normal(n), c),
                                  f_p, t_u, t_p)
        assert abs(t_u @ x[:n] + t_p * x[n] - c) < 1e-12

    def test_singular_bordered_reported(self):
        g = lattice.wedge(2, OFFSITE)
        with pytest.raises(solver.SingularBorderedSystem):
            solver.bordered_solve(g, 0.0, np.zeros(3), np.append(np.ones(3), 0.0),
                                  np.zeros(3), np.zeros(3), 0.0)

    def test_singular_border_of_regular_jacobian_reported(self):
        # J = I is factored, but the Schur complement 1 - e0.e0 vanishes
        g = lattice.wedge(3, OFFSITE)
        e0 = np.eye(g.size)[0]
        with solver.counting_bordered_solves() as counts:
            with pytest.raises(solver.SingularBorderedSystem):
                solver.bordered_solve(g, 0.0, np.ones(g.size),
                                      np.ones(g.size + 1), e0, e0, 1.0)
        assert counts == {"banded": 0, "fallback": 1}


def random_grid(kind, symmetry, n_d):
    if kind == "wedge":
        return lattice.wedge(n_d, symmetry)
    return lattice.full_square(n_d, symmetry)


class TestAssemblerProperties:
    @settings(max_examples=40, deadline=None)
    @given(space=st.sampled_from(ORBIT_SPACES),
           symmetry=st.sampled_from([OFFSITE, ONSITE]),
           n_d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           mu=st.floats(0.05, 0.95), d=st.floats(0.0, 0.5),
           bordered=st.booleans())
    def test_matches_bmat_and_dense_solve(self, space, symmetry, n_d, seed,
                                          mu, d, bordered):
        nl = model.cubic_quintic()
        g = lattice.GridSpec(n_d, symmetry, *space)
        n = g.size
        rng = np.random.default_rng(seed)
        u = rng.uniform(-0.2, 1.3, n)
        jac = d * lattice.laplacian_matrix(g) + sp.diags(nl.f_u(u, mu))
        border = ()
        expect = jac
        if bordered:
            border = (rng.standard_normal(n), rng.standard_normal(n),
                      rng.standard_normal())
            b, c, delta = border
            expect = sp.bmat([[jac, sp.csc_matrix(b).T],
                              [sp.csc_matrix(c), sp.csc_matrix([[delta]])]])
        dense = expect.toarray()
        assert np.array_equal(
            solver.bordered_matrix(g, d, nl.f_u(u, mu), *border).toarray(),
            dense)
        assume(dense.size and np.linalg.cond(dense) < 1e5)
        rhs = rng.standard_normal(dense.shape[0])
        x = solver.bordered_solve(g, d, nl.f_u(u, mu), rhs, *border)
        ref = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    @staticmethod
    def dense_fold_matrix(u, phi, c, g, nl, mu, d, parameter):
        """The fold system's Jacobian in (u, phi, p), assembled by bmat."""
        lap = lattice.laplacian_matrix(g)
        jac = d * lap + sp.diags(nl.f_u(u, mu))
        f_p, jphi_p = ((nl.f_mu(u, mu), nl.f_umu(u, mu) * phi)
                       if parameter == "mu" else (lap @ u, lap @ phi))
        return sp.bmat([
            [jac, None, sp.csc_matrix(f_p).T],
            [sp.diags(nl.f_uu(u, mu) * phi), jac, sp.csc_matrix(jphi_p).T],
            [None, sp.csc_matrix(c), None]]).toarray()

    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["wedge", "full"]),
           symmetry=st.sampled_from([OFFSITE, ONSITE]),
           n_d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           parameter=st.sampled_from(["mu", "d"]))
    def test_fold_step_matches_dense_solve(self, kind, symmetry, n_d, seed,
                                           parameter):
        nl = model.cubic_quintic()
        g = random_grid(kind, symmetry, n_d)
        rng = np.random.default_rng(seed)
        u, phi, c = (rng.standard_normal(g.size) for _ in range(3))
        mu, d = 0.4, 0.03
        dense = self.dense_fold_matrix(u, phi, c, g, nl, mu, d, parameter)
        assume(np.linalg.cond(dense) < 1e8)
        rhs = rng.standard_normal(dense.shape[0])
        x = solver.fold_step(u, phi, c, g, nl, mu, d, parameter, rhs)
        ref = np.linalg.solve(dense, rhs)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("parameter", ["mu", "d"])
    def test_fold_step_at_a_refined_fold(self, parameter):
        # J is singular to rounding here; B = [[J, F_p], [phi^T, 0]] is not
        nl = model.cubic_quintic()
        fold = studies.find_right_fold(nl, 3, 1, 1e-3, n_d=6)
        u, phi, g = fold.u.values, fold.phi.values, fold.u.grid
        dense = self.dense_fold_matrix(u, phi, phi, g, nl, fold.mu, fold.d,
                                       parameter)
        rhs = np.random.default_rng(5).standard_normal(dense.shape[0])
        with solver.counting_bordered_solves() as counts:
            x = solver.fold_step(u, phi, phi, g, nl, fold.mu, fold.d,
                                 parameter, rhs)
        assert counts["banded"] + counts["fallback"] == 4
        norm = np.max(np.sum(np.abs(dense), axis=1))
        assert (np.max(np.abs(dense @ x - rhs))
                <= 1e-12 * (norm * np.max(np.abs(x)) + np.max(np.abs(rhs))))

    def test_singular_fold_system_reported(self):
        # f = -u at d = 0 with a constant phi: f_uu phi = 0 and L phi = 0
        # leave the phi rows without u or d, so s_2 = 0 while B = [[-I, L u],
        # [1^T, 0]] is regular
        nl = model.polynomial([[0.0, -1.0]])
        g = lattice.wedge(3, OFFSITE)
        u, phi = np.arange(g.size, dtype=float), np.ones(g.size)
        assert np.ones(g.size) @ lattice.laplacian_matrix(g) @ u != 0
        with pytest.raises(solver.SingularBorderedSystem):
            solver.fold_step(u, phi, phi, g, nl, 0.5, 0.0, "d",
                             np.ones(2 * g.size + 1))

    @settings(max_examples=40, deadline=None)
    @given(space=st.sampled_from(ORBIT_SPACES),
           symmetry=st.sampled_from([OFFSITE, ONSITE]),
           n_d=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           d=st.floats(0.0, 0.5), k=st.integers(0, 10**6),
           gap=st.floats(-1e-10, 1e-10))
    def test_near_fold_meets_backward_error_bound(self, space, symmetry, n_d,
                                                  seed, d, k, gap):
        # shift J so that one eigenvalue sits within 1e-10 of 0 and border
        # it with that eigenvector, as the corrector does at a fold
        nl = model.cubic_quintic()
        g = lattice.GridSpec(n_d, symmetry, *space)
        n = g.size
        assume(n > 0)
        rng = np.random.default_rng(seed)
        diag = nl.f_u(rng.uniform(-0.2, 1.3, n), 0.5)
        jac = solver.bordered_matrix(g, d, diag).toarray()
        evals, evecs = np.linalg.eig(jac)
        k %= n
        phi = evecs[:, k].real / np.linalg.norm(evecs[:, k].real)
        diag = diag - evals[k].real + gap
        border = (phi, phi, 0.0)
        rhs = rng.standard_normal(n + 1)
        x = solver.bordered_solve(g, d, diag, rhs, *border)
        dense = solver.bordered_matrix(g, d, diag, *border).toarray()
        norm = np.max(np.sum(np.abs(dense), axis=1))
        assert np.all(np.isfinite(x))
        assert (np.max(np.abs(dense @ x - rhs)) <= solver.BACKWARD_ERROR_MAX
                * (norm * np.max(np.abs(x)) + np.max(np.abs(rhs))))

    @staticmethod
    def perturbed_solve(monkeypatch, scale):
        """A wedge bordered system solved with every banded triangular
        solve scaled by ``scale``; returns (x, its matrix, rhs, counts)."""
        nl = model.cubic_quintic()
        g = lattice.wedge(6, OFFSITE)
        rng = np.random.default_rng(11)
        diag = nl.f_u(rng.uniform(0.0, 1.2, g.size), 0.5)
        border = (rng.standard_normal(g.size), rng.standard_normal(g.size),
                  0.5)
        rhs = rng.standard_normal(g.size + 1)
        real = lapack.dgbtrs

        def dgbtrs(*args, **kwargs):
            x, info = real(*args, **kwargs)
            return x * scale, info

        monkeypatch.setattr(lapack, "dgbtrs", dgbtrs)
        with solver.counting_bordered_solves() as counts:
            x = solver.bordered_solve(g, 0.05, diag, rhs, *border)
        return x, solver.bordered_matrix(g, 0.05, diag, *border), rhs, counts

    def test_failed_check_returns_oracle(self, monkeypatch):
        # a 1e-4 error survives one refinement step as ~1e-8 and fails the
        # check, so the answer is splu's with its default options, bitwise
        x, matrix, rhs, counts = self.perturbed_solve(monkeypatch, 1 + 1e-4)
        assert counts == {"banded": 0, "fallback": 1}
        assert np.array_equal(x, spla.splu(matrix).solve(rhs))

    def test_refinement_repairs_a_small_error(self, monkeypatch):
        # one refinement step squares a 1e-8 relative error of the
        # triangular solves, which then passes the check on the banded path
        x, matrix, rhs, counts = self.perturbed_solve(monkeypatch, 1 + 1e-8)
        assert counts == {"banded": 1, "fallback": 0}
        assert np.max(np.abs(matrix @ x - rhs)) <= 1e-14
