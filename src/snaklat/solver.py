"""Steady-state residual F(u, mu, d) = d*Lap(u) + f(u, mu) and linear algebra.

The Jacobian d*L + diag(f_u) inherits the Laplacian's closure: on full
squares it is symmetric; on the wedge it is self-adjoint only in the
orbit-weighted inner product.  Newton solves and bordered solves use a
direct sparse LU factorization throughout, which is comfortable at the
problem sizes here (<= ~10^4 unknowns).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import lattice
from .lattice import Field


class SolverError(Exception):
    """Base of every numerical failure the package raises."""


class SingularJacobian(SolverError):
    pass


class NoConvergence(SolverError):
    """A Newton iteration failed; ``x`` is its last iterate, ``norm`` the
    sup-norm of the residual there (both None when not known)."""

    def __init__(self, message, x=None, norm=None):
        super().__init__(message)
        self.x = x
        self.norm = norm


class SingularBorderedSystem(SolverError):
    pass


def residual_values(values, grid, nonlinearity, mu, d):
    lap = lattice.laplacian_matrix(grid)
    return d * (lap @ values) + nonlinearity.f(values, mu)


def residual(u, nonlinearity, mu, d):
    """F(u, mu, d) = d*Lap(u) + f(u, mu), elementwise."""
    return Field(u.grid, residual_values(u.values, u.grid, nonlinearity, mu, d))


def jacobian(u, nonlinearity, mu, d):
    """Sparse matrix J with J v = d*Lap(v) + f_u(u, mu) v."""
    return jacobian_matrix(u.values, u.grid, nonlinearity, mu, d)


def jacobian_matrix(values, grid, nonlinearity, mu, d):
    lap = lattice.laplacian_matrix(grid)
    diag = sp.diags(nonlinearity.f_u(values, mu))
    return (d * lap + diag).tocsc()


def parameter_column(values, grid, nonlinearity, mu, d, parameter):
    """dF/dp for the continuation parameter p, ``"mu"`` or ``"d"``."""
    if parameter == "mu":
        return nonlinearity.f_mu(values, mu) + np.zeros(grid.size)
    return lattice.laplacian_matrix(grid) @ values


def fold_rows(values, phi, grid, nonlinearity, mu, d, parameters=("mu",)):
    """Block rows [[J, 0, F_p], [diag(f_uu phi), J, (J phi)_p]] of a fold system.

    One column of F_p and of (J phi)_p per name in ``parameters``; the rows
    are lists of blocks for :func:`scipy.sparse.bmat`, None meaning zero.
    """
    jac = jacobian_matrix(values, grid, nonlinearity, mu, d)
    top, mid = [jac, None], [sp.diags(nonlinearity.f_uu(values, mu) * phi), jac]
    for p in parameters:
        jphi_p = (nonlinearity.f_umu(values, mu) * phi if p == "mu"
                  else lattice.laplacian_matrix(grid) @ phi)
        top.append(sp.csr_matrix(
            parameter_column(values, grid, nonlinearity, mu, d, p)).T)
        mid.append(sp.csr_matrix(jphi_p).T)
    return [top, mid]


def fold_system(values, phi, c, grid, nonlinearity, mu, d, parameter="mu"):
    """Jacobian in (u, phi, p) of the fold system {F = 0, J phi = 0, <c, phi> = 1}."""
    rows = fold_rows(values, phi, grid, nonlinearity, mu, d, (parameter,))
    return sp.bmat(rows + [[None, sp.csr_matrix(c), None]], format="csc")


def lu_solve(matrix, rhs, err=SingularJacobian):
    """Solve with a sparse LU factorization; ``err`` on a singular matrix or a
    non-finite solution."""
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise err(str(exc)) from exc
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise err("linear solve produced non-finite values")
    return x


def newton(residual, step, x0, done, max_iter, halvings=0):
    """Newton iteration x <- x + s dx with F = residual(x), dx = step(x, F).

    ``done(x, F)`` is tested before every step and after the last one.  With
    ``halvings`` > 0 the step length s runs through 1, 1/2, ..., 2**-halvings
    until the residual sup-norm decreases; with 0 every full step is taken.
    Returns ``(x, F, steps)``.  A stall, a failed or non-finite step and an
    exhausted cap raise :class:`NoConvergence` with the last iterate.
    """
    x, F = x0, residual(x0)
    norm = np.max(np.abs(F))
    for it in range(max_iter + 1):
        if done(x, F):
            return x, F, it
        if it == max_iter:
            break
        try:
            dx = step(x, F)
        except SolverError as exc:
            raise NoConvergence(str(exc), x, norm) from exc
        for k in range(halvings + 1):
            trial = x + 0.5**k * dx
            trial_F = residual(trial)
            trial_norm = np.max(np.abs(trial_F))
            if not halvings or trial_norm < norm:
                break
        else:
            raise NoConvergence(
                f"residual stalled at {norm:.3e} after {it} steps", x, norm)
        if not np.isfinite(trial_norm):
            raise NoConvergence("Newton step produced non-finite values",
                                x, norm)
        x, F, norm = trial, trial_F, trial_norm
    raise NoConvergence(
        f"no convergence in {max_iter} steps, |F|={norm:.3e}", x, norm)


def newton_solve(u0, nonlinearity, mu, d, tol=1e-10, max_iter=50):
    """Damped Newton iteration for F(u, mu, d) = 0.

    Steps are halved (up to 8 times) until the residual sup-norm decreases;
    a step that cannot achieve a decrease raises :class:`NoConvergence`.
    Returns ``(u, iterations)``.
    """
    grid = u0.grid

    def residual(x):
        return residual_values(x, grid, nonlinearity, mu, d)

    def step(x, F):
        return lu_solve(jacobian_matrix(x, grid, nonlinearity, mu, d), -F)

    x, _, it = newton(residual, step,
                      np.asarray(u0.values, dtype=float).copy(),
                      lambda x, F: np.max(np.abs(F)) <= tol, max_iter,
                      halvings=8)
    return Field(grid, x), it


def bordered_solve(J, B, C, D, rhs_top, rhs_bottom):
    """Solve the bordered system [[J, B], [C^T, D]] [x, y] = [rhs_top, rhs_bottom].

    B and C have shape (n, k); D is (k, k).  One-dimensional borders may be
    passed as flat arrays.  The augmented matrix is factored as a whole,
    which stays robust when J itself is (nearly) singular.
    """
    n = J.shape[0]
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if B.shape[0] != n:
        B = B.T
    if C.shape[0] != n:
        C = C.T
    k = B.shape[1]
    D = np.asarray(D, dtype=float).reshape(k, k)
    rhs = np.concatenate([np.asarray(rhs_top, dtype=float).ravel(),
                          np.asarray(rhs_bottom, dtype=float).ravel()])
    if rhs.shape[0] != n + k:
        raise ValueError("right-hand side does not match the bordered dimensions")
    M = sp.bmat([[J, sp.csc_matrix(B)], [sp.csc_matrix(C.T), sp.csc_matrix(D)]],
                format="csc")
    sol = lu_solve(M, rhs, err=SingularBorderedSystem)
    return sol[:n], sol[n:]


def continue_in_coupling(u0, nonlinearity, mu, d_target, tol=1e-10):
    """Natural continuation in d from a decoupled-limit state.

    Newton-corrects along a geometric ladder of coupling values until the
    target is reached; the ladder is refined adaptively when a solve fails.
    """
    u = u0.copy()
    d_cur = 0.0
    step = d_target
    halvings = 0
    while d_cur != d_target:
        d_try = d_cur + step
        if (step > 0 and d_try > d_target) or (step < 0 and d_try < d_target):
            d_try = d_target
        try:
            u_new, _ = newton_solve(u, nonlinearity, mu, d_try, tol=tol)
        except SolverError:
            halvings += 1
            step *= 0.5
            if halvings > 20:
                raise NoConvergence(
                    f"coupling continuation stalled at d={d_cur:.3e}"
                )
            continue
        u, d_cur = u_new, d_try
    return u
