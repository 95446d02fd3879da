"""Steady-state residual F(u, mu, d) = d*Lap(u) + f(u, mu) and linear algebra.

The Jacobian d*L + diag(f_u) inherits the Laplacian's closure: on full
squares it is symmetric; on the wedge it is self-adjoint only in the
orbit-weighted inner product.  Every matrix a Newton step factors (the
Jacobian, bordered by one column and one row placed last, and the fold
system) has a fixed :class:`BlockPattern`, built once per grid; a step
writes only its data.  :func:`lu_solve` factors in a fixed column ordering
with threshold pivoting, checks the backward error and falls back on
splu's defaults, the oracle.
"""

from __future__ import annotations

from functools import lru_cache

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


# (column ordering, pivot threshold) of the checked fast factorization.
# Bordered Jacobians keep the site order and its band; at threshold 0.1 a
# corrector's tangent row displaces the critical cell's small pivot on a
# fifth of the snake's solves and fills L + U from 5.8k to 25k entries.
BORDERED_LU = ("NATURAL", 1e-3)
FOLD_LU = ("MMD_AT_PLUS_A", 0.1)
BACKWARD_ERROR_MAX = 1e-12


class BlockPattern:
    """CSC pattern of a square block matrix from one (rows, cols) pair of
    broadcastable index arrays per block; blocks may overlap (their values
    add), positions within a block may not.  :meth:`matrix` writes data."""

    def __init__(self, size, blocks):
        blocks = [np.broadcast_arrays(np.atleast_1d(r), c) for r, c in blocks]
        rows, cols = (np.concatenate(x) for x in zip(*blocks))
        pattern = sp.csc_matrix((np.ones(len(rows)), (rows, cols)),
                                shape=(size, size))
        self.shape, self.indices = pattern.shape, pattern.indices
        self.indptr = pattern.indptr
        keys = (np.repeat(np.arange(size), np.diff(self.indptr)) * size
                + self.indices)
        self.positions = np.split(
            np.searchsorted(keys, cols * size + rows),
            np.cumsum([len(r) for r, _ in blocks])[:-1])
        # shared by every matrix the pattern writes
        self.indices.setflags(write=False)
        self.indptr.setflags(write=False)

    def matrix(self, *values):
        data = np.zeros(len(self.indices))
        for pos, v in zip(self.positions, values):
            data[pos] += v
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


def operator_block(matrix, row, col):
    """Indices of a canonical CSR matrix at (row, col), in data order."""
    coo = matrix.tocoo()
    return coo.row + row, coo.col + col


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
    return bordered_matrix(grid, d, nonlinearity.f_u(values, mu))


@lru_cache(maxsize=None)
def _bordered_pattern(grid, border):
    n = grid.size
    sites = np.arange(n)
    blocks = [operator_block(lattice.laplacian_matrix(grid), 0, 0),
              (sites, sites)]
    if border:
        blocks += [(sites, n), (n, sites), (n, n)]
    return BlockPattern(n + border, blocks)


def bordered_matrix(grid, d, diag, b=None, c=None, delta=None):
    """CSC matrix d*L + diag(diag) on the grid, bordered by the column b,
    the row c^T and the corner delta unless b is None."""
    dl = d * lattice.laplacian_matrix(grid).data
    if b is None:
        return _bordered_pattern(grid, 0).matrix(dl, diag)
    return _bordered_pattern(grid, 1).matrix(dl, diag, b, c, delta)


def parameter_column(values, grid, nonlinearity, mu, d, parameter):
    """dF/dp for the continuation parameter p, ``"mu"`` or ``"d"``."""
    if parameter == "mu":
        return nonlinearity.f_mu(values, mu) + np.zeros(grid.size)
    return lattice.laplacian_matrix(grid) @ values


def fold_blocks(grid, col, n_params):
    """Blocks of the fold rows [[J, 0, F_p], [diag(f_uu phi), J, (J phi)_p]]
    in the unknowns (u, phi, ...), the parameters from column ``col`` on;
    :func:`fold_values` fills them in the same order."""
    n = grid.size
    lap = lattice.laplacian_matrix(grid)
    sites = np.arange(n)
    blocks = [operator_block(lap, 0, 0), (sites, sites),
              (n + sites, sites), operator_block(lap, n, n),
              (n + sites, n + sites)]
    for k in range(n_params):
        blocks += [(sites, col + k), (n + sites, col + k)]
    return blocks


def fold_values(values, phi, grid, nonlinearity, mu, d, parameters=("mu",)):
    """Values of the :func:`fold_blocks` blocks at (values, phi, mu, d)."""
    lap = lattice.laplacian_matrix(grid)
    dl, fu = d * lap.data, nonlinearity.f_u(values, mu)
    out = [dl, fu, nonlinearity.f_uu(values, mu) * phi, dl, fu]
    for p in parameters:
        out += [parameter_column(values, grid, nonlinearity, mu, d, p),
                nonlinearity.f_umu(values, mu) * phi if p == "mu"
                else lap @ phi]
    return out


@lru_cache(maxsize=None)
def _fold_pattern(grid):
    n = grid.size
    return BlockPattern(2 * n + 1, fold_blocks(grid, 2 * n, 1)
                        + [(2 * n, n + np.arange(n))])


def fold_system(values, phi, c, grid, nonlinearity, mu, d, parameter="mu"):
    """Jacobian in (u, phi, p) of the fold system {F = 0, J phi = 0, <c, phi> = 1}."""
    return _fold_pattern(grid).matrix(
        *fold_values(values, phi, grid, nonlinearity, mu, d, (parameter,)), c)


def lu_solve(matrix, rhs, err=SingularJacobian, factoring=BORDERED_LU):
    """Solve with a sparse LU factorization checked by its backward error.

    ``factoring`` gives the column ordering and pivot threshold.  Unless
    the solution is finite with backward error |Mx - r| / (|M| |x| + |r|)
    (sup-norms) at most ``BACKWARD_ERROR_MAX``, splu's defaults solve again
    and ``err`` is raised on a singular matrix or a non-finite solution.
    """
    matrix = matrix.tocsc()
    ordering, threshold = factoring
    try:
        x = spla.splu(matrix, permc_spec=ordering,
                      diag_pivot_thresh=threshold).solve(rhs)
    except RuntimeError:
        x = None
    if x is not None and np.all(np.isfinite(x)):
        norm = np.bincount(matrix.indices, np.abs(matrix.data),
                           matrix.shape[0]).max()
        if (np.max(np.abs(matrix @ x - rhs)) <= BACKWARD_ERROR_MAX
                * (norm * np.max(np.abs(x)) + np.max(np.abs(rhs)))):
            return x
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:
        raise err(str(exc)) from exc
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise err("linear solve produced non-finite values")
    return x


def bordered_solve(grid, d, diag, rhs, b=None, c=None, delta=None):
    """Solve ``bordered_matrix(grid, d, diag, b, c, delta) x = rhs`` as a
    whole, which stays robust when the Jacobian is (nearly) singular;
    raises :class:`SingularBorderedSystem` (:class:`SingularJacobian`
    without a border) on a singular matrix."""
    return lu_solve(bordered_matrix(grid, d, diag, b, c, delta), rhs,
                    SingularJacobian if b is None else SingularBorderedSystem)


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
        return bordered_solve(grid, d, nonlinearity.f_u(x, mu), -F)

    x, _, it = newton(residual, step,
                      np.asarray(u0.values, dtype=float).copy(),
                      lambda x, F: np.max(np.abs(F)) <= tol, max_iter,
                      halvings=8)
    return Field(grid, x), it


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
