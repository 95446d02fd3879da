"""Steady-state residual F(u, mu, d) = d*Lap(u) + f(u, mu) and linear algebra.

The Jacobian d*L + diag(f_u) inherits the Laplacian's closure: on full
squares it is symmetric; on the wedge it is self-adjoint only in the
orbit-weighted inner product.  In natural site order it is banded, with
bandwidths at most twice the grid's half-width.  :func:`bordered_solve`,
the linear solve of every Newton step on F = 0, factors it with LAPACK's
banded LU, eliminates the one border row and column by block elimination,
refines once and checks the backward error matrix-free; splu's defaults
are the oracle it falls back on.  The fold and cusp systems have a fixed
:class:`BlockPattern`, built once per grid (a step writes only its data),
and :func:`lu_solve` factors them in a fixed column ordering with
threshold pivoting, checked the same way against the same oracle.
"""

from __future__ import annotations

import contextlib
import contextvars
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

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


# (column ordering, pivot threshold) of the checked fast sparse LU of the
# fold and cusp systems.
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


def lu_solve(matrix, rhs, err=SingularJacobian):
    """Solve with a sparse LU factorization checked by its backward error.

    The matrix is factored in the ``FOLD_LU`` column ordering and pivot
    threshold.  Unless the solution is finite with backward error
    |Mx - r| / (|M| |x| + |r|) (sup-norms) at most ``BACKWARD_ERROR_MAX``,
    splu's defaults solve again (:func:`_oracle_solve`) and ``err`` is
    raised on a singular matrix or a non-finite solution.
    """
    matrix = matrix.tocsc()
    ordering, threshold = FOLD_LU
    try:
        x = spla.splu(matrix, permc_spec=ordering,
                      diag_pivot_thresh=threshold).solve(rhs)
    except RuntimeError:
        x = None
    if x is not None and _backward_error_ok(
            matrix @ x - rhs, np.bincount(matrix.indices, np.abs(matrix.data),
                                          matrix.shape[0]), x, rhs):
        return x
    return _oracle_solve(matrix, rhs, err)


def _oracle_solve(matrix, rhs, err):
    """Solve with splu's defaults; raises ``err`` on a singular matrix or a
    non-finite solution."""
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:
        raise err(str(exc)) from exc
    x = lu.solve(rhs)
    if not np.all(np.isfinite(x)):
        raise err("linear solve produced non-finite values")
    return x


def _backward_error_ok(residual, row_abs, x, rhs):
    """Whether x is finite with |residual| <= BACKWARD_ERROR_MAX (|M| |x| +
    |rhs|) in sup-norms, |M| the largest of the row-abs sums ``row_abs``."""
    return bool(np.all(np.isfinite(x)) and np.max(np.abs(residual))
                <= BACKWARD_ERROR_MAX * (np.max(row_abs) * np.max(np.abs(x))
                                         + np.max(np.abs(rhs))))


class _Band(NamedTuple):
    """Where d*L + diag lands in LAPACK band storage, kept transposed: an
    (n, 2 kl + ku + 1) C-ordered array whose transpose is what dgbtrf reads,
    so entry (i, j) of the matrix sits at flat index j*width + kl+ku + i-j."""
    kl: int
    ku: int
    width: int
    data: np.ndarray        # flat index of each entry of the Laplacian's data
    diag: np.ndarray        # flat index of each diagonal entry
    lap_diag: np.ndarray    # diagonal of L
    off_abs: np.ndarray     # row sums of |L| off the diagonal


@lru_cache(maxsize=None)
def _band(grid):
    lap = lattice.laplacian_matrix(grid)
    rows, cols = (x.astype(np.intp) for x in operator_block(lap, 0, 0))
    kl, ku = (int(np.max(x, initial=0)) for x in (rows - cols, cols - rows))
    width = 2 * kl + ku + 1
    sites = np.arange(grid.size)
    off = rows != cols
    return _Band(kl, ku, width, cols * width + kl + ku + rows - cols,
                 sites * width + kl + ku, lap.diagonal(),
                 np.bincount(rows[off], np.abs(lap.data[off]), grid.size))


# non-finite values fail the check and take the oracle, so need no warning
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _banded_solve(grid, d, diag, rhs, b, c, delta):
    """Block elimination on the banded LU of J = d*L + diag(diag) with one
    step of iterative refinement; None unless dgbtrf finds no zero pivot and
    the answer passes the backward-error check of :func:`lu_solve`."""
    lap, band, n = lattice.laplacian_matrix(grid), _band(grid), grid.size
    if n == 0:  # an empty grid leaves only the corner, which dgbtrf refuses
        return None
    ab = np.zeros((n, band.width))
    flat = ab.reshape(-1)
    flat[band.data] = d * lap.data
    flat[band.diag] += diag
    lu, piv, info = lapack.dgbtrf(ab.T, band.kl, band.ku, overwrite_ab=1)
    if info != 0:
        return None

    def jac_apply(x):
        return d * (lap @ x) + diag * x

    def jac_solve(r):
        return lapack.dgbtrs(lu, band.kl, band.ku, r, piv)[0]

    row_abs = abs(d) * band.off_abs + np.abs(d * band.lap_diag + diag)
    if b is None:
        apply, solve = jac_apply, jac_solve
        x = jac_solve(rhs)
    else:
        # J [v, w] = [r, b] in one call; w serves the refinement too
        v, w = jac_solve(np.array([rhs[:n], b]).T).T
        schur = delta - c @ w

        def eliminate(r, v):
            p = (r[n] - c @ v) / schur
            return np.append(v - p * w, p)

        def apply(x):
            return np.append(jac_apply(x[:n]) + b * x[n],
                             c @ x[:n] + delta * x[n])

        def solve(r):
            return eliminate(r, jac_solve(r[:n]))

        x = eliminate(rhs, v)
        row_abs = np.append(row_abs + np.abs(b),
                            np.sum(np.abs(c)) + abs(delta))
    x = x + solve(rhs - apply(x))
    return x if _backward_error_ok(apply(x) - rhs, row_abs, x, rhs) else None


_solve_counts = contextvars.ContextVar("bordered_solve_counts", default=None)


@contextlib.contextmanager
def counting_bordered_solves():
    """Count the :func:`bordered_solve` calls inside the block by path: a
    dict {"banded": k, "fallback": m}, filled in as they happen."""
    counts = {"banded": 0, "fallback": 0}
    token = _solve_counts.set(counts)
    try:
        yield counts
    finally:
        _solve_counts.reset(token)


def bordered_solve(grid, d, diag, rhs, b=None, c=None, delta=None):
    """Solve ``bordered_matrix(grid, d, diag, b, c, delta) x = rhs``.

    Block elimination on the banded LU of the Jacobian, refined once and
    checked by the backward error of the whole bordered system; when the
    Jacobian is exactly singular or the check fails (near a fold block
    elimination can lose accuracy), the assembled matrix is solved by
    splu's defaults (:func:`_oracle_solve`), which raise
    :class:`SingularBorderedSystem` (:class:`SingularJacobian` without a
    border) on a singular matrix.  Counted by
    :func:`counting_bordered_solves`.
    """
    x = _banded_solve(grid, d, diag, rhs, b, c, delta)
    counts = _solve_counts.get()
    if counts is not None:
        counts["banded" if x is not None else "fallback"] += 1
    if x is not None:
        return x
    return _oracle_solve(bordered_matrix(grid, d, diag, b, c, delta), rhs,
                        SingularJacobian if b is None
                        else SingularBorderedSystem)


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
