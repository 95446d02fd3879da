"""Steady-state residual F(u, mu, d) = d*Lap(u) + f(u, mu) and linear algebra.

The Jacobian d*L + diag(f_u) inherits the Laplacian's closure: on full
squares it is symmetric; on the wedge it is self-adjoint only in the
orbit-weighted inner product.  :func:`bordered_matrix` writes it on one
cached pattern per grid, L with its diagonal stored.  In natural site order
it is banded, with bandwidths at most twice the grid's half-width.
:class:`BorderedLU` factors it once with LAPACK's banded LU; each
right-hand side then eliminates the one border row and column, refines once
and checks the backward error matrix-free, with :func:`sparse_solve`
(splu's defaults) on the bordered matrix as the oracle it falls back on.
:func:`bordered_solve`, one factorization for one right-hand side, is the
linear solve of every Newton step on F = 0; :func:`fold_step` solves every
step on the fold system with one factorization and four right-hand sides.
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


BACKWARD_ERROR_MAX = 1e-12


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
def _pattern(grid):
    """L in CSC with every diagonal position stored (explicit zeros where
    L has none), and the data index of each diagonal entry."""
    coo = lattice.laplacian_matrix(grid).tocoo()
    sites = np.arange(grid.size)
    pattern = sp.csc_matrix(
        (np.append(coo.data, np.zeros(grid.size)),
         (np.append(coo.row, sites), np.append(coo.col, sites))),
        shape=(grid.size, grid.size))
    cols = np.repeat(sites, np.diff(pattern.indptr))
    # shared by every matrix built on the pattern
    for a in (pattern.data, pattern.indices, pattern.indptr):
        a.setflags(write=False)
    return pattern, np.flatnonzero(pattern.indices == cols)


def bordered_matrix(grid, d, diag, b=None, c=None, delta=None):
    """CSC matrix d*L + diag(diag) on the grid, bordered by the column b,
    the row c^T and the corner delta unless b is None."""
    pattern, diagonal = _pattern(grid)
    data = d * pattern.data
    data[diagonal] += diag
    jac = sp.csc_matrix((data, pattern.indices, pattern.indptr),
                        shape=pattern.shape)
    if b is None:
        return jac
    return sp.bmat([[jac, sp.csc_matrix(b).T],
                    [sp.csc_matrix(c), sp.csc_matrix([[delta]])]],
                   format="csc")


def parameter_column(values, grid, nonlinearity, mu, d, parameter):
    """dF/dp for the continuation parameter p, ``"mu"`` or ``"d"``."""
    if parameter == "mu":
        return nonlinearity.f_mu(values, mu) + np.zeros(grid.size)
    return lattice.laplacian_matrix(grid) @ values


def sparse_solve(matrix, rhs, err=SingularJacobian):
    """Solve a CSC system with splu's defaults; raises ``err`` on a singular
    matrix or a non-finite solution."""
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
    """L in LAPACK band storage, kept transposed: an (n, 2 kl + ku + 1)
    C-ordered array whose transpose is what dgbtrf reads, so entry (i, j)
    of the matrix sits at [j, kl+ku + i-j] and the diagonal is column
    kl+ku."""
    kl: int
    ku: int
    image: np.ndarray       # read-only; d*image is d*L in band storage
    off_abs: np.ndarray     # row sums of |L| off the diagonal


@lru_cache(maxsize=None)
def _band(grid):
    lap = lattice.laplacian_matrix(grid).tocoo()
    rows, cols = (x.astype(np.intp) for x in (lap.row, lap.col))
    kl, ku = (int(np.max(x, initial=0)) for x in (rows - cols, cols - rows))
    image = np.zeros((grid.size, 2 * kl + ku + 1))
    image[cols, kl + ku + rows - cols] = lap.data
    image.setflags(write=False)
    off = rows != cols
    return _Band(kl, ku, image,
                 np.bincount(rows[off], np.abs(lap.data[off]), grid.size))


_stats = contextvars.ContextVar("stats", default=None)


@contextlib.contextmanager
def counting():
    """Count inside the block, as they happen: the bordered solves by path
    and the banded factorizations they share, and the inertia counts of
    :func:`spectral.count_above` by path.  Yields {"bordered_solves":
    {"banded": k, "fallback": m, "factorizations": f}, "inertia":
    {"banded": k, "fallback": m}}."""
    stats = {"bordered_solves": {"banded": 0, "fallback": 0,
                                 "factorizations": 0},
             "inertia": {"banded": 0, "fallback": 0}}
    token = _stats.set(stats)
    try:
        yield stats
    finally:
        _stats.reset(token)


def _count(group, key):
    stats = _stats.get()
    if stats is not None:
        stats[group][key] += 1


class BorderedLU:
    """``bordered_matrix(grid, d, diag, b, c, delta)`` factored once for
    any number of right-hand sides (no border when b is None).

    One dgbtrf of J = d*L + diag(diag), filled from the grid's band image of
    L; with a border, J^-1 b and the Schur complement delta - c^T J^-1 b are
    formed once too.  :meth:`solve` eliminates the border, refines once and
    checks the backward error of the whole system matrix-free; when J is
    exactly singular or the check fails (near a fold block elimination can
    lose accuracy), that right-hand side is solved by splu's defaults
    (:func:`sparse_solve`), which raise :class:`SingularBorderedSystem`
    (:class:`SingularJacobian` without a border) on a singular matrix.
    Factorizations and solves are counted by
    :func:`counting`.
    """

    # non-finite values fail the check and take the oracle, so need no
    # warning
    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def __init__(self, grid, d, diag, b=None, c=None, delta=None):
        self.grid, self.d, self.diag = grid, d, diag
        self.b, self.c, self.delta = b, c, delta
        self.lap, self.band = lattice.laplacian_matrix(grid), _band(grid)
        self.factors = None
        kl, ku = self.band.kl, self.band.ku
        if grid.size == 0:  # only the corner is left; dgbtrf refuses it
            return
        ab = d * self.band.image
        ab[:, kl + ku] += diag
        self.row_abs = abs(d) * self.band.off_abs + np.abs(ab[:, kl + ku])
        lu, piv, info = lapack.dgbtrf(ab.T, kl, ku, overwrite_ab=1)
        _count("bordered_solves", "factorizations")
        if info != 0:
            return
        self.factors = lu, piv
        if b is not None:
            self.w = self._jac_solve(b)
            self.schur = delta - c @ self.w
            self.row_abs = np.append(self.row_abs + np.abs(b),
                                     np.sum(np.abs(c)) + abs(delta))

    def _jac_solve(self, r):
        lu, piv = self.factors
        return lapack.dgbtrs(lu, self.band.kl, self.band.ku, r, piv)[0]

    def _apply(self, x):
        if self.b is None:
            return self.d * (self.lap @ x) + self.diag * x
        v = x[:-1]
        return np.append(self.d * (self.lap @ v) + self.diag * v
                         + self.b * x[-1], self.c @ v + self.delta * x[-1])

    def _banded_solve(self, r):
        if self.b is None:
            return self._jac_solve(r)
        v = self._jac_solve(r[:-1])
        p = (r[-1] - self.c @ v) / self.schur
        return np.append(v - p * self.w, p)

    @np.errstate(divide="ignore", over="ignore", invalid="ignore")
    def _checked_solve(self, rhs):
        """The refined banded answer, or None when it fails
        :func:`_backward_error_ok`."""
        x = self._banded_solve(rhs)
        x = x + self._banded_solve(rhs - self._apply(x))
        return (x if _backward_error_ok(self._apply(x) - rhs, self.row_abs,
                                        x, rhs) else None)

    def solve(self, rhs):
        x = None if self.factors is None else self._checked_solve(rhs)
        _count("bordered_solves", "banded" if x is not None else "fallback")
        if x is not None:
            return x
        return sparse_solve(
            bordered_matrix(self.grid, self.d, self.diag, self.b, self.c,
                            self.delta), rhs,
            SingularJacobian if self.b is None else SingularBorderedSystem)


def bordered_solve(grid, d, diag, rhs, b=None, c=None, delta=None):
    """Solve ``bordered_matrix(grid, d, diag, b, c, delta) x = rhs`` through
    a :class:`BorderedLU` used once."""
    return BorderedLU(grid, d, diag, b, c, delta).solve(rhs)


def fold_step(values, phi, c, grid, nonlinearity, mu, d, parameter, rhs):
    """Newton step of the fold system {F = 0, J phi = 0, <c, phi> = 1}.

    Solves A x = rhs, A = [[J, 0, F_p], [H, J, (J phi)_p], [0, c^T, 0]] in
    the unknowns (u, phi, p), H = diag(f_uu phi), by four solves with one
    :class:`BorderedLU` of B = [[J, F_p], [c^T, 0]], which is nonsingular
    at a nondegenerate fold (Govaerts, *Numerical Methods for Bifurcations
    of Dynamical Equilibria*, SIAM 2000, ch. 3): (a, a_p) solves the F rows,
    (z, z_p) spans the kernel of [J, F_p], and the multiple t of (z, z_p)
    is fixed by asking the phi rows' solutions e_1 + t e_2 to need no F_p
    component.  That component, s_1 + t s_2, has s_2 = 0 exactly where the
    fold system is singular, which raises :class:`SingularBorderedSystem`.
    The solves are backward stable for B, not for A: an answer that fails
    :func:`_backward_error_ok` on A (B much worse conditioned than A) is
    refined once by four more solves on its residual.
    """
    n = grid.size
    diag = nonlinearity.f_u(values, mu)
    f_p = parameter_column(values, grid, nonlinearity, mu, d, parameter)
    lap = lattice.laplacian_matrix(grid)
    jphi_p = (nonlinearity.f_umu(values, mu) * phi if parameter == "mu"
              else lap @ phi)
    h = nonlinearity.f_uu(values, mu) * phi
    lu = BorderedLU(grid, d, diag, f_p, c, 0.0)

    def solve(top, last):
        x = lu.solve(np.append(top, last))
        return x[:n], x[n]

    def step(r):
        a, a_p = solve(r[:n], 0.0)
        z, z_p = solve(np.zeros(n), 1.0)
        e1, s1 = solve(r[n:2 * n] - h * a - jphi_p * a_p, r[-1])
        e2, s2 = solve(-(h * z + jphi_p * z_p), 0.0)
        if s2 == 0:  # bordered_solve returns only finite solutions
            raise SingularBorderedSystem("fold system is singular")
        t = -s1 / s2
        return np.concatenate([a + t * z, e1 + t * e2, [a_p + t * z_p]])

    def residual(x):  # A x - rhs
        v, w, p = x[:n], x[n:2 * n], x[-1]
        return np.concatenate([d * (lap @ v) + diag * v + f_p * p,
                               h * v + d * (lap @ w) + diag * w + jphi_p * p,
                               [c @ w]]) - rhs

    x = step(rhs)
    j_abs = abs(d) * _band(grid).off_abs + np.abs(d * lap.diagonal() + diag)
    row_abs = np.concatenate([j_abs + np.abs(f_p), np.abs(h) + j_abs
                              + np.abs(jphi_p), [np.sum(np.abs(c))]])
    if not _backward_error_ok(residual(x), row_abs, x, rhs):
        x = x - step(residual(x))
    return x


def newton(residual, step, x0, done, max_iter, halvings=0, max_growth=None):
    """Newton iteration x <- x + s dx with F = residual(x), dx = step(x, F).

    ``done(x, F)`` is tested before every step and after the last one.  With
    ``halvings`` > 0 the step length s runs through 1, 1/2, ..., 2**-halvings
    until the residual sup-norm decreases; with 0 every full step is taken.
    Returns ``(x, F, steps)``.  A stall, a failed or non-finite step, a
    residual sup-norm above ``max_growth`` times the starting one (when
    given) and an exhausted cap raise :class:`NoConvergence` with the last
    iterate.
    """
    x, F = x0, residual(x0)
    norm = np.max(np.abs(F))
    bound = np.inf if max_growth is None else max_growth * norm
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
        if trial_norm > bound:
            raise NoConvergence(
                f"residual diverged to {trial_norm:.3e} after {it + 1} steps",
                x, norm)
        x, F, norm = trial, trial_F, trial_norm
    raise NoConvergence(
        f"no convergence in {max_iter} steps, |F|={norm:.3e}", x, norm)


def newton_solve(u0, nonlinearity, mu, d, tol=1e-10):
    """Damped Newton iteration for F(u, mu, d) = 0, at most 50 steps.

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
                      lambda x, F: np.max(np.abs(F)) <= tol, 50, halvings=8)
    return Field(grid, x), it


def continue_in_coupling(u0, nonlinearity, mu, d_target):
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
            u_new, _ = newton_solve(u, nonlinearity, mu, d_try)
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
