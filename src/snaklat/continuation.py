"""Pseudo-arclength continuation, fold refinement, branch switching, isolas.

Branches are continued with a secant predictor (the first tangent comes from
a small natural-parameter step) and a Newton corrector constrained to the
hyperplane orthogonal to the tangent.  The step length adapts: it halves on
corrector failure and grows after quick convergence.  Folds are flagged by a
sign change of the tangent's parameter component and refined by Newton on
the augmented system {F = 0, J phi = 0, <c, phi> = 1}.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import lattice, solver, spectral
from .lattice import Field


class CorrectorStalled(solver.SolverError):
    pass


class RefinementFailed(solver.SolverError):
    pass


class MissedEvent(solver.SolverError):
    pass


NoConvergence = solver.NoConvergence

START = "start"
END = "end"
FOLD = "fold"


# step-length adaptation: grow by GROW after at most FAST_ITERS corrector
# steps, halve after SLOW_ITERS or more
GROW = 1.3
FAST_ITERS = 3
SLOW_ITERS = 7
CORRECTOR_TOL = 1e-10
MAX_CORRECTOR_ITERS = 10
# first step length
H_INIT = 1e-3
# smallest step length; a branch whose step falls below it ends
H_MIN = 1e-7
# a closed loop returns to its start with the tangent aligned to this, after
# at least CLOSURE_MIN_POINTS points
CLOSURE_ALIGN = 0.99
CLOSURE_MIN_POINTS = 12
# corrector acceptance: reject points that strayed from the predictor (by
# more than this times h) or reversed direction (tangent alignment below
# this); both signal a jump onto a different branch
MAX_PREDICTOR_DISTANCE = 0.5
MIN_TANGENT_ALIGN = -0.2
# fold refinement: Newton on the fold system stops at |F| <= FOLD_TOL_RES
# and |J phi| <= FOLD_TOL_NULL |phi|, backtracking steps to 2**-FOLD_HALVINGS
FOLD_TOL_RES = 1e-10
FOLD_TOL_NULL = 1e-8
FOLD_MAX_ITERS = 40
FOLD_HALVINGS = 6
# a branch-switching attempt stops once its residual sup-norm exceeds this
# multiple of its starting one; attempts that converge rise by at most 223x
SWITCH_MAX_GROWTH = 1e6


@dataclass
class StepConfig:
    h_max: float = 0.05
    max_points: int = 2000
    detect_closure: bool = False
    stop_after_folds: int | None = None
    points_after_fold: int = 6
    stop_condition: object | None = None  # callable BranchPoint -> bool
    # (p_lo, p_hi, h_cap) triples: inside these parameter bands the step is
    # capped, resolving fold structures whose scale is known in advance
    refine_bands: tuple = ()


@dataclass
class BranchPoint:
    u: Field
    mu: float
    d: float
    norm: float = 0.0
    unstable_count: int | None = None
    tangent: np.ndarray | None = None

    def parameter_value(self, parameter):
        return getattr(self, parameter)


@dataclass
class FoldPoint:
    u: Field
    mu: float
    d: float
    phi: Field
    refined: bool = True
    parameter: str = "mu"


@dataclass
class Branch:
    points: list = field(default_factory=list)
    events: list = field(default_factory=list)  # (index, kind)
    closed: bool = False
    parameter: str = "mu"

    def fold_indices(self):
        return [i for i, kind in self.events if kind == FOLD]


def state_norm(u):
    """l2 norm of the unfolded full-square field (the diagram ordinate)."""
    w = lattice.orbit_weights(u.grid)
    return float(np.sqrt(np.sum(w * u.values**2)))


def _pair(parameter, p, fixed):
    """(mu, d) from the continued parameter p and the fixed one.

    The map only orders its arguments, so it also takes (mu, d) to
    (p, fixed).
    """
    return (p, fixed) if parameter == "mu" else (fixed, p)


def _make_point(values, grid, mu, d, tangent=None):
    u = Field(grid, values.copy())
    return BranchPoint(u=u, mu=float(mu), d=float(d), norm=state_norm(u),
                       tangent=tangent)


def _pinned_newton(x0, anchor, border, offset, grid, nonlinearity,
                   parameter, fixed, tol, max_iter, max_growth=None):
    """Full-step Newton on {F(u, p) = 0, <border, x - anchor> = offset}.

    The unknown is x = (u, p).  Stops when |F| <= tol and the constraint
    holds to 1e-12 max(1, |p|); returns (x, steps) or raises
    :class:`NoConvergence`, also once the residual exceeds ``max_growth``
    times its start (see :func:`solver.newton`).
    """
    def residual(x):
        mu, d = _pair(parameter, x[-1], fixed)
        cons = (border[:-1] @ (x[:-1] - anchor[:-1])
                + border[-1] * (x[-1] - anchor[-1]) - offset)
        return np.append(
            solver.residual_values(x[:-1], grid, nonlinearity, mu, d), cons)

    def step(x, F):
        mu, d = _pair(parameter, x[-1], fixed)
        return solver.bordered_solve(
            grid, d, nonlinearity.f_u(x[:-1], mu), -F,
            solver.parameter_column(x[:-1], grid, nonlinearity, mu, d,
                                    parameter), border[:-1], border[-1])

    def done(x, F):
        return (np.max(np.abs(F[:-1])) <= tol
                and abs(F[-1]) <= 1e-12 * max(1.0, abs(x[-1])))

    x, _, steps = solver.newton(residual, step, x0, done, max_iter,
                                max_growth=max_growth)
    return x, steps


def continue_branch(u0, nonlinearity, mu, d, parameter="mu",
                    config=None, direction=1.0, p_bounds=None):
    """Trace a solution branch in mu (fixed d) or d (fixed mu).

    ``u0`` must satisfy the residual tolerance at (mu, d); ``direction``
    selects the initial parameter orientation.  Returns a :class:`Branch`
    whose points all satisfy the corrector tolerance; a corrector stall ends
    the branch with an End event rather than raising.  Arclength is measured
    in the full-square norm of the state, except on the wedge, whose step
    bands are tuned to its unweighted norm.
    """
    cfg = config or StepConfig()
    grid = u0.grid
    p0, fixed = _pair(parameter, mu, d)
    if p_bounds is None:
        p_bounds = (-np.inf, np.inf)
    metric = np.append(np.ones(grid.size) if grid.group == lattice.D4
                       else lattice.orbit_weights(grid), 1.0)

    def norm(v):
        return np.sqrt(v.dot(metric * v))

    vals0 = np.asarray(u0.values, dtype=float)
    res0 = solver.residual_values(vals0, grid, nonlinearity, mu, d)
    if np.max(np.abs(res0)) > CORRECTOR_TOL:
        start_field, _ = solver.newton_solve(u0, nonlinearity, mu, d,
                                             tol=CORRECTOR_TOL)
        vals0 = start_field.values

    # first tangent from a small natural-parameter step
    dp = direction * H_INIT
    nat = None
    for _ in range(12):
        mu_t, d_t = _pair(parameter, p0 + dp, fixed)
        try:
            nat, _ = solver.newton_solve(Field(grid, vals0), nonlinearity,
                                         mu_t, d_t, tol=CORRECTOR_TOL)
            break
        except solver.SolverError:
            dp *= 0.5
    if nat is None:
        raise CorrectorStalled("could not take the initial natural step")
    t = np.concatenate([nat.values - vals0, [dp]])
    t /= norm(t)

    branch = Branch(parameter=parameter)
    branch.events.append((0, START))
    branch.points.append(_make_point(vals0, grid, mu, d, tangent=t))

    h = H_INIT
    folds_seen = 0
    last_fold_index = None
    x = x0 = np.concatenate([vals0, [p0]])
    t0 = t.copy()

    while len(branch.points) < cfg.max_points:
        p = x[-1]
        h_eff = h
        for lo, hi, cap in cfg.refine_bands:
            if lo <= p <= hi or lo <= p + h * t[-1] <= hi:
                h_eff = min(h_eff, cap)
        predicted = x + h_eff * t
        try:
            # corrector: Newton pinned to the hyperplane through the
            # predicted point orthogonal to the tangent in the metric
            x_new, iters = _pinned_newton(
                predicted, predicted, metric * t, 0.0, grid, nonlinearity,
                parameter, fixed, CORRECTOR_TOL, MAX_CORRECTOR_ITERS)
        except solver.SolverError:
            h = 0.5 * h_eff
            if h < H_MIN:
                branch.events.append((len(branch.points) - 1, END))
                return branch
            continue

        secant = x_new - x
        step_len = norm(secant)
        if step_len < H_MIN:
            branch.events.append((len(branch.points) - 1, END))
            return branch
        strayed = (norm(x_new - predicted)
                   > MAX_PREDICTOR_DISTANCE * h_eff + 10 * H_MIN)
        reversed_ = (secant / step_len) @ (metric * t) < MIN_TANGENT_ALIGN
        if strayed or reversed_:
            h = 0.5 * h_eff
            if h < H_MIN:
                branch.events.append((len(branch.points) - 1, END))
                return branch
            continue
        t_new = secant / step_len
        new_p = x_new[-1]
        mu_new, d_new = _pair(parameter, new_p, fixed)
        point = _make_point(x_new[:-1], grid, mu_new, d_new, tangent=t_new)
        branch.points.append(point)
        idx = len(branch.points) - 1

        if t[-1] * t_new[-1] < 0:
            branch.events.append((idx, FOLD))
            folds_seen += 1
            last_fold_index = idx

        if iters <= FAST_ITERS:
            h = min(h * GROW, cfg.h_max)
        elif iters >= SLOW_ITERS:
            h = max(0.5 * h_eff, H_MIN)

        x, t = x_new, t_new

        if cfg.detect_closure and idx >= CLOSURE_MIN_POINTS:
            if (norm(x_new - x0) <= 2 * max(h, step_len)
                    and t_new @ (metric * t0) > CLOSURE_ALIGN):
                branch.closed = True
                first = branch.points[0]
                branch.points.append(_make_point(first.u.values, grid,
                                                 first.mu, first.d,
                                                 tangent=t0.copy()))
                branch.events.append((len(branch.points) - 1, END))
                return branch

        if not (p_bounds[0] <= new_p <= p_bounds[1]):
            branch.events.append((idx, END))
            return branch
        if (cfg.stop_after_folds is not None
                and folds_seen >= cfg.stop_after_folds
                and idx - last_fold_index >= cfg.points_after_fold):
            branch.events.append((idx, END))
            return branch
        if cfg.stop_condition is not None and cfg.stop_condition(point):
            branch.events.append((idx, END))
            return branch

    branch.events.append((len(branch.points) - 1, END))
    return branch


# ---------------------------------------------------------------------------
# fold refinement


def refine_fold(point_a, point_b, nonlinearity, parameter="mu", *, margin):
    """Newton on the fold system {F = 0, J phi = 0, <c, phi> = 1} between two
    bracketing points.

    Unknowns are (u, phi, p) at the other parameter fixed; the initial null
    vector comes from the branch tangent and is also c.  Each step is
    :func:`solver.fold_step`, four checked banded bordered solves, and is
    backtracked (lengths 1 ... 2^-FOLD_HALVINGS), which keeps the
    ill-conditioned degenerate folds in check.  ``margin`` bounds how far
    beyond the bracket parameter values the refined fold may sit (the fold
    lies up to one arclength step past them); the iteration stops as soon
    as p leaves that range.  Returns a refined :class:`FoldPoint` or raises
    :class:`RefinementFailed`.
    """
    grid = point_a.u.grid
    n = grid.size
    lap = lattice.laplacian_matrix(grid)
    seed = point_b if abs(point_b.tangent[-1]) < abs(point_a.tangent[-1]) \
        else point_a
    p, fixed = _pair(parameter, seed.mu, seed.d)
    c = seed.tangent[:-1].copy()
    norm_c = np.linalg.norm(c)
    if norm_c < 1e-12:
        raise RefinementFailed("degenerate tangent at fold candidate")
    c /= norm_c

    pa = point_a.parameter_value(parameter)
    pb = point_b.parameter_value(parameter)
    p_lo, p_hi = min(pa, pb) - margin, max(pa, pb) + margin

    def residual(x):
        mu, d = _pair(parameter, x[-1], fixed)
        u, phi = x[:n], x[n:2 * n]
        return np.concatenate([
            solver.residual_values(u, grid, nonlinearity, mu, d),
            d * (lap @ phi) + nonlinearity.f_u(u, mu) * phi,
            [c @ phi - 1.0]])

    def step(x, F):
        mu, d = _pair(parameter, x[-1], fixed)
        return solver.fold_step(x[:n], x[n:2 * n], c, grid, nonlinearity,
                                mu, d, parameter, -F)

    def done(x, F):
        return (not p_lo <= x[-1] <= p_hi
                or (np.max(np.abs(F[:n])) <= FOLD_TOL_RES
                    and np.max(np.abs(F[n:2 * n]))
                    <= FOLD_TOL_NULL * np.linalg.norm(x[n:2 * n])))

    try:
        x, _, _ = solver.newton(residual, step,
                                np.concatenate([seed.u.values, c, [p]]),
                                done, FOLD_MAX_ITERS, FOLD_HALVINGS)
    except NoConvergence as exc:
        raise RefinementFailed(f"fold refinement failed: {exc}") from exc
    p = x[-1]
    if not p_lo <= p <= p_hi:
        raise RefinementFailed(f"fold refinement left the bracket: p={p}")
    mu, d = _pair(parameter, p, fixed)
    phi = x[n:2 * n]
    return FoldPoint(u=Field(grid, x[:n]), mu=float(mu), d=float(d),
                     phi=Field(grid, phi / np.linalg.norm(phi)),
                     parameter=parameter)


def detect_and_refine_folds(branch, nonlinearity):
    """Refine every fold event on a branch; failures are flagged, not fatal."""
    if len(branch.points) < 3:
        raise ValueError("need at least 3 branch points to refine folds")
    out = []
    for idx in branch.fold_indices():
        a = branch.points[max(idx - 1, 0)]
        b = branch.points[idx]
        # the fold sits within a couple of arclength steps of the bracket;
        # adaptive stepping can make the final step tiny, so measure the
        # local step scale over a wider stencil
        lo = max(idx - 3, 0)
        hi = min(idx + 2, len(branch.points))
        margin = 1e-8
        for j in range(lo, hi - 1):
            pa, pb = branch.points[j], branch.points[j + 1]
            margin = max(margin, 2.0 * (
                np.linalg.norm(pb.u.values - pa.u.values)
                + abs(pb.parameter_value(branch.parameter)
                      - pa.parameter_value(branch.parameter))))
        try:
            out.append(refine_fold(a, b, nonlinearity,
                                   parameter=branch.parameter,
                                   margin=margin))
            continue
        except RefinementFailed:
            pass
        out.append(FoldPoint(u=b.u.copy(), mu=b.mu, d=b.d,
                             phi=Field(b.u.grid, b.tangent[:-1] /
                                       np.linalg.norm(b.tangent[:-1])),
                             refined=False, parameter=branch.parameter))
    return out


# ---------------------------------------------------------------------------
# branch switching


def asymmetry(u):
    """Distance of a field, unfolded to the full square, from its D4
    average."""
    full = lattice.unfold(u)
    return float(np.linalg.norm(full.values - spectral.isotypic_projection(
        full.values, full.grid, "trivial")))


def switch_branch(fold, psi, nonlinearity, eps=None, mu_offsets=(0.0,)):
    """Step off a fold along a critical direction, on the grid of ``psi``.

    ``psi`` is a near-null eigenvector on the full square, or folded onto
    the orbit space of a subgroup that fixes it.  The corrected point solves
    {F(u, mu) = 0, <psi, u - u_fold> = eps} with mu free and psi of unit
    norm, both in the orbit-weighted (the full-square) inner product, which
    parametrizes the bifurcating branch by its asymmetric amplitude.  On
    failure eps is halved up to 4 times; when the crossing
    mode is degenerate exactly at the fold (two-dimensional representation
    planes), starting from a slightly offset mu regularizes the pinned
    system, so ``mu_offsets`` are tried in order.  An attempt whose
    residual grows past SWITCH_MAX_GROWTH times its start is abandoned as
    diverging.
    """
    grid = psi.grid
    base = lattice.fold(lattice.unfold(fold.u), grid).values
    w = lattice.orbit_weights(grid)
    psi_v = np.asarray(psi.values, dtype=float)
    psi_v = psi_v / np.sqrt(psi_v @ (w * psi_v))
    if eps is None:
        eps = 1e-2 * max(1.0, float(np.max(np.abs(base))))
    if eps == 0.0:
        return BranchPoint(u=Field(grid, base.copy()), mu=fold.mu, d=fold.d,
                           norm=state_norm(Field(grid, base)))

    anchor = np.append(base, fold.mu)
    border = np.append(w * psi_v, 0.0)
    for _ in range(5):
        for mu_off in mu_offsets:
            x0 = np.append(base + eps * psi_v, fold.mu + mu_off)
            try:
                x, _ = _pinned_newton(x0, anchor, border, eps, grid,
                                      nonlinearity, "mu", fold.d,
                                      CORRECTOR_TOL, 40, SWITCH_MAX_GROWTH)
            except NoConvergence:
                continue
            u = Field(grid, x[:-1])
            return BranchPoint(u=u, mu=x[-1], d=fold.d, norm=state_norm(u))
        eps *= 0.5
    raise NoConvergence("branch switching failed for all retried amplitudes")


# ---------------------------------------------------------------------------
# stability tagging and I/O


def tag_stability(branch, nonlinearity):
    """Attach unstable counts to every point; changes require a fold event.

    The crossing eigenvalues pass the origin staggered around each fold, so
    count changes are allowed within 5 points of an event; elsewhere a
    change raises :class:`MissedEvent`.
    """
    near_event = set()
    for i, kind in branch.events:
        if kind == START:
            continue
        near_event.update(range(i - 5, i + 6))
    prev = None
    for i, pt in enumerate(branch.points):
        u_full = lattice.unfold(pt.u)
        diag = nonlinearity.f_u(u_full.values, pt.mu)
        pt.unstable_count = spectral.count_above(
            u_full.grid, pt.d, diag, spectral.zero_band(diag, pt.d))
        if (prev is not None and pt.unstable_count != prev
                and i not in near_event):
            raise MissedEvent(
                f"unstable count changed {prev} -> {pt.unstable_count} at "
                f"point {i} without an event"
            )
        prev = pt.unstable_count
    return branch


def save_branch_csv(branch, path):
    events = {}
    for i, kind in branch.events:
        events.setdefault(i, []).append(kind)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "mu", "d", "norm", "n_unstable", "event"])
        for i, pt in enumerate(branch.points):
            writer.writerow([
                i, repr(float(pt.mu)), repr(float(pt.d)),
                repr(float(pt.norm)),
                "" if pt.unstable_count is None else pt.unstable_count,
                "+".join(events.get(i, [])),
            ])


def save_event_profiles(branch, directory):
    """Profile snapshots at event indices, keyed by branch index."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for i, _ in branch.events:
        path = os.path.join(directory, f"profile_{i:05d}.json")
        lattice.save_profile(branch.points[i].u, path)
        written.append(path)
    return written
