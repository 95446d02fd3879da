"""Cusp (switchback) finder: points where the Jacobian has a 2D null space.

At an isola-branch collision two folds meet at the same solution, and the
two null vectors lie in different D4 isotypic components: one in the
symmetric (wedge) component, one in a sign representation.  Restricting
each null-vector equation to its component makes the extended system square
in (u, phi1, phi2, mu, d).  Sign-component fields live on the orbit-space
grid (D4, sign_k): the wedge sites not fixed by any character-negative
mirror, with the folded Laplacian twisted by the character.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import continuation, lattice, solver, spectral, studies
from .lattice import Field

SIGN_REPS = ("sign1", "sign2", "sign3")

NoConvergence = solver.NoConvergence


class WrongNullity(solver.SolverError):
    pass


def component(grid, rep):
    """The ``rep`` component of a wedge grid, (D4, rep), and the wedge
    index of each of its sites."""
    comp = replace(grid, rep=rep)
    return comp, np.searchsorted(lattice.site_indices(grid),
                                 lattice.site_indices(comp))


def component_jacobian(values, grid, nonlinearity, mu, d, rep):
    """Jacobian restricted to the component of a one-dimensional
    representation (``trivial`` gives the wedge Jacobian)."""
    comp, act = component(grid, rep)
    diag = sp.diags(nonlinearity.f_u(values[act], mu))
    return (d * lattice.laplacian_matrix(comp) + diag).tocsr(), act


def smallest_component_eig(values, grid, nonlinearity, mu, d, rep):
    """Eigenpair of the rep-component Jacobian nearest zero, with the vector
    on the active sites in wedge (action) coordinates."""
    jac, act = component_jacobian(values, grid, nonlinearity, mu, d, rep)
    w = lattice.orbit_weights(replace(grid, rep=rep))
    vals, vecs = spectral.eigenpairs_near_zero(lattice.symmetric_form(jac, w))
    return float(vals[0]), vecs[0] / np.sqrt(w), act


@dataclass
class CuspPoint:
    u: Field
    mu: float
    d: float
    phi1: Field             # symmetric null vector, full square, unit norm
    phi2: Field             # sign-component null vector, full square
    rep: str
    residual_inf: float
    null_residuals: tuple
    label: tuple | None = None


def find_cusp(u0, mu0, d0, nonlinearity, rep, phi1=None, phi2=None,
              tol=1e-9, null_tol=1e-7, max_iters=60, max_param_move=0.3,
              stall_accept=None, d_min=1e-3):
    """Newton on the extended system for a two-dimensional null space.

    Unknowns (u, phi1, phi2, mu, d) with phi1 in the symmetric component and
    phi2 in the ``rep`` component; the two norm conditions close the square
    system (orthogonality is automatic across components).  Steps are
    backtracked (lengths 1 ... 2^-7) and confined to a trust region in
    (mu, d).

    The two colliding null directions interact weakly through the lattice,
    so the second null residual bottoms out at a small but nonzero floor
    (the avoided-crossing gap).  When ``stall_accept`` is set, an iteration
    that stops short of ``tol`` (stalled, singular or out of steps) with
    residual below it is accepted as the collision point and the floor is
    recorded in ``null_residuals``.
    """
    grid = u0.grid
    n = grid.size
    grid2, act = component(grid, rep)
    lap2 = lattice.laplacian_matrix(grid2)
    n2 = len(act)

    vals = u0.values.copy()
    mu, d = float(mu0), float(d0)
    if phi1 is None:
        _, phi1, _ = smallest_component_eig(vals, grid, nonlinearity, mu, d,
                                            "trivial")
    phi1 = np.asarray(phi1, dtype=float).copy()
    phi1 /= np.linalg.norm(phi1)
    if phi2 is None:
        _, phi2, _ = smallest_component_eig(vals, grid, nonlinearity, mu, d,
                                            rep)
    phi2 = np.asarray(phi2, dtype=float).copy()
    phi2 /= np.linalg.norm(phi2)

    def unpack(zv):
        return (zv[:n], zv[n:2 * n], zv[2 * n:2 * n + n2],
                float(zv[-2]), float(zv[-1]))

    lap = lattice.laplacian_matrix(grid)
    sites, comp = np.arange(n), 2 * n + np.arange(n2)
    cm = 2 * n + n2
    # rows F, J phi1, J2 phi2 and the two norms; phi2 enters neither of
    # the first two, whose blocks are [[J, 0, F_mu, F_d],
    # [diag(f_uu phi1), J, (J phi1)_mu, (J phi1)_d]]
    pattern = solver.BlockPattern(cm + 2, [
        solver.operator_block(lap, 0, 0), (sites, sites), (n + sites, sites),
        solver.operator_block(lap, n, n), (n + sites, n + sites),
        (sites, cm), (n + sites, cm), (sites, cm + 1), (n + sites, cm + 1),
        (comp, act), solver.operator_block(lap2, 2 * n, 2 * n),
        (comp, comp), (comp, cm), (comp, cm + 1),
        (cm, n + sites), (cm + 1, comp)])

    def residual(z):
        u_, p1, p2, mu_, d_ = unpack(z)
        return np.concatenate([
            solver.residual_values(u_, grid, nonlinearity, mu_, d_),
            d_ * (lap @ p1) + nonlinearity.f_u(u_, mu_) * p1,
            d_ * (lap2 @ p2) + nonlinearity.f_u(u_[act], mu_) * p2,
            [p1 @ p1 - 1.0, p2 @ p2 - 1.0],
        ])

    def step(z, F):
        u_, p1, p2, mu_, d_ = unpack(z)
        dl, fu = d_ * lap.data, nonlinearity.f_u(u_, mu_)
        matrix = pattern.matrix(
            dl, fu, nonlinearity.f_uu(u_, mu_) * p1, dl, fu,
            nonlinearity.f_mu(u_, mu_), nonlinearity.f_umu(u_, mu_) * p1,
            lap @ u_, lap @ p1,
            nonlinearity.f_uu(u_, mu_)[act] * p2, d_ * lap2.data,
            nonlinearity.f_u(u_[act], mu_),
            nonlinearity.f_umu(u_[act], mu_) * p2, lap2 @ p2, 2 * p1, 2 * p2)
        return solver.sparse_solve(matrix, -F)

    def left_trust_region(z):
        # d -> 0 is the decoupled line, where every single-cell root
        # degeneracy masquerades as a collision
        return (abs(z[-2] - mu0) > max_param_move
                or abs(z[-1] - d0) > max_param_move or z[-1] < d_min)

    def done(z, F):
        return left_trust_region(z) or np.max(np.abs(F)) <= tol

    stalled = False
    try:
        z, F, _ = solver.newton(residual, step,
                                np.concatenate([vals, phi1, phi2, [mu, d]]),
                                done, max_iters, halvings=7)
        fnorm = np.max(np.abs(F))
    except NoConvergence as exc:
        if stall_accept is None or exc.norm > stall_accept:
            raise
        z, fnorm, stalled = exc.x, exc.norm, True
    if left_trust_region(z):
        raise NoConvergence("cusp iteration left the trust region")

    u_, p1, p2, mu_, d_ = unpack(z)
    p1 = p1 / np.linalg.norm(p1)
    p2 = p2 / np.linalg.norm(p2)
    if stalled:
        # the avoided-crossing floor lives in the second null residual; put
        # the point exactly back on the fold curve at the stalled coupling
        u_, p1, mu_ = _fold_polish(u_, p1, mu_, d_, grid, nonlinearity)
        _, vec2, _ = smallest_component_eig(u_, grid, nonlinearity, mu_,
                                            d_, rep)
        p2 = vec2 / np.linalg.norm(vec2)
    j1 = solver.jacobian_matrix(u_, grid, nonlinearity, mu_, d_)
    j2, _ = component_jacobian(u_, grid, nonlinearity, mu_, d_, rep)
    null1 = float(np.max(np.abs(j1 @ p1)))
    null2 = float(np.max(np.abs(j2 @ p2)))
    effective_null_tol = max(null_tol, 3 * fnorm) if stalled else null_tol
    if max(null1, null2) > effective_null_tol:
        raise NoConvergence(
            f"null-vector residuals {null1:.2e}, {null2:.2e} above tolerance"
        )

    wedge_u = Field(grid, u_)
    n_triv, n_rep = component_nullities(wedge_u, nonlinearity, mu_, d_, rep,
                                        tol=max(1e-6, 30 * fnorm))
    if (n_triv, n_rep) != (1, 1):
        raise WrongNullity(
            f"converged point has component nullities (trivial={n_triv}, "
            f"{rep}={n_rep}), not (1, 1)"
        )

    phi1_full = lattice.unfold(Field(grid, p1 / np.linalg.norm(p1)))
    phi1_full.values /= np.linalg.norm(phi1_full.values)
    phi2_full = lattice.unfold(Field(grid2, p2))
    phi2_full.values /= np.linalg.norm(phi2_full.values)
    return CuspPoint(u=wedge_u, mu=mu_, d=d_, phi1=phi1_full,
                     phi2=phi2_full, rep=rep, residual_inf=fnorm,
                     null_residuals=(null1, null2))


def _fold_polish(vals, phi, mu, d, grid, nonlinearity):
    """Full-step Newton on the fold system at fixed d (25 steps at most).

    Stops silently on failure and returns the last iterate.
    """
    try:
        vals, phi, mu = continuation.fold_newton(
            vals, phi, mu, d, phi / (phi @ phi), grid, nonlinearity,
            tol_res=1e-11, tol_null=1e-9, max_iter=25, halvings=0)
    except NoConvergence as exc:
        n = grid.size
        vals, phi, mu = exc.x[:n], exc.x[n:2 * n], exc.x[-1]
    return vals, phi / np.linalg.norm(phi), mu


def component_nullities(u_wedge, nonlinearity, mu, d, rep, tol=1e-6):
    """Near-zero eigenvalue counts of the trivial- and rep-component
    Jacobians (inertia of the shifted symmetric forms)."""
    grid = u_wedge.grid
    j_rep, _ = component_jacobian(u_wedge.values, grid, nonlinearity, mu,
                                  d, rep)
    counts = []
    for jac, w in ((solver.jacobian_matrix(u_wedge.values, grid, nonlinearity,
                                           mu, d), lattice.orbit_weights(grid)),
                   (j_rep, lattice.orbit_weights(replace(grid, rep=rep)))):
        sym = lattice.symmetric_form(jac, w)
        counts.append(spectral.eigencount_above(sym, -tol)
                      - spectral.eigencount_above(sym, tol))
    return tuple(counts)


def fold_curve_crossing(nonlinearity, N, n_d, symmetry=lattice.OFFSITE,
                        d_bracket=(0.04, 0.12), d_resolution=2e-4,
                        noise_floor=1e-10, folds=None):
    """Coupling where the rightmost-fold curves of u-bar(N,1) and
    u-bar(N+1,1) cross.

    The switchback rearrangement happens where the rightmost fold of the
    pattern is overtaken by the fold of the next-wider pattern.  Below the
    crossing the two fold positions agree to an exponentially small (and for
    wide patterns unmeasurable) amount, so the crossing is bisected on the
    sign of the gap with a noise floor: a gap below ``-noise_floor`` counts
    as past the crossing.  Returns (d_star, mu_star, fold_N).

    ``folds`` maps (width, d) to the refined right fold of u-bar(width, 1)
    for this nonlinearity, ``n_d`` and ``symmetry``; every probe is looked
    up there and hunted only on a miss.  :func:`cusp_sequence` shares one
    table across widths, whose bisections start from the same bracket, so
    the bracket ends and the midpoints they share are hunted once; a call
    without one gets a fresh table.
    """
    folds = {} if folds is None else folds

    def right_fold(width, d):
        if (width, d) not in folds:
            folds[width, d] = studies.find_right_fold(
                nonlinearity, width, 1, d, symmetry=symmetry, n_d=n_d)
        return folds[width, d]

    def gap(d):
        fa = right_fold(N, d)
        return right_fold(N + 1, d).mu - fa.mu, fa

    a, b = d_bracket
    ga, fold_a = gap(a)
    if ga < -noise_floor:
        raise NoConvergence(
            f"lower bracket d={a} already past the ({N},1)/({N + 1},1) "
            f"fold-curve crossing"
        )
    gb, fold_b = gap(b)
    while gb > -noise_floor and b < 0.3:
        b += 0.04
        gb, fold_b = gap(b)
    if gb > -noise_floor:
        raise NoConvergence(
            f"fold curves of ({N},1) and ({N + 1},1) do not cross in "
            f"[{a}, {b}]"
        )
    fold = fold_b
    while b - a > d_resolution:
        mid = 0.5 * (a + b)
        g_mid, fold_mid = gap(mid)
        if g_mid < -noise_floor:
            b, fold = mid, fold_mid
        else:
            a = mid
    d_star = 0.5 * (a + b)
    fold = right_fold(N, d_star)
    return d_star, fold.mu, fold


def cusp_sequence(n_range, nonlinearity, n_d=25, symmetry=lattice.OFFSITE,
                  d_bracket=(0.04, 0.12), stall_accept=1e-3):
    """Locate the isola-branch collision cusp for each pattern width N.

    Each collision sits where the rightmost-fold curve of u-bar(N,1) is
    crossed by that of the next-wider pattern; the crossing is bisected on
    the sign of the fold gap (:func:`fold_curve_crossing`, one table of
    fold hunts shared by every width) and then polished with the extended
    Newton system (which bottoms out at the small avoided-crossing floor
    recorded per point), started from the null vector of the sign component
    whose eigenvalue is nearest zero.  Returns ``(points, fit)`` where
    points is a list of per-N dicts and fit carries the geometric
    extrapolation (mu_inf, d_inf, rho).
    Per-N failures are recorded and skipped.
    """
    n_range = [int(n) for n in n_range]
    if any(n < 4 or n > 16 for n in n_range):
        raise ValueError("pattern widths must lie in [4, 16]")
    points, folds = [], {}
    for N in n_range:
        entry = {"N": int(N), "converged": False, "nullity_check": False}
        try:
            d_star, mu_star, fold = fold_curve_crossing(
                nonlinearity, N, n_d, symmetry=symmetry, d_bracket=d_bracket,
                folds=folds)
            entry.update({"mu": mu_star, "d": d_star, "converged": True})
            try:
                eigs = {r: smallest_component_eig(
                    fold.u.values, fold.u.grid, nonlinearity, fold.mu,
                    fold.d, r) for r in SIGN_REPS}
                rep = min(SIGN_REPS, key=lambda r: abs(eigs[r][0]))
                cusp = find_cusp(fold.u, fold.mu, fold.d, nonlinearity, rep,
                                 phi1=fold.phi.values, phi2=eigs[rep][1],
                                 stall_accept=stall_accept,
                                 max_param_move=0.05)
                cusp.label = (N, 1)
                entry.update({"rep": cusp.rep, "nullity_check": True,
                              "null_floor": max(cusp.null_residuals)})
            except solver.SolverError as exc:
                entry["polish_error"] = str(exc)
        except solver.SolverError as exc:
            entry["error"] = str(exc)
        points.append(entry)
    fit = fit_geometric(points)
    return points, fit


def fit_geometric(points, trim=True):
    """Fit (x_N) = x_inf + C rho^N jointly for the mu and d sequences.

    One trim pass drops entries whose residual exceeds four times the RMS of
    the rest (a failed fold hunt at one width should not drag the limit).
    """
    good = [e for e in points if e.get("converged")]
    if len(good) < 3:
        return {"mu_inf": None, "d_inf": None, "rho": None,
                "n_points": len(good)}

    def run_fit(entries):
        ns = np.array([e["N"] for e in entries], dtype=float)
        ys = np.array([[e["mu"], e["d"]] for e in entries])
        rho0 = float(np.clip(_median_ratio(np.diff(ys[:, 1]), 0.5),
                             0.05, 0.95))
        log_rho = _min_geometric_cost(ns, ys, np.log(rho0))
        (mu_inf, d_inf), _, resid = _geometric_lsq(ns, ys, log_rho)
        per_point = np.sqrt(resid[:, 0] ** 2 + resid[:, 1] ** 2)
        return (mu_inf, d_inf, log_rho), per_point

    theta, per_point = run_fit(good)
    kept = good
    if trim:
        for _ in range(max(1, len(good) // 3)):
            if len(kept) < 4:
                break
            worst = int(np.argmax(per_point))
            others = np.delete(per_point, worst)
            rms = float(np.sqrt(np.mean(others**2)))
            if rms > 0 and per_point[worst] > 4 * rms:
                kept = [e for i, e in enumerate(kept) if i != worst]
                theta, per_point = run_fit(kept)
            else:
                break
    mu_inf, d_inf, log_rho = theta
    mus = [e["mu"] for e in kept]
    ds = [e["d"] for e in kept]
    sane = (min(mus) - 0.05 <= mu_inf <= max(mus) + 0.05
            and min(ds) - 0.05 <= d_inf <= max(ds) + 0.05
            and np.exp(log_rho) < 0.99)
    if not sane:
        # degenerate fit (saturated or noisy tail): take the limit from the
        # final entries and the rate from the early differences
        mu_inf, d_inf = mus[-1], ds[-1]
        log_rho = np.log(_median_ratio(
            np.abs(np.diff(ds)) + np.abs(np.diff(mus)), np.nan))
    return {
        "mu_inf": float(mu_inf),
        "d_inf": float(d_inf),
        "rho": float(np.exp(log_rho)),
        "n_points": len(kept),
        "fit_residual": float(np.sqrt(np.mean(per_point**2))),
    }


# weights of the (mu, d) rows in the geometric fit
_FIT_WEIGHTS = np.array([1.0, 10.0])
# log(rho) search interval: past 0.99, where the fit is judged degenerate
_LOG_RHO_RANGE = (np.log(1e-8), np.log(2.0))


def _geometric_lsq(ns, ys, log_rho):
    """Best (x_inf, C) of each column of ys under x_N = x_inf + C rho^N for
    one rate (linear least squares).  Returns the limits, the amplitudes of
    the basis rho^(N - N_0) and the weighted residuals."""
    rate = np.exp(log_rho * (ns - ns[0]))
    basis = np.column_stack([np.ones_like(ns), rate])
    coef = np.linalg.lstsq(basis, ys, rcond=None)[0]
    return coef[0], coef[1], (ys - basis @ coef) * _FIT_WEIGHTS


def _min_geometric_cost(ns, ys, log_rho0):
    """Variable projection: the nearest local minimum downhill from
    log_rho0 of the weighted cost over log(rho), (x_inf, C) eliminated.

    The cost's derivative is -2 sum w r (dA/dlog rho) C, since the residual
    r is orthogonal to the basis A.  Steps of 0.05 bracket the first sign
    change of the derivative (or reach the end of the search interval), and
    bisection locates it; a start that already fits to rounding (constant
    sequences) is kept.
    """
    def slope(log_rho):
        _, amp, resid = _geometric_lsq(ns, ys, log_rho)
        d_basis = (ns - ns[0]) * np.exp(log_rho * (ns - ns[0]))
        return -2.0 * float(np.sum(resid * _FIT_WEIGHTS * amp
                                   * d_basis[:, None]))

    _, _, resid = _geometric_lsq(ns, ys, log_rho0)
    s0 = slope(log_rho0)
    if s0 == 0.0 or np.abs(resid).max() <= 1e-15 * np.abs(ys).max():
        return log_rho0
    lo, hi = _LOG_RHO_RANGE
    step = -0.05 if s0 > 0 else 0.05
    a = log_rho0
    while True:
        b = min(max(a + step, lo), hi)
        if slope(b) * s0 <= 0:
            break
        if b in (lo, hi):
            return b
        a = b
    while abs(b - a) > 1e-14:
        mid = 0.5 * (a + b)
        if slope(mid) * s0 > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _median_ratio(diffs, default):
    """Median ratio of successive differences within (0, 1), else default."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = diffs[1:] / diffs[:-1]
    ratios = ratios[np.isfinite(ratios) & (ratios > 0) & (ratios < 1)]
    return float(np.median(ratios)) if len(ratios) else default
