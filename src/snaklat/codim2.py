"""Cusp (switchback) sequence: where the fold curves of consecutive widths
cross, and the component spectra that certify each crossing.

At an isola-branch collision two folds meet at the same solution, and the
two null vectors lie in different D4 isotypic components: one in the
symmetric (wedge) component, one in a sign representation.  Sign-component
fields live on the orbit-space grid (D4, sign_k): the wedge sites not fixed
by any character-negative mirror, with the folded Laplacian twisted by the
character.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import lattice, solver, spectral, studies

# eigenvalues of a component Jacobian within this of zero count as null
NULLITY_TOL = 1e-4
# the fold-curve crossing is bisected to this width in d; a fold gap below
# -GAP_NOISE counts as past the crossing
D_RESOLUTION = 2e-4
GAP_NOISE = 1e-10


def null_certificate(u, nonlinearity, mu, d):
    """Null-space split at a wedge state, from one values-only eigvalsh of
    each of the trivial and sign-component Jacobian blocks: ``rep``, the
    sign component with the eigenvalue nearest zero; ``null_floor``, that
    eigenvalue's modulus; ``nullities``, each block's number of eigenvalues
    within NULLITY_TOL of zero; ``nullity_check``, whether the trivial and
    the rep block have one each."""
    moduli = {rep: np.sort(np.abs(np.linalg.eigvalsh(spectral.symmetric_block(
        u, nonlinearity, mu, d, replace(u.grid, rep=rep)).toarray())))
        for rep in ("trivial",) + lattice.SIGN_REPS}
    nullities = {rep: int(np.sum(m < NULLITY_TOL))
                 for rep, m in moduli.items()}
    rep = min(lattice.SIGN_REPS, key=lambda r: moduli[r][0])
    return {"rep": rep, "null_floor": float(moduli[rep][0]),
            "nullity_check": nullities["trivial"] == nullities[rep] == 1,
            "nullities": nullities}


def fold_curve_crossing(nonlinearity, N, n_d, symmetry=lattice.OFFSITE,
                        d_bracket=(0.04, 0.12), folds=None):
    """Coupling where the rightmost-fold curves of u-bar(N,1) and
    u-bar(N+1,1) cross.

    The switchback rearrangement happens where the rightmost fold of the
    pattern is overtaken by the fold of the next-wider pattern.  Below the
    crossing the two fold positions agree to an exponentially small (and for
    wide patterns unmeasurable) amount, so the crossing is bisected to
    D_RESOLUTION on the sign of the gap with a noise floor: a gap below
    -GAP_NOISE counts as past the crossing.  Returns (d_star, mu_star,
    fold_N).

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
        mu_n = right_fold(N, d).mu
        return right_fold(N + 1, d).mu - mu_n

    a, b = d_bracket
    if gap(a) < -GAP_NOISE:
        raise solver.NoConvergence(
            f"lower bracket d={a} already past the ({N},1)/({N + 1},1) "
            f"fold-curve crossing"
        )
    gb = gap(b)
    while gb > -GAP_NOISE and b < 0.3:
        b += 0.04
        gb = gap(b)
    if gb > -GAP_NOISE:
        raise solver.NoConvergence(
            f"fold curves of ({N},1) and ({N + 1},1) do not cross in "
            f"[{a}, {b}]"
        )
    while b - a > D_RESOLUTION:
        mid = 0.5 * (a + b)
        if gap(mid) < -GAP_NOISE:
            b = mid
        else:
            a = mid
    d_star = 0.5 * (a + b)
    fold = right_fold(N, d_star)
    return d_star, fold.mu, fold


def cusp_sequence(n_range, nonlinearity, n_d=25, symmetry=lattice.OFFSITE,
                  d_bracket=(0.04, 0.12)):
    """Locate the isola-branch collision cusp for each pattern width N.

    Each collision sits where the rightmost-fold curve of u-bar(N,1) is
    crossed by that of the next-wider pattern; the crossing is bisected on
    the sign of the fold gap (:func:`fold_curve_crossing`, one table of
    fold hunts shared by every width).  At the fold it returns, each entry
    carries :func:`null_certificate`: ``nullity_check`` holds when the null
    space is two-dimensional and split between the symmetric component
    and the sign component ``rep``.
    Returns ``(points, fit)`` where points is a list of per-N dicts and fit
    carries the geometric extrapolation (mu_inf, d_inf, rho).
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
            entry.update(null_certificate(fold.u, nonlinearity, fold.mu,
                                          fold.d),
                         mu=mu_star, d=d_star, converged=True)
        except solver.SolverError as exc:
            entry["error"] = str(exc)
        points.append(entry)
    fit = fit_geometric(points)
    return points, fit


def fit_geometric(points):
    """Fit (x_N) = x_inf + C rho^N jointly for the mu and d sequences.

    One trim pass drops entries whose residual exceeds four times the RMS of
    the rest (a failed fold hunt at one width should not drag the limit);
    it stops while the worst residual is at rounding level, below 1e-12 of
    the largest |mu| or |d|, where the ratio says nothing.
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
    floor = 1e-12 * max(max(abs(e["mu"]), abs(e["d"])) for e in good)
    for _ in range(max(1, len(good) // 3)):
        if len(kept) < 4 or per_point.max() < floor:
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
