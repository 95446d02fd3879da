"""Orchestrated continuation workflows: fold hunts, snakes, asymmetric fans.

These wrap the low-level continuation with the problem knowledge needed to
run them reliably: starting states come from the decoupled limit, step
bands are sized from the predicted fold scales, and fold searches retry
with finer resolution when a narrow fold is stepped over.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import asymptotics, continuation, lattice, model, solver, spectral
from .continuation import StepConfig
from .lattice import OFFSITE
from .model import PatternId, UBAR, VBAR, anti_continuum_pattern


def prepared_state(nonlinearity, pattern, mu, d, n_d):
    """Decoupled-limit pattern continued to coupling d at fixed mu."""
    u0 = anti_continuum_pattern(pattern, mu, nonlinearity, n_d=n_d)
    return solver.continue_in_coupling(u0, nonlinearity, mu, d)


def _upper_fold_cap(scale):
    """Step cap near the upper-endpoint folds.

    Cell equations away from the critical one degenerate simultaneously at
    these folds, with solution sheets separated by O(scale^(3/4)) in state
    space; the step must stay below that to avoid jumping sheets.
    """
    return min(np.sqrt(scale) / 3.0, scale**0.75 / 3.0)


def fold_scale(nonlinearity, ending, d, upper):
    """Window ends (lo, hi) and the predicted distance of the ``ending``
    fold from the end it belongs to, hi when ``upper``, else lo."""
    lo, hi = nonlinearity.window
    mu = asymptotics.predict_fold_mu_gauged(nonlinearity, ending, d)
    return lo, hi, (hi - mu if upper else mu - lo)


def _lower_ending(nonlinearity, N, M):
    corner = (M == N and N <= 2) or (N == 1)
    if nonlinearity.endpoint_lo == model.PITCHFORK:
        return (asymptotics.PITCHFORK_CORNER if corner
                else asymptotics.PITCHFORK_INTERIOR)
    return (asymptotics.TRANS0_CORNER if corner
            else asymptotics.TRANS0_INTERIOR)


def find_left_fold(nonlinearity, N, M, d, symmetry=OFFSITE, n_d=10,
                   mu_start=0.5, max_retries=3, return_branch=False):
    """Fold where the u-bar(N, M) state terminates toward the lower endpoint.

    Starts from the continued pattern at ``mu_start`` and walks down in mu
    with the step capped near the predicted fold scale; the cap shrinks and
    the run is repeated if the fold was stepped over.
    """
    lo, _, scale = fold_scale(nonlinearity, _lower_ending(nonlinearity, N, M),
                              d, upper=False)
    pattern = PatternId(N, M, UBAR, symmetry)
    u = prepared_state(nonlinearity, pattern, mu_start, d, n_d)
    return _first_fold(u, nonlinearity, mu_start, d,
                       (lo - 1.0, lo + 4.0 * scale), scale / 5.0, -1.0,
                       (lo - 0.5 * scale, mu_start + 0.2),
                       max_retries, return_branch,
                       f"left fold for (N, M)=({N}, {M}) at d={d}")


def find_right_fold(nonlinearity, N, M, d, symmetry=OFFSITE, n_d=10,
                    mu_start=None, max_retries=3, return_branch=False):
    """Fold where the u-bar(N, M) state terminates toward the upper endpoint.

    At moderate coupling the pattern only exists over a shrinking mu range,
    so the default preparation point tracks the predicted fold location.
    """
    if nonlinearity.endpoint_hi == model.FOLD:
        ending = (asymptotics.FOLD_M1 if M == 1 and N >= 3
                  else asymptotics.FOLD_M_NEAR_N)
    else:
        ending = (asymptotics.TRANS1_M1 if M == 1 and N >= 3
                  else asymptotics.TRANS1_M_NEAR_N)
    lo, hi, scale = fold_scale(nonlinearity, ending, d, upper=True)
    pattern = PatternId(N, M, UBAR, symmetry)
    if mu_start is not None:
        candidates = [mu_start]
    elif scale < 0.05 * (hi - lo):
        candidates = [min(lo + 0.7 * (hi - lo),
                          max(lo + 0.2 * (hi - lo), hi - 1.6 * scale))]
    else:
        # moderate coupling: the decoupled pattern is continuable to the
        # largest couplings from the middle of the window
        candidates = [lo + f * (hi - lo)
                      for f in (0.7, 0.75, 0.65, 0.6, 0.8, 0.55)]
    u = None
    for mu_try in candidates:
        try:
            u = prepared_state(nonlinearity, pattern, mu_try, d, n_d)
            mu_start = mu_try
            break
        except solver.SolverError:
            continue
    if u is None:
        raise solver.NoConvergence(
            f"could not prepare u-bar({N},{M}) at d={d} from any mu"
        )
    return _first_fold(u, nonlinearity, mu_start, d,
                       (hi - 6.0 * scale, hi + 1.0), _upper_fold_cap(scale),
                       +1.0, (mu_start - 0.2, hi + scale), max_retries,
                       return_branch,
                       f"right fold for (N, M)=({N}, {M}) at d={d}")


def _first_fold(u, nonlinearity, mu_start, d, band, cap, direction, p_bounds,
                max_retries, return_branch, what):
    """Continue in mu to the first fold and refine it.

    Inside ``band`` the step is capped at ``cap``; the cap shrinks fourfold
    and the run is repeated while the fold fails to refine.  The branch
    stops one point past the fold, the last point the refinement reads,
    unless it is returned, when it keeps the default tail.
    """
    tail = StepConfig.points_after_fold if return_branch else 1
    for _ in range(max_retries + 1):
        cfg = StepConfig(stop_after_folds=1, max_points=3000,
                         points_after_fold=tail, refine_bands=((*band, cap),))
        branch = continuation.continue_branch(
            u, nonlinearity, mu_start, d, parameter="mu", config=cfg,
            direction=direction, p_bounds=p_bounds)
        folds = continuation.detect_and_refine_folds(branch, nonlinearity)
        if folds and folds[0].refined:
            return (folds[0], branch) if return_branch else folds[0]
        cap /= 4.0
    raise continuation.RefinementFailed(f"no refined {what}")


def snake_branch(nonlinearity, d, symmetry=OFFSITE, n_d=20, mu_start=0.5,
                 max_folds=19, max_points=20000, h_init=None, h_max=None):
    """Trace the primary snaking branch upward through ``max_folds`` folds.

    Starts on the v-bar(1,1) segment and follows the branch as cells are
    added; step bands around both window endpoints resolve the fold pairs.
    """
    lo, _, lo_scale = fold_scale(
        nonlinearity, _lower_ending(nonlinearity, 3, 1), d, upper=False)
    _, hi, hi_scale = fold_scale(
        nonlinearity,
        asymptotics.FOLD_M_NEAR_N if nonlinearity.endpoint_hi == model.FOLD
        else asymptotics.TRANS1_M_NEAR_N, d, upper=True)
    bands = (
        (lo - 1.0, lo + 3.0 * lo_scale, lo_scale / 5.0),
        (hi - 5.0 * hi_scale, hi + 1.0, _upper_fold_cap(hi_scale)),
    )
    # ascending traversal: v-bar(1,1) runs to the right fold first, then the
    # branch alternates left/right folds while cells switch on
    u = prepared_state(nonlinearity, PatternId(1, 1, VBAR, symmetry),
                       mu_start, d, n_d)
    cfg = StepConfig(stop_after_folds=max_folds, max_points=max_points,
                     refine_bands=bands)
    if h_init is not None:
        cfg.h_init = float(h_init)
    if h_max is not None:
        cfg.h_max = float(h_max)
    return continuation.continue_branch(
        u, nonlinearity, mu_start, d, parameter="mu", config=cfg,
        direction=+1.0, p_bounds=(lo - 2.0 * lo_scale, hi + hi_scale))


def expected_fold_sequence(max_folds):
    """(kind, critical cell, crossing count) for each fold up the off-site snake.

    The branch alternates right folds (the u_- cell of v-bar(N, M) collides
    with u_+) and left folds (the next cell switches on); the crossing count
    is the D4 orbit size of the critical cell.
    """
    out = []
    n, m = 1, 1
    while len(out) < max_folds:
        cell = (n, m)
        out.append(("right", cell, lattice.orbit_size(cell, OFFSITE)))
        if len(out) >= max_folds:
            break
        nxt = (n, m + 1) if m < n else (n + 1, 1)
        out.append(("left", nxt, lattice.orbit_size(nxt, OFFSITE)))
        n, m = nxt
    return out[:max_folds]


def corner_receded_state(nonlinearity, N, mu, d, n_d, symmetry=OFFSITE):
    """u-bar(N, 1) with the (N-1, N-1) corner receded to the middle root.

    These corner-modified states form the isolas that collide with the
    primary branch at the rightmost folds as the coupling grows.
    """
    u = anti_continuum_pattern(PatternId(N, 1, UBAR, symmetry), mu,
                               nonlinearity, n_d=n_d)
    u.values[u.grid.index(N - 1, N - 1)] = nonlinearity.u_minus(mu)
    return solver.continue_in_coupling(u, nonlinearity, mu, d)


def trace_pattern_isola(nonlinearity, N, d, n_d=16, symmetry=OFFSITE,
                        mu_start=None, max_points=8000, cap_scale=0.5):
    """Trace the corner-receded family with closure detection.

    Returns a closed branch (isola) when one exists at this coupling; after
    the switchback collision the same seed family merges with the primary
    branch and the trace comes back open.  ``mu_start`` defaults to 0.7 of
    the way up the window.
    """
    lo, hi = nonlinearity.window
    if mu_start is None:
        mu_start = lo + 0.7 * (hi - lo)
    u = corner_receded_state(nonlinearity, N, mu_start, d, n_d,
                             symmetry=symmetry)
    band = (lo + 0.45 * (hi - lo), lo + 2.0 * (hi - lo),
            cap_scale * _upper_fold_cap(2.0 * d))
    cfg = StepConfig(max_points=max_points, detect_closure=True, h_max=0.03,
                     refine_bands=(band,))
    return continuation.continue_branch(
        u, nonlinearity, mu_start, d, parameter="mu", config=cfg,
        direction=+1.0, p_bounds=(lo + 0.1 * (hi - lo), lo + 1.2 * (hi - lo)))


# ---------------------------------------------------------------------------
# asymmetric branches


def critical_eigenvectors(fold, nonlinearity, k=10):
    """Near-zero eigenpairs of the full-square Jacobian at a refined fold."""
    u_full, jac = spectral.full_square_jacobian(fold.u, nonlinearity,
                                                fold.mu, fold.d)
    vals, vecs = spectral.eigenpairs_near_zero(jac, k)
    return vals, [lattice.Field(u_full.grid, v) for v in vecs]


def switch_directions(fold, nonlinearity, n_critical=8):
    """Symmetry-adapted directions spanning the critical eigenspace at a fold.

    Returns a list of (label, Field) pairs: one direction per non-trivial
    one-dimensional representation present, and mirror-fixed vectors in each
    of the two planes of the two-dimensional representation.
    """
    vals, vecs = critical_eigenvectors(fold, nonlinearity,
                                       k=n_critical + 4)
    grid = vecs[0].grid
    crit_vals = vals[:n_critical]
    basis = np.column_stack([v.values for v in vecs[:n_critical]])

    directions = []
    for tag in ("sign1", "sign2", "sign3"):
        proj = spectral.isotypic_projection(basis, grid, tag)
        norms = np.linalg.norm(proj, axis=0)
        j = int(np.argmax(norms))
        if norms[j] > 1e-6:
            directions.append((tag, lattice.Field(grid,
                                                  proj[:, j] / norms[j])))

    # two-dimensional component: split into the two eigenvalue planes and
    # pick mirror-fixed vectors in each
    proj_e = spectral.isotypic_projection(basis, grid, "two_dim")
    keep = [j for j in range(proj_e.shape[1])
            if np.linalg.norm(proj_e[:, j]) > 1e-6]
    if keep:
        cols = proj_e[:, keep]
        lams = crit_vals[keep]
        # order the eigenvalues; two nearly-degenerate pairs
        order = np.argsort(lams)
        pairs = [order[:2], order[2:4]] if len(order) >= 4 else [order]
        perms = lattice.action_permutations(grid)
        mirrors = {"md": perms[6], "mh": perms[5]}
        for pi, pair in enumerate(pairs):
            plane = np.column_stack([cols[:, i] for i in pair if i < cols.shape[1]])
            if plane.shape[1] == 0:
                continue
            qp, _ = np.linalg.qr(plane)
            for mname, perm in mirrors.items():
                # fixed vector of the mirror within the plane
                mp = qp[perm, :]
                a = qp.T @ mp  # 2x2 representation of the mirror
                w, v = np.linalg.eigh((a + a.T) / 2)
                idx = int(np.argmax(w))
                if w[idx] > 0.5:
                    # the plane's basis follows rounding; fix the sign by
                    # the last large entry in site order
                    vec = qp @ v[:, idx]
                    big = np.flatnonzero(np.abs(vec) > 0.5 * np.abs(vec).max())
                    vec *= np.sign(vec[big[-1]]) / np.linalg.norm(vec)
                    directions.append((f"two_dim_p{pi}_{mname}",
                                       lattice.Field(grid, vec)))
    return directions


def _unfolded(pt):
    """A branch point moved from an orbit-space grid to the full square."""
    t = pt.tangent
    if t is not None:
        t = np.append(lattice.unfold(lattice.Field(pt.u.grid, t[:-1])).values,
                      t[-1])
    return replace(pt, u=lattice.unfold(pt.u), tangent=t)


def asymmetric_fan(fold, nonlinearity, eps=None, config=None,
                   reconnect_drop=1e-3, min_asymmetry=1e-3):
    """All asymmetric branches bifurcating at a fold (Fig.-7-type study).

    Each symmetry-adapted critical direction is stepped off with the
    amplitude-pinned corrector and continued until the state regains the
    full symmetry.  By the equivariant branching lemma each branch keeps the
    isotropy subgroup of its direction, so it is computed on the fixed-point
    subspace of that subgroup, an orbit-space grid.  Reconnection with the
    primary branch is a symmetry-restoring pitchfork, so it is detected as a
    collapse of the asymmetry measure: the stop fires when the asymmetry has
    fallen by ``reconnect_drop`` relative to its running peak (after first
    exceeding ``min_asymmetry``).  Returns a list of (label, seed, branch,
    reconnect_point), all on the full square, with reconnect_point None
    when no collapse was seen.
    """
    lo, hi = nonlinearity.window
    directions = switch_directions(fold, nonlinearity)
    offset = 0.25 * max(abs(hi - fold.mu), 1e-4 * (hi - lo))
    results = []
    for label, psi in directions:
        grid = replace(fold.u.grid, group=lattice.isotropy(psi))
        try:
            seed = continuation.switch_branch(
                fold, lattice.fold(psi, grid), nonlinearity, eps=eps,
                mu_offsets=(0.0, -offset, offset))
        except solver.NoConvergence:
            results.append((label, None, None, None))
            continue
        state = {"peak": 0.0, "armed": False}

        def stop(pt, state=state):
            a = continuation.asymmetry(pt.u)
            state["peak"] = max(state["peak"], a)
            if state["peak"] > min_asymmetry * max(1.0, pt.norm):
                state["armed"] = True
            return state["armed"] and a < reconnect_drop * state["peak"]

        base = config or StepConfig(max_points=1500)
        cfg = replace(base, stop_condition=stop)
        direction = 1.0 if seed.mu >= fold.mu else -1.0
        branch = continuation.continue_branch(
            seed.u, nonlinearity, seed.mu, seed.d, parameter="mu",
            config=cfg, direction=direction,
            p_bounds=(lo - 0.05 * (hi - lo), lo + 1.5 * (hi - lo)))
        branch = replace(branch, points=[_unfolded(pt)
                                         for pt in branch.points])
        last = branch.points[-1]
        reconnect = last if (state["armed"] and continuation.asymmetry(last.u)
                             < reconnect_drop * state["peak"]) else None
        results.append((label, _unfolded(seed), branch, reconnect))
    return results
