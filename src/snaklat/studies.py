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
                   return_branch=False):
    """Fold where the u-bar(N, M) state terminates toward the lower endpoint.

    Starts from the continued pattern at the middle of the window and walks
    down in mu with the step capped near the predicted fold scale; the cap
    shrinks and the run is repeated if the fold was stepped over.
    """
    lo, hi, scale = fold_scale(nonlinearity,
                               _lower_ending(nonlinearity, N, M), d,
                               upper=False)
    mu_start = lo + 0.5 * (hi - lo)
    pattern = PatternId(N, M, UBAR, symmetry)
    u = prepared_state(nonlinearity, pattern, mu_start, d, n_d)
    return _first_fold(u, nonlinearity, mu_start, d,
                       (lo - (hi - lo), lo + 4.0 * scale), scale / 5.0, -1.0,
                       (lo - 0.5 * scale, mu_start + 0.2 * (hi - lo)),
                       return_branch,
                       f"left fold for (N, M)=({N}, {M}) at d={d}")


def find_right_fold(nonlinearity, N, M, d, symmetry=OFFSITE, n_d=10,
                    return_branch=False):
    """Fold where the u-bar(N, M) state terminates toward the upper endpoint.

    At moderate coupling the pattern only exists over a shrinking mu range,
    so the preparation point tracks the predicted fold location.
    """
    if nonlinearity.endpoint_hi == model.FOLD:
        ending = (asymptotics.FOLD_M1 if M == 1 and N >= 3
                  else asymptotics.FOLD_M_NEAR_N)
    else:
        ending = (asymptotics.TRANS1_M1 if M == 1 and N >= 3
                  else asymptotics.TRANS1_M_NEAR_N)
    lo, hi, scale = fold_scale(nonlinearity, ending, d, upper=True)
    pattern = PatternId(N, M, UBAR, symmetry)
    if scale < 0.05 * (hi - lo):
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
                       (hi - 6.0 * scale, hi + (hi - lo)),
                       _upper_fold_cap(scale), +1.0,
                       (mu_start - 0.2 * (hi - lo), hi + scale), return_branch,
                       f"right fold for (N, M)=({N}, {M}) at d={d}")


def _first_fold(u, nonlinearity, mu_start, d, band, cap, direction, p_bounds,
                return_branch, what):
    """Continue in mu to the first fold and refine it.

    Inside ``band`` the step is capped at ``cap``; the cap shrinks fourfold
    and the run is repeated, up to three times, while the fold fails to
    refine.  The branch stops one point past the fold, the last point the
    refinement reads, unless it is returned, when it keeps the default tail.
    """
    tail = StepConfig.points_after_fold if return_branch else 1
    for _ in range(4):
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


def snake_branch(nonlinearity, d, symmetry=OFFSITE, n_d=20, mu_start=None,
                 max_folds=19, max_points=20000):
    """Trace the primary snaking branch upward through ``max_folds`` folds.

    Starts on the v-bar(1,1) segment at ``mu_start`` (by default the middle
    of the window) and follows the branch as cells are added; step bands
    around both window endpoints resolve the fold pairs.
    """
    lo, _, lo_scale = fold_scale(
        nonlinearity, _lower_ending(nonlinearity, 3, 1), d, upper=False)
    _, hi, hi_scale = fold_scale(
        nonlinearity,
        asymptotics.FOLD_M_NEAR_N if nonlinearity.endpoint_hi == model.FOLD
        else asymptotics.TRANS1_M_NEAR_N, d, upper=True)
    if mu_start is None:
        mu_start = lo + 0.5 * (hi - lo)
    bands = (
        (lo - (hi - lo), lo + 3.0 * lo_scale, lo_scale / 5.0),
        (hi - 5.0 * hi_scale, hi + (hi - lo), _upper_fold_cap(hi_scale)),
    )
    # ascending traversal: v-bar(1,1) runs to the right fold first, then the
    # branch alternates left/right folds while cells switch on
    u = prepared_state(nonlinearity, PatternId(1, 1, VBAR, symmetry),
                       mu_start, d, n_d)
    cfg = StepConfig(stop_after_folds=max_folds, max_points=max_points,
                     refine_bands=bands)
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
                        mu_start=None, max_points=8000):
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
            0.5 * _upper_fold_cap(2.0 * d))
    cfg = StepConfig(max_points=max_points, detect_closure=True, h_max=0.03,
                     refine_bands=(band,))
    return continuation.continue_branch(
        u, nonlinearity, mu_start, d, parameter="mu", config=cfg,
        direction=+1.0, p_bounds=(lo + 0.1 * (hi - lo), lo + 1.2 * (hi - lo)))


# ---------------------------------------------------------------------------
# asymmetric branches


def _block_directions(fold, nonlinearity, grid, k):
    """The k eigenvectors nearest zero of the Jacobian block on ``grid`` at
    a fold, in ascending eigenvalue order, as unit full-square fields whose
    last large entry (in site order) is positive."""
    vals, vecs = spectral.eigenpairs_near_zero(spectral.symmetric_block(
        fold.u, nonlinearity, fold.mu, fold.d, grid), k)
    out = []
    for i in np.argsort(vals):
        psi = lattice.unfold(lattice.Field(
            grid, vecs[i] / np.sqrt(lattice.orbit_weights(grid))))
        big = np.flatnonzero(np.abs(psi.values) > 0.5 * psi.norm_inf())
        psi.values *= (np.sign(psi.values[big[-1]])
                       / np.linalg.norm(psi.values))
        out.append(psi)
    return out


def switch_directions(fold, nonlinearity):
    """Symmetry-adapted directions spanning the critical eigenspace at a fold,
    each an eigenvector nearest zero of the Jacobian block on its own
    orbit-space grid: one on each sign component (D4, sign_k), two in
    ascending order on each mirror-fixed plane of the two-dimensional
    representation.  Returns (label, Field) pairs on the full square:
    sign1, sign2, sign3, then ``two_dim_p{0,1}_{md,mh}``."""
    grid = fold.u.grid
    planes = {name: _block_directions(fold, nonlinearity, lattice.GridSpec(
        grid.half_width, grid.symmetry, *space), 2)
        for name, space in lattice.MIRROR_PLANES.items()}
    return ([(rep, _block_directions(fold, nonlinearity,
                                     replace(grid, rep=rep), 1)[0])
             for rep in lattice.SIGN_REPS]
            + [(f"two_dim_p{p}_{name}", psi)
               for p, pair in enumerate(zip(*planes.values()))
               for name, psi in zip(planes, pair)])


def _unfolded(pt):
    """A branch point moved from an orbit-space grid to the full square."""
    t = pt.tangent
    if t is not None:
        t = np.append(lattice.unfold(lattice.Field(pt.u.grid, t[:-1])).values,
                      t[-1])
    return replace(pt, u=lattice.unfold(pt.u), tangent=t)


RECONNECT_ARM = 1e-3
RECONNECT_DROP = 1e-3
RECONNECT_DIP = 0.05


def reconnection(asym, norms):
    """Index of the point where a branch with asymmetries ``asym`` and
    norms ``norms`` rejoined the symmetric branch, or None.  Once the
    asymmetry has exceeded RECONNECT_ARM * max(1, norm), that is the first
    point below RECONNECT_DROP times its running peak, or the first local
    minimum below RECONNECT_DIP times it (a step over the V-shaped
    minimum), seen one point later."""
    a = np.asarray(asym, dtype=float)
    peak = np.maximum.accumulate(a)
    armed = np.logical_or.accumulate(
        peak > RECONNECT_ARM * np.maximum(1.0, norms))
    drop = armed & (a < RECONNECT_DROP * peak)
    # dip[i]: point i - 1 is the minimum
    dip = np.zeros_like(drop)
    dip[2:] = (armed[2:] & (a[1:-1] <= a[:-2]) & (a[1:-1] < a[2:])
               & (a[1:-1] < RECONNECT_DIP * peak[2:]))
    seen = np.flatnonzero(drop | dip)
    return int(seen[0] - dip[seen[0]]) if len(seen) else None


def asymmetric_fan(fold, nonlinearity, eps=None, config=None):
    """All asymmetric branches bifurcating at a fold (Fig.-7-type study).

    Each symmetry-adapted critical direction is stepped off with the
    amplitude-pinned corrector and continued until the state regains the
    full symmetry.  By the equivariant branching lemma each branch keeps the
    isotropy subgroup of its direction, so it is computed on the fixed-point
    subspace of that subgroup, an orbit-space grid.  Reconnection with the
    primary branch is a symmetry-restoring pitchfork, so it is detected as a
    collapse of the asymmetry measure (:func:`reconnection`), which ends
    the branch.  Returns a list of (label, seed, branch, reconnect_point),
    all on the full square, with reconnect_point None when no collapse was
    seen.
    """
    lo, hi = nonlinearity.window
    directions = switch_directions(fold, nonlinearity)
    offset = 0.25 * max(abs(hi - fold.mu), 1e-4 * (hi - lo))
    results = []
    for label, psi in directions:
        grid = replace(fold.u.grid, group=lattice.isotropy(psi),
                       rep="trivial")
        try:
            seed = continuation.switch_branch(
                fold, lattice.fold(psi, grid), nonlinearity, eps=eps,
                mu_offsets=(0.0, -offset, offset))
        except solver.NoConvergence:
            results.append((label, None, None, None))
            continue
        asym, norms = [], []

        def stop(pt, asym=asym, norms=norms):
            asym.append(continuation.asymmetry(pt.u))
            norms.append(pt.norm)
            return reconnection(asym, norms) is not None

        base = config or StepConfig(max_points=1500)
        cfg = replace(base, stop_condition=stop)
        direction = 1.0 if seed.mu >= fold.mu else -1.0
        branch = continuation.continue_branch(
            seed.u, nonlinearity, seed.mu, seed.d, parameter="mu",
            config=cfg, direction=direction,
            p_bounds=(lo - 0.05 * (hi - lo), lo + 1.5 * (hi - lo)))
        branch = replace(branch, points=[_unfolded(pt)
                                         for pt in branch.points])
        # the stop condition sees every point after the first
        i = reconnection(asym, norms)
        reconnect = None if i is None else branch.points[1 + i]
        results.append((label, _unfolded(seed), branch, reconnect))
    return results
