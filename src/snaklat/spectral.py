"""Stability analysis on the unfolded full-square Neumann domain and on
its symmetry blocks.

Unstable-eigenvalue counts come from the inertia of the symmetric Jacobian,
computed with a fill-reducing sparse LDL^T factorization (no eigensolve
needed) that falls back to LAPACK's pivoted dense LDL^T when its pivots do
not check out; dense eigendecompositions are kept as a cross-validation
oracle for small grids.
The Jacobian of a symmetric state is block diagonal over the D4 isotypic
components (Dellnitz & Werner, J. Comput. Appl. Math. 26, 1989); each
block is the Jacobian on an orbit-space grid (:func:`symmetric_block`),
whose near-zero eigenpairs :func:`eigenpairs_near_zero` reads.

Isotypic tags: ``trivial`` is the symmetric component; ``sign1`` flips under
every reflection but is rotation-invariant; ``sign2``/``sign3`` flip under
rotation by 90 degrees and differ by which mirror family (axis vs diagonal)
they preserve; ``two_dim`` is the unique two-dimensional representation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import lattice, solver


class FactorizationFailure(solver.SolverError):
    pass


class AmbiguousCrossing(solver.SolverError):
    pass


ISOTYPIC_TAGS = ("trivial", "sign1", "sign2", "sign3", "two_dim")

# matrix order up to which near-zero eigenpairs come from a dense eigh;
# larger matrices use shift-invert Lanczos
DENSE_EIG_MAX = 900

# largest max|U| / max|A| that ldl_inertia trusts; the Jacobians of the
# lattice problem stay below 10
LDL_GROWTH_MAX = 1e6

_DIMS = {"trivial": 1, "sign1": 1, "sign2": 1, "sign3": 1, "two_dim": 2}


# ---------------------------------------------------------------------------
# inertia via sparse LDL^T


def ldl_inertia(matrix, pivot_tol=None):
    """Counts (n_pos, n_neg) of the eigenvalue signs of a symmetric matrix.

    SuperLU factorizes P A P^T = L U with a fill-reducing symmetric
    ordering and diagonal pivots only, so U = D L^T and, by Sylvester's law,
    the signs of diag(U) are the eigenvalue signs.  Raises
    :class:`FactorizationFailure` when SuperLU left the diagonal (row and
    column permutations differ), a pivot is not larger than ``pivot_tol``
    (default 1e-14 times the largest entry, and at least 1e-14), or the
    factor grew past ``LDL_GROWTH_MAX`` times the largest entry of the
    matrix: without pivoting a tiny pivot that clears ``pivot_tol`` can
    still swamp its Schur complement, and the pivot signs then count a
    different matrix.
    """
    csc = sp.csc_matrix(matrix)
    scale = np.max(np.abs(csc.data), initial=0.0)
    if pivot_tol is None:
        pivot_tol = 1e-14 * max(scale, 1.0)
    try:
        lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # exactly singular
        raise FactorizationFailure(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailure("off-diagonal pivot")
    pivots = lu.U.diagonal()
    smallest = np.min(np.abs(pivots))
    if not smallest > pivot_tol:  # a NaN pivot fails too
        raise FactorizationFailure(f"pivot breakdown: {smallest:.3e}")
    growth = np.max(np.abs(lu.U.data)) / scale
    if not growth <= LDL_GROWTH_MAX:
        raise FactorizationFailure(f"element growth: {growth:.3e}")
    n_pos = int(np.sum(pivots > 0))
    return n_pos, pivots.size - n_pos


def dense_ldl_inertia(matrix):
    """Inertia from LAPACK's pivoted LDL^T (Bunch-Kaufman); oracle path."""
    a = matrix.toarray() if sp.issparse(matrix) else np.asarray(matrix)
    _, d, _ = scipy.linalg.ldl(a)
    n = a.shape[0]
    lams = []
    k = 0
    while k < n:
        size = 2 if k + 1 < n and abs(d[k + 1, k]) > 0 else 1
        lams.extend(np.linalg.eigvalsh(d[k: k + size, k: k + size]))
        k += size
    lams = np.array(lams)
    return (int(np.sum(lams > 0)), int(np.sum(lams < 0)),
            int(np.sum(lams == 0)))


def eigencount_above(matrix, threshold, retries=4):
    """Number of eigenvalues of a symmetric matrix strictly above threshold."""
    n = matrix.shape[0]
    shift = threshold
    for attempt in range(retries):
        try:
            n_pos, _ = ldl_inertia(matrix - shift * sp.eye(n))
            return n_pos
        except FactorizationFailure:
            # nudge the shift off an eigenvalue and retry
            shift = threshold + (attempt + 1) * 1e-12 * max(1.0, abs(threshold))
    n_pos, _, _ = dense_ldl_inertia(matrix - shift * sp.eye(n))
    return n_pos


# ---------------------------------------------------------------------------
# spectrum reports


@dataclass
class SpectrumReport:
    n_unstable: int
    n_zero: int
    tau: float = 0.0


def full_square_jacobian(u_wedge, nonlinearity, mu, d):
    """Unfold a state and assemble the symmetric full-square Jacobian."""
    u_full = lattice.unfold(u_wedge)
    jac = solver.jacobian(u_full, nonlinearity, mu, d)
    return u_full, jac.tocsr()


def symmetric_block(u, nonlinearity, mu, d, grid):
    """Symmetric form of the Jacobian at the state ``u`` restricted to the
    orbit-space grid ``grid`` on the same window, whose group must fix
    ``u``: the block of the full-square Jacobian on the fields of the
    grid's symmetry type.  Its eigenvectors are fields on the grid times
    the square roots of the orbit weights."""
    if not set(grid.group) <= set(lattice.isotropy(u)):
        raise ValueError(f"the state is not fixed by {grid.group}")
    v = lattice.fold(lattice.unfold(u), grid)
    return lattice.symmetric_form(solver.jacobian(v, nonlinearity, mu, d),
                                  lattice.orbit_weights(grid))


def zero_band(u_full, nonlinearity, mu, d, zero_tol):
    """tau = zero_tol * max(1, d * max|f_u|); (-tau, tau) counts as zero."""
    return zero_tol * max(1.0, abs(d) * float(np.max(np.abs(
        nonlinearity.f_u(u_full.values, mu)))))


def unstable_count(u_wedge, nonlinearity, mu, d, zero_tol=1e-8):
    """Inertia-based stability report on the unfolded Neumann square.

    ``n_unstable`` counts eigenvalues above +tau and ``n_zero`` those within
    (-tau, tau), with tau = zero_tol * max(1, d * max|f_u|).
    """
    u_full, jac = full_square_jacobian(u_wedge, nonlinearity, mu, d)
    tau = zero_band(u_full, nonlinearity, mu, d, zero_tol)
    n_above = eigencount_above(jac, tau)
    return SpectrumReport(n_unstable=n_above,
                          n_zero=eigencount_above(jac, -tau) - n_above,
                          tau=tau)


def eigenpairs_near_zero(sym, k=1):
    """The k eigenpairs of a symmetric matrix nearest zero, nearest first.

    Returns (eigenvalues, list of eigenvectors).
    """
    n = sym.shape[0]
    if n <= DENSE_EIG_MAX or k >= n - 1:
        vals, vecs = np.linalg.eigh(sym.toarray())
    else:
        try:
            vals, vecs = spla.eigsh(sym.tocsc(), k=k, sigma=0.0)
        except RuntimeError:
            vals, vecs = spla.eigsh(sym.tocsc(), k=k, sigma=1e-10)
    order = np.argsort(np.abs(vals))[:k]
    return vals[order], [vecs[:, i] for i in order]


def dense_spectrum(u_wedge, nonlinearity, mu, d):
    """All eigenvalues of the full-square Jacobian (dense oracle)."""
    _, jac = full_square_jacobian(u_wedge, nonlinearity, mu, d)
    return np.linalg.eigvalsh(jac.toarray())


# ---------------------------------------------------------------------------
# crossings at folds


def crossing_count_at_fold(branch, fold_index, nonlinearity, window=None,
                           zero_tol=1e-8, fold_point=None):
    """Number of eigenvalues crossing zero at a fold along a branch.

    The count is the difference of inertia-based unstable counts at bracket
    points on either side of the fold.  The crossing eigenvalues pass the
    origin staggered around the fold, so the counts are cross-validated at
    nested bracket distances (``window`` and twice that): a disagreement
    means the window sits inside the crossing region, or an event hides in
    it, and raises :class:`AmbiguousCrossing`.  Pass the refined
    ``fold_point`` for a sharp fold-parameter estimate.
    """
    pts = branch.points
    if fold_point is not None:
        p_fold = getattr(fold_point, branch.parameter)
    else:
        lo = max(fold_index - 2, 0)
        hi = min(fold_index + 2, len(pts))
        local = [getattr(pt, branch.parameter) for pt in pts[lo:hi]]
        inward = getattr(pts[max(fold_index - 3, 0)], branch.parameter)
        # the branch folds back: the extremal local value estimates the fold
        p_fold = max(local) if inward < np.median(local) else min(local)
    if window is None:
        window = 0.0
    other_events = {i for i, kind in getattr(branch, "events", [])
                    if i != fold_index and kind == "fold"}

    def bracket(start, direction, w):
        i = start
        while True:
            if abs(getattr(pts[i], branch.parameter) - p_fold) >= w:
                return i
            j = i + direction
            if not (0 <= j < len(pts)) or j in other_events:
                return i
            i = j

    cache = {}

    def count_at(i):
        if i not in cache:
            pt = pts[i]
            rep = unstable_count(pt.u, nonlinearity, pt.mu, pt.d,
                                 zero_tol=zero_tol)
            if rep.n_zero:
                raise AmbiguousCrossing(
                    f"near-zero eigenvalue at bracket point {i}"
                )
            cache[i] = rep.n_unstable
        return cache[i]

    # pts[fold_index - 1] may sit on either side of the extremum (the secant
    # tangent lags by a point), so the before side starts at fold_index - 2
    sides = []
    for start, direction in ((max(fold_index - 2, 0), -1), (fold_index, +1)):
        n1 = count_at(bracket(start, direction, window))
        n2 = count_at(bracket(start, direction, 2 * window))
        if n1 != n2:
            raise AmbiguousCrossing(
                f"unstable count not settled within the window: {n1} vs {n2}"
            )
        sides.append(n1)
    return abs(sides[1] - sides[0])


# ---------------------------------------------------------------------------
# D4 isotypic decomposition


def vbar_unstable_reference(N, M, symmetry):
    """Reference unstable counts for the v-bar(N, M) family, both indexings.

    The decoupled-limit count equals the D4 orbit size of the middle-root
    cell (N, M): 4 on the diagonal (M = N), 8 otherwise for off-site
    patterns.  The source theorem instead attributes the count four to
    M = N-1; both are reported so the discrepancy stays visible.
    """
    return {
        "orbit_size": lattice.orbit_size((N, M), symmetry),
        "theorem_m_indexing": 4 if M == N - 1 else 8,
    }


def isotypic_projection(values, grid, tag):
    """Projection of a full-square field onto an isotypic component."""
    perms = lattice.action_permutations(grid)
    chars = lattice.CHARACTERS[tag]
    acc = np.zeros_like(values, dtype=float)
    for chi, p in zip(chars, perms):
        if chi:
            acc += chi * values[p]
    return (_DIMS[tag] / 8.0) * acc


def isotypic_projections(v):
    """All five character projections of a field, unfolded to the full
    square."""
    v = lattice.unfold(v)
    return {tag: lattice.Field(v.grid,
                               isotypic_projection(v.values, v.grid, tag))
            for tag in ISOTYPIC_TAGS}


def isotypic_classify(v):
    """Dominant isotypic tag of a field plus all projection norms."""
    projs = isotypic_projections(v)
    norms = {tag: float(np.linalg.norm(p.values)) for tag, p in projs.items()}
    tag = max(norms, key=norms.get)
    return tag, norms
