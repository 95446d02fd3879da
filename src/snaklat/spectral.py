"""Stability analysis on the unfolded full-square Neumann domain and on
its symmetry blocks.

Unstable-eigenvalue counts come from the inertia of the Jacobian: on any
orbit-space grid, :func:`count_above` factors J - threshold*I once with
LAPACK's banded LU, on the band image of L the Newton corrector factors,
and counts the positive pivots when the factorization made no row
interchange and its pivots and growth check out.  Otherwise it declines to
the oracle on the symmetric form: a fill-reducing sparse LDL^T
(:func:`ldl_inertia`), and, when its pivots do not check out either, a
dense symmetric eigensolve, which the property tests compare against.
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
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from . import lattice, solver


class FactorizationFailure(solver.SolverError):
    pass


class AmbiguousCrossing(solver.SolverError):
    pass


ISOTYPIC_TAGS = ("trivial", "sign1", "sign2", "sign3", "two_dim")

# matrix order up to which near-zero eigenpairs come from a dense eigh;
# larger matrices use shift-invert Lanczos
DENSE_EIG_MAX = 900

# largest max|U| / max|A| that ldl_inertia and count_above trust; the
# Jacobians of the lattice problem stay below 10
LDL_GROWTH_MAX = 1e6

# eigenvalues within ZERO_TOL * max(1, d max|f_u|) of zero count as zero
ZERO_TOL = 1e-8

_DIMS = {"trivial": 1, "sign1": 1, "sign2": 1, "sign3": 1, "two_dim": 2}


# ---------------------------------------------------------------------------
# inertia via sparse LDL^T


def ldl_inertia(matrix):
    """Counts (n_pos, n_neg) of the eigenvalue signs of a symmetric matrix.

    SuperLU factorizes P A P^T = L U with a fill-reducing symmetric
    ordering and diagonal pivots only, so U = D L^T and, by Sylvester's law,
    the signs of diag(U) are the eigenvalue signs.  Raises
    :class:`FactorizationFailure` when SuperLU left the diagonal (row and
    column permutations differ), a pivot is not larger than 1e-14 times
    the largest entry (and at least 1e-14), or the factor grew past
    ``LDL_GROWTH_MAX`` times the largest entry of the matrix: without
    pivoting a tiny pivot that clears the pivot bound can still swamp its
    Schur complement, and the pivot signs then count a different matrix.
    """
    csc = sp.csc_matrix(matrix)
    scale = np.max(np.abs(csc.data), initial=0.0)
    try:
        lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options={"SymmetricMode": True})
    except RuntimeError as exc:  # exactly singular
        raise FactorizationFailure(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailure("off-diagonal pivot")
    pivots = lu.U.diagonal()
    smallest = np.min(np.abs(pivots))
    if not smallest > 1e-14 * max(scale, 1.0):  # a NaN pivot fails too
        raise FactorizationFailure(f"pivot breakdown: {smallest:.3e}")
    growth = np.max(np.abs(lu.U.data)) / scale
    if not growth <= LDL_GROWTH_MAX:
        raise FactorizationFailure(f"element growth: {growth:.3e}")
    n_pos = int(np.sum(pivots > 0))
    return n_pos, pivots.size - n_pos


def eigencount_above(matrix, threshold):
    """Number of eigenvalues of a symmetric matrix strictly above threshold:
    the inertia of the shifted matrix by :func:`ldl_inertia`, or, when that
    declines, by a dense eigensolve."""
    shifted = matrix - threshold * sp.eye(matrix.shape[0])
    try:
        return ldl_inertia(shifted)[0]
    except FactorizationFailure:
        return int(np.sum(np.linalg.eigvalsh(shifted.toarray()) > 0))


def count_above(grid, d, diag, threshold):
    """Number of eigenvalues of the Jacobian d*L + diag(diag) on the
    orbit-space grid ``grid`` strictly above ``threshold``.

    On every orbit-space grid J = W^(-1/2) S W^(1/2), with W the orbit
    weights and S = :func:`lattice.symmetric_form` of J symmetric.  A
    diagonal similarity keeps every leading principal minor, and the pivots
    of elimination without row interchanges are ratios of those minors, so
    J's pivots are the pivots of S = L D L^T, whose signs are S's inertia
    (Sylvester's law).  One LAPACK dgbtrf of J - threshold*I, filled from
    the grid's band image of L, gives the count as its number of positive
    pivots when it made no row interchange (then U = D L^T up to the
    similarity), every pivot exceeds 1e-14 max(max|A|, 1) in modulus and
    max|U| / max|A| <= LDL_GROWTH_MAX.  Otherwise it declines to the oracle,
    :func:`eigencount_above` on S.  Counts by path go to
    :func:`solver.counting`.
    """
    band = solver._band(grid)
    kl, ku = band.kl, band.ku
    ab = d * band.image
    ab[:, kl + ku] += diag - threshold
    scale = np.max(np.abs(ab))
    lu, piv, info = lapack.dgbtrf(ab.T, kl, ku, overwrite_ab=1)
    pivots = lu[kl + ku]
    if (info == 0 and np.array_equal(piv, np.arange(grid.size))
            # a NaN pivot fails too
            and np.min(np.abs(pivots)) > 1e-14 * max(scale, 1.0)
            and np.max(np.abs(lu[kl:kl + ku + 1])) <= LDL_GROWTH_MAX * scale):
        solver._count("inertia", "banded")
        return int(np.sum(pivots > 0))
    solver._count("inertia", "fallback")
    return eigencount_above(_symmetric_jacobian(grid, d, diag), threshold)


def _symmetric_jacobian(grid, d, diag):
    return lattice.symmetric_form(solver.bordered_matrix(grid, d, diag),
                                  lattice.orbit_weights(grid))


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


def block_diagonal(u, nonlinearity, mu, grid):
    """f_u at the state ``u`` folded onto the orbit-space grid ``grid`` on
    the same window, whose group must fix ``u``: the diagonal of the
    Jacobian block d*L + diag(f_u) of the grid's symmetry type."""
    if not set(grid.group) <= set(lattice.isotropy(u)):
        raise ValueError(f"the state is not fixed by {grid.group}")
    return nonlinearity.f_u(lattice.fold(lattice.unfold(u), grid).values, mu)


def symmetric_block(u, nonlinearity, mu, d, grid):
    """Symmetric form of the Jacobian at the state ``u`` restricted to the
    orbit-space grid ``grid`` (see :func:`block_diagonal`): the block of the
    full-square Jacobian on the fields of the grid's symmetry type.  Its
    eigenvectors are fields on the grid times the square roots of the orbit
    weights."""
    return _symmetric_jacobian(grid, d,
                               block_diagonal(u, nonlinearity, mu, grid))


def zero_band(diag, d):
    """tau = ZERO_TOL * max(1, d * max|diag|) for the Jacobian d*L +
    diag(diag); (-tau, tau) counts as zero."""
    return ZERO_TOL * max(1.0, abs(d) * float(np.max(np.abs(diag))))


def unstable_count(u_wedge, nonlinearity, mu, d):
    """Inertia-based stability report on the unfolded Neumann square.

    ``n_unstable`` counts eigenvalues above +tau and ``n_zero`` those within
    (-tau, tau), with tau = ZERO_TOL * max(1, d * max|f_u|).
    """
    u_full = lattice.unfold(u_wedge)
    diag = nonlinearity.f_u(u_full.values, mu)
    tau = zero_band(diag, d)
    n_above = count_above(u_full.grid, d, diag, tau)
    return SpectrumReport(
        n_unstable=n_above,
        n_zero=count_above(u_full.grid, d, diag, -tau) - n_above, tau=tau)


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


def crossing_count_at_fold(branch, fold_index, nonlinearity, window,
                           fold_point=None):
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
            rep = unstable_count(pt.u, nonlinearity, pt.mu, pt.d)
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
