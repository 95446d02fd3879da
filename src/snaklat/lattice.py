"""Computational domains, D4 symmetry actions, and the discrete Laplacian.

Two kinds of domain are supported: the symmetry-reduced wedge
``{(n, m): 1 <= m <= n <= N_d}`` representing one eighth of the plane, and
truncated full squares used for stability analysis and asymmetric states.
Off-site fields are symmetric about the plaquette center (1/2, 1/2), on-site
fields about the lattice site (1, 1).

The Laplacian is the 5-point stencil closed by (a) folding out-of-wedge
neighbors back into the wedge through the symmetry group and (b) first-order
mirror ghost cells (``u_outside = u_boundary``) at the outer truncation
boundary.  Folding accumulates multiplicities, so the wedge operator is not
symmetric as a plain matrix; it is self-adjoint in the orbit-weighted inner
product, and :func:`symmetric_form` exposes the similarity-transformed
symmetric matrix used for eigenvalue counting.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

OFFSITE = "offsite"
ONSITE = "onsite"

WEDGE = "wedge"
FULL = "full"

# D4 elements as affine maps (n, m) -> (a11*n + a12*m + b1, a21*n + a22*m + b2),
# ordered: identity, rot90, rot180, rot270, mirror_v, mirror_h, mirror_diag,
# mirror_anti.  For the off-site action the center is (1/2, 1/2); on-site (1, 1).
_ELEMENT_NAMES = ("e", "r90", "r180", "r270", "mv", "mh", "md", "ma")

_LINEAR_PARTS = (
    (1, 0, 0, 1),    # e
    (0, -1, 1, 0),   # r90
    (-1, 0, 0, -1),  # r180
    (0, 1, -1, 0),   # r270
    (-1, 0, 0, 1),   # mv : n -> c - n
    (1, 0, 0, -1),   # mh : m -> c - m
    (0, 1, 1, 0),    # md : swap
    (0, -1, -1, 0),  # ma : anti-diagonal
)

# D4 characters on the elements in the order above; ``two_dim`` is the trace
# of the two-dimensional representation
CHARACTERS = {
    "trivial": (1, 1, 1, 1, 1, 1, 1, 1),
    "sign1": (1, 1, 1, 1, -1, -1, -1, -1),
    "sign2": (1, -1, 1, -1, 1, 1, -1, -1),
    "sign3": (1, -1, 1, -1, -1, -1, 1, 1),
    "two_dim": (2, 0, -2, 0, 0, 0, 0, 0),
}


def _group(symmetry):
    """The eight affine maps of the D4 action for the given symmetry class."""
    if symmetry == OFFSITE:
        cx = cy = 0.5
    elif symmetry == ONSITE:
        cx = cy = 1.0
    else:
        raise ValueError(f"unknown symmetry class: {symmetry!r}")
    elems = []
    for a11, a12, a21, a22 in _LINEAR_PARTS:
        b1 = cx - (a11 * cx + a12 * cy)
        b2 = cy - (a21 * cx + a22 * cy)
        elems.append((a11, a12, int(round(b1)), a21, a22, int(round(b2))))
    return tuple(elems)


def apply_element(elem, n, m):
    a11, a12, b1, a21, a22, b2 = elem
    return (a11 * n + a12 * m + b1, a21 * n + a22 * m + b2)


def group_elements(symmetry):
    return _group(symmetry)


def element_names():
    return _ELEMENT_NAMES


def orbit(site, symmetry):
    """Full-lattice D4 orbit of a site, as a sorted tuple."""
    n, m = site
    return tuple(sorted({apply_element(g, n, m) for g in _group(symmetry)}))


def orbit_size(site, symmetry):
    return len(orbit(site, symmetry))


def fold_site(site, symmetry):
    """Map a lattice site into the wedge 1 <= m <= n.

    Returns ``((n, m), k)`` where k indexes the group element that was
    applied.  The wedge is a strict fundamental domain for both actions, so
    the image is unique.
    """
    n, m = site
    for k, g in enumerate(_group(symmetry)):
        fn, fm = apply_element(g, n, m)
        if 1 <= fm <= fn:
            return (fn, fm), k
    raise AssertionError(f"site {site} has no wedge image")  # pragma: no cover


@dataclass(frozen=True)
class GridSpec:
    """A finite index set with flat row-major (n, then m) ordering."""

    kind: str
    half_width: int
    symmetry: str | None
    n_min: int
    n_max: int

    def __post_init__(self):
        if self.kind not in (WEDGE, FULL):
            raise ValueError(f"unknown grid kind: {self.kind!r}")
        if self.half_width < 1:
            raise ValueError("half_width must be positive")
        if self.kind == WEDGE and self.symmetry not in (OFFSITE, ONSITE):
            raise ValueError("wedge grids require an offsite or onsite symmetry")
        if self.symmetry not in (OFFSITE, ONSITE, None):
            raise ValueError(f"unknown symmetry class: {self.symmetry!r}")

    @property
    def size(self):
        if self.kind == WEDGE:
            return self.half_width * (self.half_width + 1) // 2
        w = self.n_max - self.n_min + 1
        return w * w

    @property
    def width(self):
        return self.n_max - self.n_min + 1

    def contains(self, n, m):
        if self.kind == WEDGE:
            return 1 <= m <= n <= self.half_width
        return self.n_min <= n <= self.n_max and self.n_min <= m <= self.n_max

    def index(self, n, m):
        if not self.contains(n, m):
            raise KeyError(f"site ({n}, {m}) not in grid")
        if self.kind == WEDGE:
            return n * (n - 1) // 2 + (m - 1)
        return (n - self.n_min) * self.width + (m - self.n_min)

    def sites(self):
        """Array of shape (size, 2) listing (n, m) in flat order."""
        return _sites_cached(self)


@lru_cache(maxsize=None)
def _sites_cached(grid):
    if grid.kind == WEDGE:
        out = [(n, m) for n in range(1, grid.half_width + 1) for m in range(1, n + 1)]
    else:
        rng = range(grid.n_min, grid.n_max + 1)
        out = [(n, m) for n in rng for m in rng]
    arr = np.array(out, dtype=int)
    arr.setflags(write=False)
    return arr


def wedge(n_d, symmetry):
    return GridSpec(WEDGE, n_d, symmetry, 1, n_d)


def full_square(n_d, symmetry, window=None):
    """Full truncated square.

    For ``symmetry=None`` the index window is ambiguous, so ``window`` picks
    the off-site window [1-N_d, N_d] (default) or the on-site one [2-N_d, N_d].
    """
    if symmetry == OFFSITE:
        n_min = 1 - n_d
    elif symmetry == ONSITE:
        n_min = 2 - n_d
    elif symmetry is None:
        w = OFFSITE if window is None else window
        n_min = 1 - n_d if w == OFFSITE else 2 - n_d
    else:
        raise ValueError(f"unknown symmetry class: {symmetry!r}")
    return GridSpec(FULL, n_d, symmetry, n_min, n_d)


@dataclass
class Field:
    """Real-valued function on a grid, stored as a flat array."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"values have shape {self.values.shape}, grid size {self.grid.size}"
            )

    def copy(self):
        return Field(self.grid, self.values.copy())

    def norm_inf(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def __getitem__(self, site):
        return self.values[self.grid.index(*site)]


def zeros(grid):
    return Field(grid, np.zeros(grid.size))


def constant(grid, c):
    return Field(grid, np.full(grid.size, float(c)))


def orbit_weights(grid):
    """Orbit sizes per flat index (all ones on full squares)."""
    return _orbit_weights_cached(grid)


@lru_cache(maxsize=None)
def _orbit_weights_cached(grid):
    if grid.kind == FULL:
        return np.ones(grid.size)
    return np.array(
        [orbit_size((n, m), grid.symmetry) for n, m in grid.sites()], dtype=float
    )


@lru_cache(maxsize=None)
def unfold_index_map(grid):
    """For a wedge grid: full-square flat index -> wedge flat index."""
    full = full_square(grid.half_width, grid.symmetry)
    idx = np.empty(full.size, dtype=int)
    for i, (n, m) in enumerate(full.sites()):
        (fn, fm), _ = fold_site((n, m), grid.symmetry)
        idx[i] = grid.index(fn, fm)
    idx.setflags(write=False)
    return idx


def unfold(field, window=None):
    """Extend a wedge field to the D4-symmetric field on the full square."""
    grid = field.grid
    if grid.kind != WEDGE:
        raise ValueError("unfold expects a wedge field")
    if grid.symmetry is None:
        raise ValueError("unfold requires a symmetry class")
    full = full_square(grid.half_width, grid.symmetry)
    return Field(full, field.values[unfold_index_map(grid)])


def fold(field):
    """Restrict a full-square field to the wedge of its symmetry class."""
    grid = field.grid
    if grid.kind != FULL or grid.symmetry is None:
        raise ValueError("fold expects a full-square field with a symmetry class")
    wg = wedge(grid.half_width, grid.symmetry)
    out = np.array([field.values[grid.index(n, m)] for n, m in wg.sites()])
    return Field(wg, out)


def symmetrize(values, grid, symmetry):
    """Group-average a full-square field over the chosen D4 action."""
    if grid.kind != FULL:
        raise ValueError("symmetrize expects a full-square grid")
    perms = action_permutations(grid, symmetry)
    acc = np.zeros_like(values, dtype=float)
    for p in perms:
        acc += values[p]
    return acc / len(perms)


@lru_cache(maxsize=None)
def _action_permutations_cached(grid, symmetry):
    sites = grid.sites()
    perms = []
    for g in _group(symmetry):
        idx = np.empty(grid.size, dtype=int)
        for i, (n, m) in enumerate(sites):
            # (g.v)(x) = v(g^{-1} x); for our involutive generator set the
            # inverse of each element is again in the list, so permute by the
            # inverse image directly.
            gn, gm = apply_element(_invert(g), n, m)
            if not grid.contains(gn, gm):
                raise ValueError(
                    f"grid window is not invariant under the {symmetry} action"
                )
            idx[i] = grid.index(gn, gm)
        perms.append(idx)
    return tuple(perms)


def action_permutations(grid, symmetry):
    """Index permutations realizing the eight group elements on a full grid."""
    return _action_permutations_cached(grid, symmetry)


def _invert(elem):
    a11, a12, b1, a21, a22, b2 = elem
    # linear part is orthogonal with integer entries; inverse is the transpose
    i11, i12, i21, i22 = a11, a21, a12, a22
    return (i11, i12, -(i11 * b1 + i12 * b2), i21, i22, -(i21 * b1 + i22 * b2))


def laplacian_matrix(grid):
    """Sparse matrix of the discrete Laplacian action on the grid.

    Wedge rows fold out-of-domain neighbors through the symmetry maps
    (multiplicities accumulate; this is the trivial case of
    :func:`character_laplacian`); sites beyond the outer boundary n = N_d
    use mirror ghosts.  Full squares use mirror ghosts on all four edges.
    Row sums vanish on every grid.
    """
    return _laplacian_cached(grid)


@lru_cache(maxsize=None)
def _laplacian_cached(grid):
    if grid.kind == WEDGE:
        return _character_laplacian_cached(grid, "trivial")[0]
    lo, hi = grid.n_min, grid.n_max
    rows, cols, vals = [], [], []
    for i, (n, m) in enumerate(grid.sites()):
        rows.append(i)
        cols.append(i)
        vals.append(-4.0)
        for nn, mm in ((n + 1, m), (n - 1, m), (n, m + 1), (n, m - 1)):
            rows.append(i)
            cols.append(grid.index(min(max(nn, lo), hi), min(max(mm, lo), hi)))
            vals.append(1.0)
    mat = sp.csr_matrix(
        (vals, (rows, cols)), shape=(grid.size, grid.size), dtype=float
    )
    mat.sum_duplicates()
    return mat


def character_laplacian(grid, rep):
    """Folded wedge Laplacian twisted by a one-dimensional character.

    Out-of-wedge neighbors fold back with weight chi(g) of the folding
    element.  A site fixed by an element of character -1 carries no field
    of the representation, so contributions landing there vanish.  Returns
    ``(matrix, active_sites)``; the operator acts on fields restricted to
    the active sites.  Both are cached per (grid, rep) and must not be
    modified.
    """
    if grid.kind != WEDGE:
        raise ValueError("character laplacian expects a wedge grid")
    return _character_laplacian_cached(grid, rep)


@lru_cache(maxsize=None)
def _character_laplacian_cached(grid, rep):
    chars = CHARACTERS[rep]
    elems = _group(grid.symmetry)
    sites = grid.sites()
    act = np.array([
        i for i, (n, m) in enumerate(sites)
        if not any(chi == -1 and apply_element(g, n, m) == (n, m)
                   for g, chi in zip(elems, chars))], dtype=int)
    act.setflags(write=False)
    pos = {int(i): k for k, i in enumerate(act)}
    rows, cols, vals = [], [], []
    for k, i in enumerate(act):
        n, m = sites[i]
        rows.append(k)
        cols.append(k)
        vals.append(-4.0)
        for nn, mm in ((n + 1, m), (n - 1, m), (n, m + 1), (n, m - 1)):
            (fn, fm), g_idx = fold_site((nn, mm), grid.symmetry)
            # Neumann mirror ghost at the outer boundary
            j = grid.index(min(fn, grid.half_width), fm)
            if j in pos:
                rows.append(k)
                cols.append(pos[j])
                vals.append(float(chars[g_idx]))
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(len(act), len(act)),
                        dtype=float)
    mat.sum_duplicates()
    return mat, act


def laplacian_apply(field):
    """Apply the discrete Laplacian; total on well-formed fields."""
    return Field(field.grid, laplacian_matrix(field.grid) @ field.values)


def symmetric_form(matrix, weights):
    """Similarity transform D^(1/2) A D^(-1/2) with D = diag(weights).

    For the wedge Laplacian (and any Jacobian d*L + diag) this produces an
    exactly symmetric matrix with the same spectrum; residual asymmetry from
    rounding is removed explicitly.
    """
    s = np.sqrt(np.asarray(weights, dtype=float))
    d = sp.diags(s)
    dinv = sp.diags(1.0 / s)
    sym = d @ matrix @ dinv
    sym = (sym + sym.T) * 0.5
    return sym.tocsr()


# ---------------------------------------------------------------------------
# profile file I/O


def save_profile(field, path):
    """Write a profile as JSON: {grid: {kind, N_d, symmetry}, values: [...]}."""
    grid = field.grid
    obj = {
        "grid": {
            "kind": grid.kind,
            "N_d": grid.half_width,
            "symmetry": grid.symmetry,
        },
        "values": list(map(float, field.values)),
    }
    if grid.kind == FULL and grid.symmetry is None:
        obj["grid"]["window"] = OFFSITE if grid.n_min == 1 - grid.half_width else ONSITE
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_profile(path):
    with open(path) as fh:
        obj = json.load(fh)
    g = obj["grid"]
    if g["kind"] == WEDGE:
        grid = wedge(g["N_d"], g["symmetry"])
    else:
        grid = full_square(g["N_d"], g["symmetry"], window=g.get("window"))
    return Field(grid, np.array(obj["values"], dtype=float))


def export_csv(field, path):
    """Write rows (n, m, value) for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "value"])
        for (n, m), v in zip(field.grid.sites(), field.values):
            writer.writerow([n, m, repr(float(v))])
