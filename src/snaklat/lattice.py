"""Computational domains, D4 symmetry actions, and the discrete Laplacian.

Every grid is the orbit space of a subgroup Sigma of D4 acting on a
full-square window, twisted by a character chi of Sigma (a homomorphism to
{1, -1}).  The
window is [1-N_d, N_d]^2 for off-site fields, symmetric about the plaquette
center (1/2, 1/2), and [2-N_d, N_d]^2 for on-site fields, symmetric about
the lattice site (1, 1).  A field on the grid stands for the full-square
field with u(g x) = chi(g) u(x) for g in Sigma.  Its sites are the
lexicographically largest point of each Sigma-orbit, in ascending order,
less those fixed by an element with chi = -1 (the field vanishes there);
its weights are the orbit sizes.  The special cases are

* the wedge ``{(n, m): 1 <= m <= n <= N_d}``, one eighth of the plane,
  on which patterns are computed: (D4, trivial);
* the full square, for stability analysis and asymmetric states:
  ({e}, trivial);
* the sign components of the cusp finder and the fan: (D4, sign_k);
* the planes of the two-dimensional representation fixed by the mirror mh
  or md, for the fan's other directions: ({e, r180, mv, mh}, chi = -1 on
  r180 and mv) and ({e, r180, md, ma}, chi = -1 on r180 and ma);
* the fixed-point subspace Fix(Sigma) of an asymmetric branch:
  (Sigma, trivial).

The Laplacian is the 5-point stencil closed by first-order mirror ghost
cells (``u_outside = u_boundary``): each neighbor is clamped into the
window, then mapped to its orbit representative by some g in Sigma with
weight chi(g).  Folding accumulates multiplicities, so the operator is not
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

D4 = _ELEMENT_NAMES

# D4 characters on the elements in the order above; ``two_dim`` is the trace
# of the two-dimensional representation
CHARACTERS = {
    "trivial": (1, 1, 1, 1, 1, 1, 1, 1),
    "sign1": (1, 1, 1, 1, -1, -1, -1, -1),
    "sign2": (1, -1, 1, -1, 1, 1, -1, -1),
    "sign3": (1, -1, 1, -1, -1, -1, 1, 1),
    "two_dim": (2, 0, -2, 0, 0, 0, 0, 0),
}

SIGN_REPS = ("sign1", "sign2", "sign3")

# the planes of the two-dimensional representation fixed by a mirror, as
# (Sigma, chi): chi is -1 on r180 and on the other mirror in Sigma
MIRROR_PLANES = {"md": (("e", "r180", "md", "ma"), (1, -1, 1, -1)),
                 "mh": (("e", "r180", "mv", "mh"), (1, -1, -1, 1))}


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


def _product(g, h):
    """Name of the D4 element g h (h acts first)."""
    a, b = (np.reshape(_LINEAR_PARTS[_ELEMENT_NAMES.index(x)], (2, 2))
            for x in (g, h))
    return _ELEMENT_NAMES[_LINEAR_PARTS.index(tuple((a @ b).ravel()))]


@lru_cache(maxsize=None)
def _subgroup_character(group, rep):
    """(Sigma, chi) in D4 element order, chi as signs, from element names
    and one sign per element or the name of a D4 character; checks that
    Sigma is a subgroup and chi a homomorphism to {1, -1}."""
    names = set(group)
    if (not names or len(names) != len(group) or not names <= set(D4)
            or any(_product(g, h) not in names for g in names for h in names)):
        raise ValueError(f"not a subgroup of D4: {group!r}")
    signs = (tuple(dict(zip(D4, CHARACTERS.get(rep, ()))).get(g)
                   for g in group) if isinstance(rep, str) else rep)
    chi = dict(zip(group, signs))
    if (len(signs) != len(group) or chi["e"] != 1
            or any(chi[_product(g, h)] != chi[g] * chi[h]
                   for g in chi for h in chi)):
        raise ValueError(f"not a character of {group}: {rep!r}")
    names = tuple(g for g in D4 if g in chi)
    return names, tuple(int(chi[g]) for g in names)


@dataclass(frozen=True)
class GridSpec:
    """Orbit space of the subgroup ``group`` of D4 (element names) on the
    full-square window of ``half_width``, twisted by the character ``rep``
    of ``group``: one sign per element, stored in D4 element order, or the
    name of a one-dimensional D4 character for its restriction.
    ``symmetry`` is the center of the D4 action.  Sites have flat ascending
    (n, then m) order."""

    half_width: int
    symmetry: str
    group: tuple = D4
    rep: tuple | str = "trivial"

    def __post_init__(self):
        if self.half_width < 1:
            raise ValueError("half_width must be positive")
        if self.symmetry not in (OFFSITE, ONSITE):
            raise ValueError(f"unknown symmetry class: {self.symmetry!r}")
        rep = self.rep if isinstance(self.rep, str) else tuple(self.rep)
        group, rep = _subgroup_character(tuple(self.group), rep)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "rep", rep)

    @property
    def size(self):
        return len(site_indices(self))

    @property
    def n_min(self):
        return (1 if self.symmetry == OFFSITE else 2) - self.half_width

    @property
    def n_max(self):
        return self.half_width

    @property
    def width(self):
        return self.n_max - self.n_min + 1

    def index(self, n, m):
        sites = site_indices(self)
        full = (n - self.n_min) * self.width + (m - self.n_min)
        i = int(np.searchsorted(sites, full))
        if not (self.n_min <= min(n, m) and max(n, m) <= self.n_max
                and i < len(sites) and sites[i] == full):
            raise KeyError(f"site ({n}, {m}) not in grid")
        return i

    def sites(self):
        """Array of shape (size, 2) listing (n, m) in flat order."""
        return _orbit_space(self)[1]


def wedge(n_d, symmetry):
    return GridSpec(n_d, symmetry)


def full_square(n_d, symmetry):
    return GridSpec(n_d, symmetry, ("e",))


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


@lru_cache(maxsize=None)
def _window_permutations(n_d, symmetry):
    """Per D4 element g, the window index of g^-1 x for each window site x
    (window indices are row-major, so their order is lexicographic)."""
    window = full_square(n_d, symmetry)
    lo, w = window.n_min, window.width
    n, m = np.divmod(np.arange(w * w), w)
    perms = []
    for g in _group(symmetry):
        gn, gm = apply_element(_invert(g), n + lo, m + lo)
        perm = (gn - lo) * w + (gm - lo)
        perm.setflags(write=False)
        perms.append(perm)
    return tuple(perms)


@lru_cache(maxsize=None)
def _orbit_space(grid):
    """(site window indices, site coordinates, orbit weights, unfold index,
    unfold sign) of a grid; the unfold arrays run over the window, and a
    window site on a dropped orbit has sign 0 and index ``size``."""
    perms = _window_permutations(grid.half_width, grid.symmetry)
    elems = [_ELEMENT_NAMES.index(g) for g in grid.group]
    # g^-1 runs over Sigma as g does, and chi(g^-1) = chi(g)
    images = np.array([perms[k] for k in elems])
    chi = np.array(grid.rep)[:, None]
    rep = images.max(axis=0)
    hit = images == rep
    sign = (hit & (chi > 0)).any(axis=0) - 1.0 * (hit & (chi < 0)).any(axis=0)
    sites = np.flatnonzero(np.bincount(rep[sign != 0], minlength=len(rep)))
    index = np.where(sign != 0, np.searchsorted(sites, rep), len(sites))
    # orbit size |Sigma| / |stabilizer|
    weights = len(elems) / np.count_nonzero(images == np.arange(len(rep)),
                                            axis=0)
    coords = np.stack(np.divmod(sites, grid.width), axis=1) + grid.n_min
    out = (sites, coords, weights[sites], index, sign)
    for arr in out:
        arr.setflags(write=False)
    return out


def site_indices(grid):
    """Full-square flat index of each site of the grid."""
    return _orbit_space(grid)[0]


def orbit_weights(grid):
    """Orbit sizes per flat index (all ones on full squares)."""
    return _orbit_space(grid)[2]


def unfold(field):
    """Extend a field to the full square of its window: each site takes
    chi(g) times the value at its representative g x (0 on dropped orbits)."""
    grid = field.grid
    _, _, _, index, sign = _orbit_space(grid)
    return Field(full_square(grid.half_width, grid.symmetry),
                 sign * np.append(field.values, 0.0)[index])


def fold(field, grid):
    """Restrict a full-square field to a grid on its window: the values at
    the grid's sites."""
    if field.grid != full_square(grid.half_width, grid.symmetry):
        raise ValueError("fold expects a field on the full square of the "
                         "grid's window")
    return Field(grid, field.values[site_indices(grid)])


def action_permutations(grid):
    """Index permutations realizing the eight group elements on the full
    square of the grid's window: (g.v)(x) = v(g^-1 x) is ``v[perm]``."""
    return _window_permutations(grid.half_width, grid.symmetry)


def isotropy(field):
    """Names of the D4 elements that fix a field, unfolded to the full
    square, to 1e-8 of its largest value."""
    v = unfold(field).values
    bound = 1e-8 * np.max(np.abs(v))
    return tuple(name for name, p in zip(_ELEMENT_NAMES,
                                         action_permutations(field.grid))
                 if np.max(np.abs(v[p] - v)) <= bound)


def _invert(elem):
    a11, a12, b1, a21, a22, b2 = elem
    # linear part is orthogonal with integer entries; inverse is the transpose
    i11, i12, i21, i22 = a11, a21, a12, a22
    return (i11, i12, -(i11 * b1 + i12 * b2), i21, i22, -(i21 * b1 + i22 * b2))


def laplacian_matrix(grid):
    """Sparse matrix of the discrete Laplacian action on the grid.

    Each of the four neighbors is clamped into the window (the mirror
    ghost), then mapped to its orbit representative by some g in the
    grid's group with weight chi(g); contributions landing on dropped sites
    vanish and multiplicities accumulate.  Row sums vanish for the trivial
    character.  Cached per grid; must not be modified.
    """
    return _laplacian_cached(grid)


@lru_cache(maxsize=None)
def _laplacian_cached(grid):
    sites, coords, _, index, sign = _orbit_space(grid)
    lo, hi, w = grid.n_min, grid.n_max, grid.width
    n, m = coords.T
    nbrs = np.concatenate([
        (np.clip(a, lo, hi) - lo) * w + (np.clip(b, lo, hi) - lo)
        for a, b in ((n + 1, m), (n - 1, m), (n, m + 1), (n, m - 1))])
    k = np.arange(len(sites))
    rows = np.concatenate([k, np.tile(k, 4)])
    cols = np.concatenate([k, index[nbrs]])
    vals = np.concatenate([np.full(len(sites), -4.0), sign[nbrs]])
    keep = vals != 0
    mat = sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                        shape=(len(sites), len(sites)), dtype=float)
    mat.sum_duplicates()
    return mat


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

_PROFILE_KINDS = {"wedge": wedge, "full": full_square}


def save_profile(field, path):
    """Write a wedge or full-square profile as JSON:
    {grid: {kind, N_d, symmetry}, values: [...]}."""
    grid = field.grid
    kind = next((k for k, make in _PROFILE_KINDS.items()
                 if make(grid.half_width, grid.symmetry) == grid), None)
    if kind is None:
        raise ValueError("only wedge and full-square profiles are saved")
    obj = {
        "grid": {
            "kind": kind,
            "N_d": grid.half_width,
            "symmetry": grid.symmetry,
        },
        "values": list(map(float, field.values)),
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)


def load_profile(path):
    with open(path) as fh:
        obj = json.load(fh)
    g = obj["grid"]
    grid = _PROFILE_KINDS[g["kind"]](g["N_d"], g["symmetry"])
    return Field(grid, np.array(obj["values"], dtype=float))


def export_csv(field, path):
    """Write rows (n, m, value) for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "m", "value"])
        for (n, m), v in zip(field.grid.sites(), field.values):
            writer.writerow([n, m, repr(float(v))])
