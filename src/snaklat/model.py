"""Bistable nonlinearities and anti-continuum patterns.

Three built-in reaction terms cover the bistability classes whose window
endpoints are, respectively, (pitchfork, fold), (transcritical, fold), and
(transcritical, transcritical):

* ``cubic_quintic``:   f(u, mu) = -mu*u + 2u^3 - u^5
* ``quadratic_cubic``: f(u, mu) = -mu*u + 2u^2 - u^3
* ``cubic_logistic``:  f(u, mu) = u(u - mu)(1 - u)

On the window mu in (0, 1) each has nonnegative roots 0 <= u_-(mu) < u_+(mu)
with f' negative at 0 and u_+ and positive at u_-.  A ``polynomial`` family
accepts arbitrary coefficients c[j][k] of mu^j u^k and locates the roots by
bracketed bisection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice

PITCHFORK = "pitchfork"
FOLD = "fold"
TRANSCRITICAL = "transcritical"

FAMILIES = ("cubic_quintic", "quadratic_cubic", "cubic_logistic", "polynomial")


class Nonlinearity:
    """A bistable reaction term with derivatives and root functions.

    Attributes
    ----------
    family : str
    f, f_u, f_mu, f_uu, f_umu : callable
        The reaction term and its derivatives, each called as ``(u, mu)``.
    window : (float, float)
        The closed bistable parameter window, (0, 1) for the built-ins.
    endpoint_lo, endpoint_hi : str
        Bifurcation type at the lower/upper window endpoint.
    odd : bool
        Whether f(-u, mu) = -f(u, mu).
    """

    def __init__(self, family, f, f_u, f_mu, f_uu, f_umu, u_minus, u_plus,
                 endpoint_lo, endpoint_hi, window=(0.0, 1.0), odd=False):
        self.family = family
        self.f = f
        self.f_u = f_u
        self.f_mu = f_mu
        self.f_uu = f_uu
        self.f_umu = f_umu
        self._u_minus = u_minus
        self._u_plus = u_plus
        self.endpoint_lo = endpoint_lo
        self.endpoint_hi = endpoint_hi
        self.window = window
        self.odd = odd

    def __call__(self, u, mu):
        return self.f(u, mu)

    def u_minus(self, mu):
        self._check_window(mu)
        return self._u_minus(mu)

    def u_plus(self, mu):
        self._check_window(mu)
        return self._u_plus(mu)

    def _check_window(self, mu):
        lo, hi = self.window
        if not (lo <= mu <= hi):
            raise ValueError(f"mu={mu} outside the bistable window [{lo}, {hi}]")

    def __repr__(self):
        return f"Nonlinearity({self.family!r})"


def cubic_quintic():
    return Nonlinearity(
        "cubic_quintic",
        f=lambda u, mu: -mu * u + 2.0 * u**3 - u**5,
        f_u=lambda u, mu: -mu + 6.0 * u**2 - 5.0 * u**4,
        f_mu=lambda u, mu: -u + 0.0 * mu,
        f_uu=lambda u, mu: 12.0 * u - 20.0 * u**3,
        f_umu=lambda u, mu: -1.0 + 0.0 * u,
        u_minus=lambda mu: np.sqrt(1.0 - np.sqrt(1.0 - mu)),
        u_plus=lambda mu: np.sqrt(1.0 + np.sqrt(1.0 - mu)),
        endpoint_lo=PITCHFORK,
        endpoint_hi=FOLD,
        odd=True,
    )


def quadratic_cubic():
    return Nonlinearity(
        "quadratic_cubic",
        f=lambda u, mu: -mu * u + 2.0 * u**2 - u**3,
        f_u=lambda u, mu: -mu + 4.0 * u - 3.0 * u**2,
        f_mu=lambda u, mu: -u + 0.0 * mu,
        f_uu=lambda u, mu: 4.0 - 6.0 * u,
        f_umu=lambda u, mu: -1.0 + 0.0 * u,
        u_minus=lambda mu: 1.0 - np.sqrt(1.0 - mu),
        u_plus=lambda mu: 1.0 + np.sqrt(1.0 - mu),
        endpoint_lo=TRANSCRITICAL,
        endpoint_hi=FOLD,
    )


def cubic_logistic():
    return Nonlinearity(
        "cubic_logistic",
        f=lambda u, mu: u * (u - mu) * (1.0 - u),
        f_u=lambda u, mu: -mu + 2.0 * (1.0 + mu) * u - 3.0 * u**2,
        f_mu=lambda u, mu: -u + u**2,
        f_uu=lambda u, mu: 2.0 * (1.0 + mu) - 6.0 * u,
        f_umu=lambda u, mu: -1.0 + 2.0 * u,
        u_minus=lambda mu: mu + 0.0 * mu,
        u_plus=lambda mu: 1.0 + 0.0 * mu,
        endpoint_lo=TRANSCRITICAL,
        endpoint_hi=TRANSCRITICAL,
    )


def polynomial(coefficients, endpoint_lo=None, endpoint_hi=None,
               window=(0.0, 1.0)):
    """Custom family f(u, mu) = sum_{j,k} c[j][k] mu^j u^k.

    ``coefficients`` is a nested sequence with c[j][k] the coefficient of
    mu^j u^k.  Roots u_-(mu) < u_+(mu) are located by scanning (0, 4] for
    sign changes of f and refining each bracket by bisection (an exact zero
    at a scan node is a root as it stands); u_- is the root where f_u > 0.
    """
    c = np.atleast_2d(np.asarray(coefficients, dtype=float))

    def _eval(table, u, mu):
        acc = 0.0
        for j in range(table.shape[0]):
            row = 0.0
            for k in range(table.shape[1] - 1, -1, -1):
                row = row * u + table[j, k]
            acc = acc + row * mu**j
        return acc

    c_u = np.zeros_like(c)
    c_u[:, :-1] = c[:, 1:] * np.arange(1, c.shape[1])
    c_uu = np.zeros_like(c)
    c_uu[:, :-1] = c_u[:, 1:] * np.arange(1, c.shape[1])
    c_mu = np.zeros_like(c)
    c_mu[:-1, :] = c[1:, :] * np.arange(1, c.shape[0])[:, None]
    c_umu = np.zeros_like(c)
    c_umu[:-1, :] = c_u[1:, :] * np.arange(1, c.shape[0])[:, None]

    def positive_roots(mu):
        us = np.linspace(0.0, 4.0, 2049)
        vals = _eval(c, us[1:], mu)
        # a root landing exactly on a scan node has sign 0 and brackets
        # nothing, so it is taken as it is
        roots = list(us[1:][vals == 0.0])
        for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0):
            a, b = us[1 + i], us[2 + i]
            for _ in range(200):
                mid = 0.5 * (a + b)
                if _eval(c, a, mu) * _eval(c, mid, mu) <= 0:
                    b = mid
                else:
                    a = mid
            roots.append(0.5 * (a + b))
        return sorted(roots)

    def u_minus(mu):
        roots = [r for r in positive_roots(mu) if _eval(c_u, r, mu) > 0]
        if not roots:
            raise ValueError(f"no unstable positive root at mu={mu}")
        return roots[0]

    def u_plus(mu):
        roots = [r for r in positive_roots(mu) if _eval(c_u, r, mu) < 0]
        if not roots:
            raise ValueError(f"no stable positive root at mu={mu}")
        return roots[-1]

    return Nonlinearity(
        "polynomial",
        f=lambda u, mu: _eval(c, u, mu),
        f_u=lambda u, mu: _eval(c_u, u, mu),
        f_mu=lambda u, mu: _eval(c_mu, u, mu),
        f_uu=lambda u, mu: _eval(c_uu, u, mu),
        f_umu=lambda u, mu: _eval(c_umu, u, mu),
        u_minus=u_minus,
        u_plus=u_plus,
        endpoint_lo=endpoint_lo,
        endpoint_hi=endpoint_hi,
        window=window,
    )


def builtin_nonlinearity(family, coefficients=None):
    """Look up a nonlinearity by its config name."""
    if family == "cubic_quintic":
        return cubic_quintic()
    if family == "quadratic_cubic":
        return quadratic_cubic()
    if family == "cubic_logistic":
        return cubic_logistic()
    if family == "polynomial":
        if coefficients is None:
            raise ValueError("polynomial family needs model.coefficients")
        return polynomial(coefficients)
    raise ValueError(f"unknown nonlinearity family: {family!r}")


# ---------------------------------------------------------------------------
# anti-continuum patterns


UBAR = "ubar"
VBAR = "vbar"


@dataclass(frozen=True)
class PatternId:
    """Label (N, M, variant) of a decoupled-limit pattern on the wedge."""

    N: int
    M: int
    variant: str
    symmetry: str

    def __post_init__(self):
        if not (1 <= self.M <= self.N):
            raise ValueError(f"need 1 <= M <= N, got (N, M) = ({self.N}, {self.M})")
        if self.variant not in (UBAR, VBAR):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.symmetry not in (lattice.OFFSITE, lattice.ONSITE):
            raise ValueError(f"unknown symmetry {self.symmetry!r}")


def anti_continuum_pattern(pattern, mu, nonlinearity, grid=None, n_d=None):
    """The exact decoupled-limit state for a pattern id at parameter mu.

    The u-variant puts the upper stable root u_+ on the filled block
    {1 <= m <= n < N} plus the first M cells of column N; the v-variant puts
    the middle root u_- at cell (N, M) instead.
    """
    if grid is None:
        grid = lattice.wedge(n_d if n_d is not None else pattern.N + 4,
                             pattern.symmetry)
    if grid.symmetry != pattern.symmetry:
        raise ValueError("grid symmetry does not match the pattern")
    if pattern.N > grid.half_width:
        raise ValueError(
            f"pattern exceeds domain: N={pattern.N} > N_d={grid.half_width}"
        )
    up = float(nonlinearity.u_plus(mu))
    um = float(nonlinearity.u_minus(mu))
    vals = np.zeros(grid.size)
    for i, (n, m) in enumerate(grid.sites()):
        if m <= n < pattern.N:
            vals[i] = up
        elif n == pattern.N:
            if pattern.variant == UBAR:
                if m <= pattern.M:
                    vals[i] = up
            else:
                if m < pattern.M:
                    vals[i] = up
                elif m == pattern.M:
                    vals[i] = um
    return lattice.Field(grid, vals)


def gamma_path(n_star, symmetry=lattice.OFFSITE):
    """Traversal order of the decoupled-limit skeleton up to width ``n_star``.

    Returns ``(segments, junctions, exceptional)`` where segments is the
    ordered list of ``(PatternId, (mu_from, mu_to))`` traversed from the
    trivial state to u-bar(N*, N*), junctions records the pattern pair meeting
    at each endpoint value of mu, and exceptional is the set of (pattern, mu)
    entries where persistence is unproven.
    """
    if n_star < 2:
        raise ValueError("n_star must be at least 2")
    segments = []
    junctions = []
    for n in range(1, n_star + 1):
        for m in range(1, n + 1):
            vbar = PatternId(n, m, VBAR, symmetry)
            ubar = PatternId(n, m, UBAR, symmetry)
            segments.append((vbar, (0.0, 1.0)))
            segments.append((ubar, (1.0, 0.0)))
            junctions.append((vbar, ubar, 1.0))
            if (n, m) == (n_star, n_star):
                continue
            nxt = PatternId(n, m + 1, VBAR, symmetry) if m < n else \
                PatternId(n + 1, 1, VBAR, symmetry)
            junctions.append((ubar, nxt, 0.0))
    return segments, junctions, exceptional_set(n_star, symmetry)


def exceptional_set(n_star, symmetry=lattice.OFFSITE):
    """Patterns where persistence through the window endpoint is unproven."""
    out = []
    for n in range(3, n_star + 1):
        out.append((PatternId(n, n, UBAR, symmetry), 0.0))
    for n in range(2, n_star + 1):
        for m in range(2, n - 1):
            out.append((PatternId(n, m, UBAR, symmetry), 1.0))
    return out
