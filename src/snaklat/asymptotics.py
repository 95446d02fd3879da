"""Closed-form fold-location laws and the rescaled reduced-system oracle.

The prediction table gives the leading-order fold location mu(d) for each of
the eight ways a snaking segment can terminate at a window endpoint.  The
tabulated constants are the normalized-gauge values (reaction term scaled so
that the leading Taylor coefficient at the endpoint is one and u_+ = 1
there); :func:`gauge_coefficient` converts them to the constants measured
for a concrete nonlinearity, which differ by a computable factor whenever
the nonlinearity is not already normalized.

The reduced systems are the exactly solvable algebraic problems obtained at
the blow-up limit of the endpoint scalings; their branches and fold points
are stored in closed form and tie back to the mu(d) laws through the
scaling identities (checked to 1e-14 in the tests).
"""

from __future__ import annotations

import math

import numpy as np

from . import solver

PITCHFORK_INTERIOR = "pitchfork_interior"
PITCHFORK_CORNER = "pitchfork_corner"
FOLD_M_NEAR_N = "fold_m_near_n"
FOLD_M1 = "fold_m1"
TRANS0_INTERIOR = "transcritical_zero_interior"
TRANS0_CORNER = "transcritical_zero_corner"
TRANS1_M_NEAR_N = "transcritical_one_m_near_n"
TRANS1_M1 = "transcritical_one_m1"

ENDINGS = (
    PITCHFORK_INTERIOR, PITCHFORK_CORNER, FOLD_M_NEAR_N, FOLD_M1,
    TRANS0_INTERIOR, TRANS0_CORNER, TRANS1_M_NEAR_N, TRANS1_M1,
)

# ending -> (leading coefficient, exponent, side); mu(d) = mu_lo + C d^e at
# the lower endpoint, mu(d) = mu_hi - C d^e at the upper one
_TABLE = {
    PITCHFORK_INTERIOR: (3.0, 2.0 / 3.0, "lower"),
    PITCHFORK_CORNER: (3.0 / 4.0 ** (1.0 / 3.0), 2.0 / 3.0, "lower"),
    FOLD_M_NEAR_N: (2.0, 1.0, "upper"),
    FOLD_M1: (2.0, 1.0, "upper"),
    TRANS0_INTERIOR: (2.0 * math.sqrt(2.0), 0.5, "lower"),
    TRANS0_CORNER: (2.0, 0.5, "lower"),
    TRANS1_M_NEAR_N: (2.0 * math.sqrt(2.0), 0.5, "upper"),
    TRANS1_M1: (math.sqrt(2.0), 0.5, "upper"),
}


def ending_exponent(ending):
    return _TABLE[ending][1]


def ending_side(ending):
    return _TABLE[ending][2]


def predict_fold_mu(ending, d):
    """Leading-order fold location mu(d) for an ending type, normalized gauge
    on the window (0, 1).

    Use :func:`predict_fold_mu_gauged` for a concrete nonlinearity and its
    own window.
    """
    coeff, exponent, side = _TABLE[ending]
    return _from_endpoint(coeff * d**exponent, side, (0.0, 1.0))


def _from_endpoint(deviation, side, window):
    lo, hi = window
    return lo + deviation if side == "lower" else hi - deviation


def gauge_coefficient(nonlinearity, ending):
    """Leading fold coefficient for a concrete (unnormalized) nonlinearity.

    The tabulated laws assume the endpoint normal form has unit leading
    coefficient and the filled state sits at 1.  For a general reaction term
    the pitchfork/transcritical constants scale by (A sqrt(b3))^(2/3) and
    sqrt(A b2) respectively, where A = u_+ at the endpoint and b2, b3 are
    the quadratic/cubic Taylor coefficients of f in u there; the fold-ending
    law mu_hi - 2d is replaced by mu_hi - (2 u* / c1) d with u* the colliding
    root and c1 = -f_mu there.  The endpoints mu_lo, mu_hi are those of
    ``nonlinearity.window``.
    """
    coeff, _, _ = _TABLE[ending]
    lo, hi = nonlinearity.window
    if ending in (PITCHFORK_INTERIOR, PITCHFORK_CORNER):
        a = float(nonlinearity.u_plus(lo))
        b3 = _third_derivative(nonlinearity, lo) / 6.0
        return coeff * (a * math.sqrt(b3)) ** (2.0 / 3.0)
    if ending in (TRANS0_INTERIOR, TRANS0_CORNER):
        a = float(nonlinearity.u_plus(lo))
        b2 = float(nonlinearity.f_uu(0.0, lo)) / 2.0
        return coeff * math.sqrt(a * b2)
    if ending in (FOLD_M_NEAR_N, FOLD_M1):
        u_star = _colliding_root(nonlinearity, hi)
        c1 = -float(nonlinearity.f_mu(u_star, hi))
        return 2.0 * u_star / c1
    if ending in (TRANS1_M_NEAR_N, TRANS1_M1):
        # the logistic-type family is already normalized at (1, 1); a general
        # rescaling is not tabulated by the source laws
        return coeff
    raise ValueError(f"unknown ending {ending!r}")


def _third_derivative(nonlinearity, mu, h=1e-2):
    # f_uuu(0, mu) by the 5-point central difference of f_uu, exact for an
    # f_uu of degree 4 or less (a reaction term of degree 6 or less)
    f_uu = nonlinearity.f_uu
    return (8.0 * (f_uu(h, mu) - f_uu(-h, mu))
            - (f_uu(2 * h, mu) - f_uu(-2 * h, mu))) / (12.0 * h)


def _colliding_root(nonlinearity, mu):
    # u_-(mu) = u_+(mu) at a fold endpoint is a double root, which a
    # sign-change root scan cannot see: Newton on f_u(., mu) from u_+ a
    # little inside the window, step for step the scalar Newton of
    # scipy.optimize.newton (fprime given, tol = 1e-15, rtol = 0, 50
    # iterations)
    lo, hi = nonlinearity.window
    p0 = np.asarray(nonlinearity.u_plus(mu - 1e-2 * (hi - lo)))[()] * 1.0
    for _ in range(50):
        fval = nonlinearity.f_u(p0, mu)
        if fval == 0:
            return float(p0)
        fder = nonlinearity.f_uu(p0, mu)
        if fder == 0:
            raise solver.NoConvergence(
                f"colliding root at mu={mu}: f_uu = 0 at u={p0}", x=p0)
        p = p0 - fval / fder
        if abs(p - p0) <= 1e-15:
            return float(p)
        p0 = p
    raise solver.NoConvergence(
        f"colliding root at mu={mu}: no convergence in 50 iterations, "
        f"last u={p0}", x=p0)


def predict_fold_mu_gauged(nonlinearity, ending, d):
    """Fold location law with the nonlinearity's own gauge factor applied."""
    coeff = gauge_coefficient(nonlinearity, ending)
    _, exponent, side = _TABLE[ending]
    return _from_endpoint(coeff * d**exponent, side, nonlinearity.window)


# ---------------------------------------------------------------------------
# reduced systems at the blow-up limit


PITCH_INTERIOR = "pitch_interior"
PITCH_CORNER_OFFSITE = "pitch_corner_offsite"
PITCH_CORNER_ONSITE = "pitch_corner_onsite"
SADDLE_NEAR_N = "saddle_near_n"
SADDLE_M1 = "saddle_m1"
TRANS_INTERIOR = "trans_interior"

REDUCED_IDS = (PITCH_INTERIOR, PITCH_CORNER_OFFSITE, PITCH_CORNER_ONSITE,
               SADDLE_NEAR_N, SADDLE_M1, TRANS_INTERIOR)

_SQ3 = math.sqrt(3.0)


def _reduced_table():
    return {
        # residual(u, d); branch s -> (u, d); s range; fold (s*, d*)
        PITCH_INTERIOR: {
            "residual": lambda u, dt: 2.0 * dt - u + u**3,
            "branch": lambda s: (s, 0.5 * s * (1.0 - s**2)),
            "range": (0.0, 1.0),
            "fold": (1.0 / _SQ3, 1.0 / (3.0 * _SQ3)),
        },
        PITCH_CORNER_OFFSITE: {
            # second-order blow-up around the degenerate corner pair
            "residual": lambda v, d0: d0 + _SQ3 * v**2 - 4.0 / 27.0,
            "branch": lambda s: (s, 4.0 / 27.0 - _SQ3 * s**2),
            "range": (-2.0 * 3.0 ** 0.25 / 9.0, 2.0 * 3.0 ** 0.25 / 9.0),
            "fold": (0.0, 4.0 / 27.0),
        },
        PITCH_CORNER_ONSITE: {
            # the on-site corner blow-up carries the same linear combination
            # (2 u_32 - 4 u_31 vs u_32 - 3 u_31 evaluated at the degenerate
            # value) and so coincides with the off-site system at this order
            "residual": lambda v, d0: d0 + _SQ3 * v**2 - 4.0 / 27.0,
            "branch": lambda s: (s, 4.0 / 27.0 - _SQ3 * s**2),
            "range": (-2.0 * 3.0 ** 0.25 / 9.0, 2.0 * 3.0 ** 0.25 / 9.0),
            "fold": (0.0, 4.0 / 27.0),
        },
        SADDLE_NEAR_N: {
            "residual": lambda u, dt: -2.0 * dt + 1.0 - u**2,
            "branch": lambda s: (s, 0.5 * (1.0 - s**2)),
            "range": (-1.0, 1.0),
            "fold": (0.0, 0.5),
        },
        SADDLE_M1: {
            # blow-up pair for the (N,1)/(N-1,N-1) degeneracy; the critical
            # cell is the first component
            "residual": lambda v, d0: np.array(
                [0.5 - 2.0 * d0 - v[0]**2, math.sqrt(2.0) - 2.0 * d0 - v[1]**2]
            ),
            "branch": lambda s: (np.array(
                [s, math.sqrt(math.sqrt(2.0) - 0.5 + s**2)]), 0.25 - 0.5 * s**2),
            "range": (-math.sqrt(0.25), math.sqrt(0.25)),
            "fold": (0.0, 0.25),
        },
        TRANS_INTERIOR: {
            "residual": lambda u, dt: 2.0 * dt - u + u**2,
            "branch": lambda s: (s, 0.5 * (s - s**2)),
            "range": (0.0, 1.0),
            "fold": (0.5, 0.125),
        },
    }


_REDUCED = _reduced_table()


def reduced_branch(system_id, s):
    """Point (u_tilde, d_tilde) on the stored reduced-system branch."""
    sysd = _REDUCED.get(system_id)
    if sysd is None:
        raise ValueError(f"unknown reduced system {system_id!r}")
    lo, hi = sysd["range"]
    if not (lo - 1e-12 <= s <= hi + 1e-12):
        raise ValueError(f"s={s} outside parametrization range [{lo}, {hi}]")
    return sysd["branch"](s)


def reduced_fold(system_id):
    """Fold (s*, d_tilde*) of a reduced system."""
    sysd = _REDUCED.get(system_id)
    if sysd is None:
        raise ValueError(f"unknown reduced system {system_id!r}")
    return sysd["fold"]


def reduced_residual(system_id, u, d):
    sysd = _REDUCED.get(system_id)
    if sysd is None:
        raise ValueError(f"unknown reduced system {system_id!r}")
    return sysd["residual"](u, d)


def scaling_identity_mu(system_id, d):
    """Fold location mu(d) implied by a reduced fold through its scaling.

    pitchfork scaling: mu = nu^2, d = nu^3 d~  =>  mu = (d/d~)^(2/3);
    saddle scaling:    mu = 1 - nu^2, d = nu^2 d~  =>  mu = 1 - d/d~;
    transcritical:     d = mu^2 d~  =>  mu = sqrt(d/d~).
    """
    if system_id == PITCH_INTERIOR:
        return (d / reduced_fold(system_id)[1]) ** (2.0 / 3.0)
    if system_id in (PITCH_CORNER_OFFSITE, PITCH_CORNER_ONSITE):
        # leading fold value of the corner scaling sits at d~ = 2/(3 sqrt 3)
        return (d * 1.5 * _SQ3) ** (2.0 / 3.0)
    if system_id in (SADDLE_NEAR_N, SADDLE_M1):
        return 1.0 - d / 0.5
    if system_id == TRANS_INTERIOR:
        return math.sqrt(d / reduced_fold(system_id)[1])
    raise ValueError(f"unknown reduced system {system_id!r}")


def degenerate_cases():
    """Leading-order ties the reduced systems cannot resolve.

    Corner continuations at the lower endpoint with N >= 3 and upper-endpoint
    continuations with 1 < M < N-1 coincide with a neighboring cell equation
    to all computed orders; the toolkit observes those folds numerically but
    offers no asymptotic prediction for them.
    """
    return {
        "corner_lower_N_ge_3": "critical and neighbor cell equations agree "
                               "to every expanded order",
        "upper_mid_M": "equations differ only at order nu^((M+1)/2)",
    }


# ---------------------------------------------------------------------------
# verification harness


def fit_power_law(ds, deviations):
    """Least-squares exponent/coefficient of deviation ~ C d^e (log-log)."""
    logs_d = np.log(np.asarray(ds, dtype=float))
    logs_v = np.log(np.asarray(deviations, dtype=float))
    a = np.vstack([logs_d, np.ones_like(logs_d)]).T
    (slope, intercept), res, _, _ = np.linalg.lstsq(a, logs_v, rcond=None)
    n = len(ds)
    resid = logs_v - a @ [slope, intercept]
    sigma = float(np.sqrt(np.sum(resid**2) / max(n - 2, 1)))
    return float(slope), float(np.exp(intercept)), sigma


def verify_asymptotics(ending, d_list, fold_finder, nonlinearity):
    """Measure folds over a coupling ladder and fit the power law.

    ``fold_finder(d) -> mu_fold`` measures folds of ``nonlinearity``, so the
    per-d predictions carry its gauge factor.  The report carries the
    fitted exponent and coefficient of the deviation from the window
    endpoint, the coefficient refitted at the reference exponent, per-d
    data, the tabulated (normalized-gauge) coefficient and the gauge
    coefficient of ``nonlinearity``.
    """
    if len(d_list) < 3:
        raise ValueError("need at least three coupling values to fit")
    side = ending_side(ending)
    lo, hi = nonlinearity.window
    exponent_ref = ending_exponent(ending)
    per_d = []
    deviations = []
    for d in sorted(d_list):
        mu_fold = fold_finder(d)
        dev = mu_fold - lo if side == "lower" else hi - mu_fold
        per_d.append({"d": float(d), "mu_fold": float(mu_fold),
                      "deviation": float(dev),
                      "predicted": float(predict_fold_mu_gauged(
                          nonlinearity, ending, d))})
        deviations.append(dev)
    ds = [e["d"] for e in per_d]
    exponent, coefficient, sigma = fit_power_law(ds, deviations)
    # the free-fit intercept extrapolates to d = 1 and absorbs higher-order
    # terms; with the exponent held at the law's value the coefficient is
    # the geometric mean of deviation / d^e over the measured ladder
    coefficient_ref_exp = float(np.exp(np.mean(
        np.log(np.asarray(deviations) / np.asarray(ds) ** exponent_ref))))
    return {
        "ending": ending,
        "exponent": exponent,
        "coefficient": coefficient,
        "coefficient_at_reference_exponent": coefficient_ref_exp,
        "log_fit_sigma": sigma,
        "reference_exponent": exponent_ref,
        "reference_coefficient": _TABLE[ending][0],
        "gauge_coefficient": gauge_coefficient(nonlinearity, ending),
        "per_d": per_d,
    }
