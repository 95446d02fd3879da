import math

import numpy as np
import pytest
import scipy.optimize

from snaklat import asymptotics as asy
from snaklat import model, solver


class TestPredictions:
    def test_tabulated_values(self):
        assert asy.predict_fold_mu(asy.PITCHFORK_INTERIOR, 1e-3) == \
            pytest.approx(0.03, abs=1e-15)
        assert asy.predict_fold_mu(asy.FOLD_M_NEAR_N, 1e-3) == \
            pytest.approx(0.998, abs=1e-15)
        assert asy.predict_fold_mu(asy.FOLD_M1, 1e-3) == \
            pytest.approx(0.998, abs=1e-15)
        assert asy.predict_fold_mu(asy.TRANS0_INTERIOR, 1e-4) == \
            pytest.approx(2 * math.sqrt(2) * 1e-2, rel=1e-14)
        assert asy.predict_fold_mu(asy.TRANS0_CORNER, 1e-4) == \
            pytest.approx(0.02, rel=1e-14)
        assert asy.predict_fold_mu(asy.PITCHFORK_CORNER, 1e-3) == \
            pytest.approx(3 / 4 ** (1 / 3) * 1e-2, rel=1e-14)
        assert asy.predict_fold_mu(asy.TRANS1_M_NEAR_N, 1e-4) == \
            pytest.approx(1 - 2 * math.sqrt(2) * 1e-2, rel=1e-14)
        assert asy.predict_fold_mu(asy.TRANS1_M1, 1e-4) == \
            pytest.approx(1 - math.sqrt(2) * 1e-2, rel=1e-14)

    def test_monotone_in_d(self):
        ds = np.linspace(1e-6, 0.01, 50)
        for ending in asy.ENDINGS:
            vals = [asy.predict_fold_mu(ending, d) for d in ds]
            diffs = np.diff(vals)
            if asy.ending_side(ending) == "lower":
                assert np.all(diffs > 0)
            else:
                assert np.all(diffs < 0)

    def test_gauge_coefficients_for_builtins(self):
        cq = model.cubic_quintic()
        assert asy.gauge_coefficient(cq, asy.PITCHFORK_INTERIOR) == \
            pytest.approx(108 ** (1 / 3), rel=1e-12)
        assert asy.gauge_coefficient(cq, asy.PITCHFORK_CORNER) == \
            pytest.approx(3.0, rel=1e-12)
        assert asy.gauge_coefficient(cq, asy.FOLD_M_NEAR_N) == \
            pytest.approx(2.0, rel=1e-12)
        qc = model.quadratic_cubic()
        assert asy.gauge_coefficient(qc, asy.TRANS0_INTERIOR) == \
            pytest.approx(4 * math.sqrt(2), rel=1e-12)
        assert asy.gauge_coefficient(qc, asy.TRANS0_CORNER) == \
            pytest.approx(4.0, rel=1e-12)
        cl = model.cubic_logistic()
        # the logistic family is exactly normalized at both endpoints
        assert asy.gauge_coefficient(cl, asy.TRANS0_INTERIOR) == \
            pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert asy.gauge_coefficient(cl, asy.TRANS1_M_NEAR_N) == \
            pytest.approx(2 * math.sqrt(2), rel=1e-12)

    def test_normalized_gauge_reproduces_table(self):
        # "normalized gauge": u_+ = 1 and unit leading Taylor coefficient at
        # the lower endpoint, here -mu u + u^3 - u^5 and -mu u + u^2 - u^3
        # on the window (0, 1/4); u_+(0) = 1 falls on a root-scan node
        cq = np.zeros((2, 6))
        cq[1, 1], cq[0, 3], cq[0, 5] = -1.0, 1.0, -1.0
        cq = model.polynomial(cq, window=(0.0, 0.25))
        assert cq.u_plus(0.0) == 1.0
        # b3 comes from a 5-point difference of f_uu, exact for a quintic
        assert asy.gauge_coefficient(cq, asy.PITCHFORK_INTERIOR) == \
            pytest.approx(3.0, rel=1e-12)
        qc = np.zeros((2, 4))
        qc[1, 1], qc[0, 2], qc[0, 3] = -1.0, 1.0, -1.0
        qc = model.polynomial(qc, window=(0.0, 0.25))
        assert asy.gauge_coefficient(qc, asy.TRANS0_INTERIOR) == \
            pytest.approx(2 * math.sqrt(2), rel=1e-12)
        assert asy.gauge_coefficient(qc, asy.TRANS0_CORNER) == \
            pytest.approx(2.0, rel=1e-12)

    def test_fold_ending_reads_the_window(self):
        # -mu u + u^3 - u^5 folds at the upper end mu = 1/4 of its window,
        # where u_- = u_+ = u* = 1/sqrt(2) and c1 = -f_mu = u*, so the law
        # is mu = 1/4 - (2 u*/c1) d = 1/4 - 2 d
        c = np.zeros((2, 6))
        c[1, 1], c[0, 3], c[0, 5] = -1.0, 1.0, -1.0
        nl = model.polynomial(c, window=(0.0, 0.25))
        assert asy.gauge_coefficient(nl, asy.FOLD_M_NEAR_N) == \
            pytest.approx(2.0, rel=1e-12)
        assert asy.predict_fold_mu_gauged(nl, asy.FOLD_M_NEAR_N, 1e-3) == \
            pytest.approx(0.248, rel=1e-12)
        report = asy.verify_asymptotics(
            asy.FOLD_M_NEAR_N, [1e-5, 1e-4, 1e-3],
            lambda d: 0.25 - 2.0 * d * (1.0 + 0.1 * d), nl)
        assert report["exponent"] == pytest.approx(1.0, abs=1e-3)
        assert report["coefficient_at_reference_exponent"] == \
            pytest.approx(2.0, rel=1e-3)
        # the same term moved to the window (0.1, 0.35) keeps its pitchfork
        # constant 3 at the lower end mu = 0.1
        c[0, 1] = 0.1
        nl = model.polynomial(c, window=(0.1, 0.35))
        assert asy.gauge_coefficient(nl, asy.PITCHFORK_INTERIOR) == \
            pytest.approx(3.0, rel=1e-12)
        assert asy.predict_fold_mu_gauged(
            nl, asy.PITCHFORK_INTERIOR, 1e-3) == pytest.approx(0.13, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.7, 1.3])
    def test_gauge_invariant_under_rescaling(self, alpha):
        # u = alpha v keeps the mu and d coefficients, maps c[0][k] to
        # c[0][k] alpha^(k-1) and leaves A sqrt(b3) and A b2 unchanged, so
        # the literal built-ins stay at 108^(1/3) and 4 sqrt(2), never at
        # the tabulated 3 and 2 sqrt(2)
        cq = np.zeros((2, 6))
        cq[1, 1], cq[0, 3], cq[0, 5] = -1.0, 2.0 * alpha**2, -alpha**4
        assert asy.gauge_coefficient(
            model.polynomial(cq), asy.PITCHFORK_INTERIOR) == \
            pytest.approx(108 ** (1 / 3), rel=1e-12)
        qc = np.zeros((2, 4))
        qc[1, 1], qc[0, 2], qc[0, 3] = -1.0, 2.0 * alpha, -alpha**2
        assert asy.gauge_coefficient(
            model.polynomial(qc), asy.TRANS0_INTERIOR) == \
            pytest.approx(4 * math.sqrt(2), rel=1e-12)


class TestCollidingRoot:
    @staticmethod
    def _scipy_root(nl, mu):
        lo, hi = nl.window
        return float(scipy.optimize.newton(
            nl.f_u, nl.u_plus(mu - 1e-2 * (hi - lo)), fprime=nl.f_uu,
            args=(mu,), tol=1e-15))

    @pytest.mark.parametrize("family", ["cubic_quintic", "quadratic_cubic",
                                        "cubic_logistic"])
    def test_builtins_match_scipy_newton_bitwise(self, family):
        nl = model.builtin_nonlinearity(family)
        for mu in (1.0, 0.9, 0.5):
            assert asy._colliding_root(nl, mu) == self._scipy_root(nl, mu)

    def test_rescaled_window_matches_scipy_newton_bitwise(self):
        # -mu u + u^3 - u^5 on (0, 1/4): u* = 1/sqrt(2) at the upper end
        c = np.zeros((2, 6))
        c[1, 1], c[0, 3], c[0, 5] = -1.0, 1.0, -1.0
        nl = model.polynomial(c, window=(0.0, 0.25))
        for mu in (0.25, 0.2, 0.125):
            assert asy._colliding_root(nl, mu) == self._scipy_root(nl, mu)
        assert asy._colliding_root(nl, 0.25) == \
            pytest.approx(1 / math.sqrt(2), rel=1e-15)

    def test_zero_second_derivative_is_a_solver_error(self, monkeypatch):
        nl = model.cubic_quintic()
        monkeypatch.setattr(nl, "f_uu", lambda u, mu: 0.0)
        with pytest.raises(solver.NoConvergence, match="f_uu = 0"):
            asy._colliding_root(nl, 1.0)

    def test_no_convergence_is_a_solver_error(self, monkeypatch):
        # f_u(u) = 1 + u^2 has no real root: Newton wanders
        nl = model.polynomial([[1.0, 1.0, 0.0, 1.0 / 3.0]])
        monkeypatch.setattr(nl, "u_plus", lambda mu: 0.7)
        with pytest.raises(solver.NoConvergence, match="no convergence"):
            asy._colliding_root(nl, 1.0)


class TestReducedSystems:
    def test_folds(self):
        assert asy.reduced_fold(asy.PITCH_INTERIOR) == \
            (pytest.approx(1 / math.sqrt(3), abs=1e-15),
             pytest.approx(1 / (3 * math.sqrt(3)), abs=1e-15))
        assert asy.reduced_fold(asy.SADDLE_NEAR_N) == (0.0, 0.5)
        assert asy.reduced_fold(asy.PITCH_CORNER_OFFSITE)[1] == \
            pytest.approx(4 / 27, abs=1e-16)
        assert asy.reduced_fold(asy.SADDLE_M1)[1] == 0.25
        assert asy.reduced_fold(asy.TRANS_INTERIOR) == (0.5, 0.125)

    @pytest.mark.parametrize("sid", [asy.PITCH_INTERIOR,
                                     asy.PITCH_CORNER_OFFSITE,
                                     asy.PITCH_CORNER_ONSITE,
                                     asy.SADDLE_NEAR_N, asy.SADDLE_M1,
                                     asy.TRANS_INTERIOR])
    def test_branch_residuals_vanish(self, sid):
        lo, hi = asy._REDUCED[sid]["range"]
        for s in np.linspace(lo, hi, 17):
            u, dt = asy.reduced_branch(sid, s)
            res = np.atleast_1d(asy.reduced_residual(sid, u, dt))
            assert np.max(np.abs(res)) < 1e-14

    def test_fold_is_on_branch_and_extremal(self):
        for sid in (asy.PITCH_INTERIOR, asy.SADDLE_NEAR_N,
                    asy.TRANS_INTERIOR, asy.PITCH_CORNER_OFFSITE):
            s_fold, d_fold = asy.reduced_fold(sid)
            _, dt = asy.reduced_branch(sid, s_fold)
            assert dt == pytest.approx(d_fold, abs=1e-15)
            eps = 1e-5
            lo, hi = asy._REDUCED[sid]["range"]
            for s in (s_fold - eps, s_fold + eps):
                if lo <= s <= hi:
                    assert asy.reduced_branch(sid, s)[1] <= d_fold + 1e-12

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            asy.reduced_branch(asy.PITCH_INTERIOR, 2.0)
        with pytest.raises(ValueError):
            asy.reduced_branch("unknown", 0.0)

    def test_scaling_identities(self):
        # pitchfork scaling mu = nu^2, d = nu^3 d~ reproduces the mu(d) laws
        for d in (1e-5, 1e-4, 1e-3):
            assert asy.scaling_identity_mu(asy.PITCH_INTERIOR, d) == \
                pytest.approx(asy.predict_fold_mu(asy.PITCHFORK_INTERIOR, d),
                              rel=1e-14)
            assert asy.scaling_identity_mu(asy.PITCH_CORNER_OFFSITE, d) == \
                pytest.approx(asy.predict_fold_mu(asy.PITCHFORK_CORNER, d),
                              rel=1e-14)
            assert asy.scaling_identity_mu(asy.SADDLE_NEAR_N, d) == \
                pytest.approx(asy.predict_fold_mu(asy.FOLD_M_NEAR_N, d),
                              rel=1e-14)
            assert asy.scaling_identity_mu(asy.TRANS_INTERIOR, d) == \
                pytest.approx(asy.predict_fold_mu(asy.TRANS0_INTERIOR, d),
                              rel=1e-14)


class TestVerifyHarness:
    def test_fit_power_law(self):
        ds = np.array([1e-5, 1e-4, 1e-3])
        exponent, coeff, sigma = asy.fit_power_law(ds, 3.0 * ds ** (2 / 3))
        assert exponent == pytest.approx(2 / 3, abs=1e-12)
        assert coeff == pytest.approx(3.0, rel=1e-12)
        assert sigma < 1e-12

    def test_verify_asymptotics_with_synthetic_finder(self):
        # synthetic folds of the literal cubic-quintic: the law in its own
        # gauge plus a higher-order correction
        cq = model.cubic_quintic()
        gauge = 108 ** (1 / 3)
        report = asy.verify_asymptotics(
            asy.PITCHFORK_INTERIOR, [1e-5, 1e-4, 1e-3],
            lambda d: gauge * d ** (2 / 3) * (1 + 0.2 * d ** (1 / 3)), cq)
        assert abs(report["exponent"] - 2 / 3) < 0.05
        assert abs(report["coefficient"] - gauge) / gauge < 0.1
        assert abs(report["coefficient_at_reference_exponent"] - gauge) \
            / gauge < 0.1
        assert len(report["per_d"]) == 3
        assert report["reference_exponent"] == pytest.approx(2 / 3)
        assert report["reference_coefficient"] == 3.0
        assert report["gauge_coefficient"] == pytest.approx(gauge, rel=1e-6)
        for row in report["per_d"]:
            assert row["predicted"] == pytest.approx(
                gauge * row["d"] ** (2 / 3), rel=1e-6)

    def test_requires_three_decades(self):
        with pytest.raises(ValueError):
            asy.verify_asymptotics(asy.FOLD_M1, [1e-3, 1e-4], lambda d: 1.0,
                                   model.cubic_quintic())

    def test_degenerate_cases_reported(self):
        diag = asy.degenerate_cases()
        assert "corner_lower_N_ge_3" in diag
        assert "upper_mid_M" in diag
