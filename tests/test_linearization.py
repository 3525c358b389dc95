"""Linearized flow along the amplitude: derivative of the first zero,
closed-form comparison linearization, turning detection, flux identity."""

import math

import numpy as np
import pytest

from qshoot.asymptotics import comparison_z, snapshot
from qshoot.config import ProblemConfig
from qshoot.errors import AdmissionError, ConfigError
from qshoot.linearization import (
    detect_turning,
    flux_identity_residual,
    nondegeneracy,
    solve_V1,
    t_prime,
    t_prime_fd,
    v2_eval,
)
from qshoot.nonlinearity import make_nonlinearity
from qshoot.shooting import shoot


class TestComparisonLinearization:
    @pytest.mark.parametrize("n,gamma", [(2, 5.0), (3, 5.0), (2, 10.0)])
    def test_algebraic_tie_to_the_comparison_slope(self, n, gamma, nl_square):
        # V2 = 1 - g' z' holds identically
        s = snapshot(nl_square, n, gamma)
        for t in np.linspace(s.T0, s.T1 + 10.0 * (n - 1), 25):
            v2, _, _ = v2_eval(gamma, n, nl_square, float(t))
            _, zp = comparison_z(gamma, n, nl_square, float(t))
            assert v2 == pytest.approx(1.0 - s.gp * zp, abs=1e-12)

    def test_vanishes_at_its_marker(self, nl_square):
        s = snapshot(nl_square, 3, 5.0)
        v2, _, _ = v2_eval(5.0, 3, nl_square, s.S0)
        assert abs(v2) <= 1e-12
        assert s.S0 == pytest.approx(s.T1 - 2.0 * math.log(2.0), rel=1e-13)

    def test_derivatives_match_finite_differences(self, nl_square):
        gamma, n, h = 5.0, 2, 1e-6
        s = snapshot(nl_square, n, gamma)
        for t in (s.T1 - 3.0, s.T1, s.T1 + 4.0):
            v2m, v2pm, _ = v2_eval(gamma, n, nl_square, t - h)
            v2p_, v2pp_, _ = v2_eval(gamma, n, nl_square, t + h)
            _, v2p, v2pp = v2_eval(gamma, n, nl_square, t)
            assert v2p == pytest.approx((v2p_ - v2m) / (2 * h), rel=1e-7,
                                        abs=1e-12)
            assert v2pp == pytest.approx((v2pp_ - v2pm) / (2 * h), rel=1e-6,
                                         abs=1e-12)

    def test_limits(self, nl_square):
        s = snapshot(nl_square, 2, 5.0)
        v2_far, v2p_far, _ = v2_eval(5.0, 2, nl_square, s.T1 + 80.0)
        assert v2_far == pytest.approx(1.0, rel=1e-12)
        assert abs(v2p_far) <= 1e-12
        v2_deep, _, _ = v2_eval(5.0, 2, nl_square, s.T1 - 80.0)
        assert v2_deep == pytest.approx(-1.0, rel=1e-12)


class TestAmplitudeDerivative:
    def test_linear_family_is_amplitude_free(self, nl_linear, cfg2):
        res = solve_V1(nl_linear, 2, 1.0, cfg2)
        assert abs(res.V1_T) <= 1e-6
        assert abs(t_prime(nl_linear, 2, 1.0, cfg2)) <= 1e-6

    def test_routes_agree(self, nl_square, cfg2):
        rt = solve_V1(nl_square, 2, 4.0, cfg2, route="t")
        rr = solve_V1(nl_square, 2, 4.0, cfg2, route="r")
        assert rt.route == "t" and rr.route == "r"
        assert rt.V1_T == pytest.approx(rr.V1_T, rel=1e-6)

    def test_square_family_moves_the_zero_outward(self, nl_square, cfg2):
        res = solve_V1(nl_square, 2, 4.0, cfg2)
        assert res.V1_T < 0.0
        # T' = -V1(T)/y'(T) > 0: the zero grows with the amplitude
        assert t_prime(nl_square, 2, 4.0, cfg2) > 0.0

    @pytest.mark.parametrize("gamma", [3.0, 5.0, 8.0])
    def test_variational_and_difference_quotients_agree(self, gamma,
                                                        nl_family_ii, cfg2):
        tp = t_prime(nl_family_ii, 2, gamma, cfg2)
        fd = t_prime_fd(nl_family_ii, 2, gamma, cfg2)
        assert tp == pytest.approx(fd, rel=1e-3)

    def test_derivative_consistent_with_outcome_columns(self, nl_square, cfg2):
        res = solve_V1(nl_square, 2, 4.0, cfg2)
        out = shoot(nl_square, 2, 4.0, cfg2)
        tp = t_prime(nl_square, 2, 4.0, cfg2)
        assert tp == pytest.approx(-res.V1_T / out.yprime_T, rel=1e-6)

    @pytest.mark.parametrize("n,gamma", [(2, 0.5), (2, 6.0), (3, 6.0)])
    def test_solve_record_matches_the_plain_shot(self, nl_family_ii, n,
                                                 gamma):
        cfg = ProblemConfig()
        res = solve_V1(nl_family_ii, n, gamma, cfg)
        out = shoot(nl_family_ii, n, gamma, cfg)
        assert res.route == out.route
        for key in ("T", "R", "lam", "yprime_T"):
            assert getattr(res, key) == pytest.approx(getattr(out, key),
                                                      rel=1e-8)
        assert res.V1_T is not None and out.V1_T is None

    def test_plain_shot_has_no_derivative(self, nl_square, cfg2):
        with pytest.raises(ConfigError, match="linearization channel"):
            shoot(nl_square, 2, 4.0, cfg2).tprime()

    def test_weighted_variational_channel_is_refused(self, nl_exp):
        wcfg = ProblemConfig(beta_weight=1.0)
        with pytest.raises((AdmissionError, ConfigError)):
            solve_V1(nl_exp, 2, 2.0, wcfg)

    def test_nondegeneracy_report(self, nl_square, cfg2):
        nd = nondegeneracy(nl_square, 2, 4.0, cfg2)
        assert set(nd) == {"V1_T", "floor", "margin", "nondegenerate"}
        assert nd["nondegenerate"]
        assert nd["margin"] > 1.0
        assert nd["V1_T"] == pytest.approx(-0.131492516, rel=1e-6)


class TestTurningDetection:
    def test_computed_crossing_for_the_drifted_family(self, nl_family_ii,
                                                      cfg2):
        rep = detect_turning(nl_family_ii, 2, 8.0, cfg2)
        assert rep.T == pytest.approx(12.751813, rel=1e-5)
        assert rep.T < rep.S < rep.S1
        assert rep.S == pytest.approx(28.720429, rel=1e-4)
        assert rep.S1 == pytest.approx(33.691574, rel=1e-4)
        assert rep.S_predicted == pytest.approx(28.945187, rel=1e-4)
        assert rep.V2prime_at_S == pytest.approx(rep.comparator, rel=0.5)

    def test_closed_form_mode_recovers_the_marker(self, nl_family_ii, cfg2):
        rep = detect_turning(nl_family_ii, 2, 8.0, cfg2, use_V2=True)
        assert rep.S1 == pytest.approx(snapshot(nl_family_ii, 2, 8.0).S0,
                                       abs=1e-10)

    def test_computed_marker_approaches_the_closed_form(self, nl_family_ii,
                                                        cfg2):
        gap = []
        for gamma in (8.0, 12.0):
            rep = detect_turning(nl_family_ii, 2, gamma, cfg2)
            gap.append(abs(rep.S1 - snapshot(nl_family_ii, 2, gamma).S0))
        assert gap[1] < gap[0]
        assert gap[0] <= 1e-2

    def test_prediction_relative_error_is_small(self, nl_family_ii, cfg2):
        rep = detect_turning(nl_family_ii, 2, 12.0, cfg2)
        s = snapshot(nl_family_ii, 2, 12.0)
        rel = abs(rep.S - rep.S_predicted) / abs(rep.S_predicted - s.T1)
        assert rel <= 0.1

    def test_no_prediction_without_drift_curvature(self, nl_exp, cfg2):
        rep = detect_turning(nl_exp, 2, 3.0, cfg2)
        assert rep.S_predicted is None
        assert rep.S6 is None  # needs a genuine power above 1

    def test_report_export_schema(self, nl_family_ii, cfg2):
        rep = detect_turning(nl_family_ii, 2, 8.0, cfg2)
        d = rep.as_dict()
        assert {"S", "S1", "S_predicted", "V2prime_at_S"} <= set(d)


class TestFluxIdentity:
    @pytest.mark.parametrize("gamma", [3.0, 5.0, 8.0])
    def test_residual_is_tiny(self, gamma, nl_family_ii, cfg2):
        rep = flux_identity_residual(nl_family_ii, 2, gamma, cfg2)
        assert rep["residual"] <= 1e-6
        assert rep["scale"] > 0.0
        assert rep["a"] < rep["b"]

    def test_residual_survives_a_tighter_tolerance(self, nl_family_ii, cfg2):
        loose = flux_identity_residual(nl_family_ii, 2, 5.0, cfg2)
        tight = flux_identity_residual(nl_family_ii, 2, 5.0, cfg2.tighter())
        assert tight["residual"] <= 1e-6
        assert loose["residual"] <= 1e-6

    def test_report_carries_both_boundary_terms(self, nl_family_ii, cfg2):
        rep = flux_identity_residual(nl_family_ii, 2, 5.0, cfg2)
        for key in ("J_a", "J_b", "I1", "I2"):
            assert key in rep
            assert math.isfinite(rep[key])
