"""Closed-form tail machinery: comparison solution, tail integrals,
perturbed roots and the leading-order predictions."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qshoot.asymptotics
import qshoot.ode
from qshoot._stable import sigma, softplus
from qshoot.asymptotics import (
    GammaSnapshot,
    comparison_z,
    error_decay_report,
    harmonic,
    perturbed_root,
    predict_all,
    psi_eval,
    snapshot,
    tail_power_integral,
    turning_integrals,
    z_ode_log_residual,
)
from qshoot.config import ProblemConfig
from qshoot.errors import AdmissionError, ConfigError, QShootError
from qshoot.linearization import v2_eval
from qshoot.nonlinearity import eval_g, make_nonlinearity
from qshoot.ode import tail_start
from qshoot.shooting import BifurcationCurve, ShootOutcome, sweep
from qshoot.verify import run_suites

from conftest import v2_largest_zero

GRID = [(n, g) for n in (2, 3, 4) for g in (3.0, 5.0, 10.0)]


def _quad(f, a, b):
    val, _ = quad(f, a, b, limit=400, epsabs=1e-300, epsrel=1e-12)
    return val


class TestHarmonic:
    def test_matches_exact_rationals_up_to_twelve(self):
        for k in range(1, 13):
            exact = sum(Fraction(1, i) for i in range(1, k + 1))
            assert harmonic(k) == float(exact)

    def test_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5
        assert harmonic(3) == pytest.approx(11.0 / 6.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [0, -1, -7])
    def test_rejects_nonpositive_index(self, bad):
        with pytest.raises(ConfigError):
            harmonic(bad)


class TestComparisonSolution:
    @pytest.mark.parametrize("n,gamma", GRID)
    def test_vanishes_at_lower_marker(self, n, gamma, nl_square):
        s = snapshot(nl_square, n, gamma)
        z, zp = comparison_z(gamma, n, nl_square, s.T0)
        assert abs(z) <= 1e-9 * gamma
        assert zp > 0.0

    @pytest.mark.parametrize("n,gamma", GRID)
    def test_flattens_to_gamma_in_the_far_tail(self, n, gamma, nl_square):
        s = snapshot(nl_square, n, gamma)
        z, zp = comparison_z(gamma, n, nl_square, s.T1 + 60.0 * (n - 1))
        assert abs(z - gamma) <= 1e-12 * gamma
        assert 0.0 <= zp <= 1e-12

    @pytest.mark.parametrize("n,gamma", GRID)
    def test_slope_at_upper_marker_is_half_c(self, n, gamma, nl_square):
        # sigma(0) = 1/2 exactly, so z'(T1) = c/2
        s = snapshot(nl_square, n, gamma)
        _, zp = comparison_z(gamma, n, nl_square, s.T1)
        assert zp == pytest.approx(0.5 * s.c, rel=1e-14)

    @pytest.mark.parametrize("n,gamma", GRID)
    def test_log_residual_along_the_window(self, n, gamma, nl_square):
        s = snapshot(nl_square, n, gamma)
        ts = np.linspace(s.T0, s.T1 + 20.0 * (n - 1), 40).tolist()
        res = z_ode_log_residual(gamma, n, nl_square, ts)
        assert len(res) == 40 and max(res) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from([2, 3, 4]),
           gamma=st.floats(2.0, 12.0),
           off=st.floats(-4.0, 25.0))
    def test_log_residual_property(self, n, gamma, off):
        nl = make_nonlinearity("pow_exp", q=2.0)
        s = snapshot(nl, n, gamma)
        t = max(s.T0, s.T1 + off * (n - 1))
        assert z_ode_log_residual(gamma, n, nl, [t])[0] <= 1e-8


class TestDriftFunction:
    def test_value_at_the_amplitude(self, nl_square):
        # theta = gamma leaves only the -(n-1) log((n-1)g'/n) term
        got = psi_eval(5.0, 2, nl_square, 5.0)
        assert got == pytest.approx(-math.log(5.0), abs=1e-12)

    def test_general_point(self, nl_square):
        gamma, theta, n = 5.0, 3.0, 2
        want = (9.0 - 25.0) + 0.5 * (gamma - theta) * 10.0 - math.log(5.0)
        assert psi_eval(gamma, n, nl_square, theta) == pytest.approx(want, rel=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(t1=st.floats(0.1, 8.0), t2=st.floats(0.1, 8.0))
    def test_midpoint_convexity(self, t1, t2):
        nl = make_nonlinearity("pow_exp", q=2.0)
        mid = psi_eval(5.0, 2, nl, 0.5 * (t1 + t2))
        ends = 0.5 * (psi_eval(5.0, 2, nl, t1) + psi_eval(5.0, 2, nl, t2))
        assert mid <= ends + 1e-12 * max(1.0, abs(ends))

    def test_rejects_nonincreasing_exponent(self):
        nl = make_nonlinearity("pow_exp", q=2.0, rho_beta=-10.0)
        with pytest.raises(AdmissionError):
            psi_eval(1.0, 2, nl, 1.0)  # g'(1) = 2 - 10 < 0


# each closed form as a call on (gamma, n, nl), with its other arguments
CLOSED_FORMS = {
    "psi_eval": lambda g, n, nl: psi_eval(g, n, nl, 3.0),
    "comparison_z": lambda g, n, nl: comparison_z(g, n, nl, 1.0),
    "v2_eval": lambda g, n, nl: v2_eval(g, n, nl, 1.0),
    "z_ode_log_residual": lambda g, n, nl: z_ode_log_residual(g, n, nl,
                                                              [1.0]),
    "tail_power_integral": lambda g, n, nl: tail_power_integral(1, g, n, nl,
                                                                1.0),
    "turning_integrals": lambda g, n, nl: turning_integrals(g, n, nl, 1.0),
    "predict_all": predict_all,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("n,gamma", [(0, 5.0), (1, 5.0), (2.5, 5.0),
                                     (2, math.nan), (2, math.inf)])
def test_closed_forms_refuse_bad_inputs(name, n, gamma, nl_square):
    with pytest.raises(ConfigError):
        CLOSED_FORMS[name](gamma, n, nl_square)


class TestTailPowerIntegral:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_quadrature(self, n, k, nl_square):
        gamma = 5.0
        s = snapshot(nl_square, n, gamma)
        for t in (s.T1 - 2.0, s.T1 + 3.0 * (n - 1)):
            def integrand(u):
                return comparison_z(gamma, n, nl_square, u)[1] ** (k + 1)
            ref = _quad(integrand, t, t + 200.0 * (n - 1))
            got = tail_power_integral(k, gamma, n, nl_square, t)
            assert got == pytest.approx(ref, rel=1e-8)

    def test_decreasing_in_t_and_vanishing(self, nl_square):
        s = snapshot(nl_square, 2, 5.0)
        ts = [s.T1 - 3.0, s.T1, s.T1 + 4.0, s.T1 + 10.0]
        vals = [tail_power_integral(2, 5.0, 2, nl_square, t) for t in ts]
        assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))
        far = tail_power_integral(2, 5.0, 2, nl_square, s.T1 + 80.0)
        assert 0.0 <= far <= 1e-20

    def test_rejects_bad_power(self, nl_square):
        with pytest.raises(ConfigError):
            tail_power_integral(0, 5.0, 2, nl_square, 0.0)


class TestTurningIntegrals:
    def test_planar_value_at_upper_marker(self, nl_square):
        # n=2 at t=T1: I2 = g'/3 (c/2)^3 * ... collapses to 1/(3 g'^2)
        s = snapshot(nl_square, 2, 5.0)
        _, i2, _ = turning_integrals(5.0, 2, nl_square, s.T1)
        assert i2 == pytest.approx(1.0 / (3.0 * s.gp ** 2), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_quadrature(self, n, nl_square):
        gamma = 5.0
        s = snapshot(nl_square, n, gamma)
        c = s.c

        def zpp(u):
            x = (s.T1 - u) / (n - 1.0)
            sig = 1.0 / (1.0 + math.exp(-x))
            return -(c / (n - 1.0)) * sig * (1.0 - sig)

        for t in (s.T1 - 2.0, s.T1 + 2.0 * (n - 1)):
            def ig1(u):
                zp = comparison_z(gamma, n, nl_square, u)[1]
                v2p = v2_eval(gamma, n, nl_square, u)[1]
                return zp ** (n - 2) * zpp(u) * v2p

            def ig2(u):
                zp = comparison_z(gamma, n, nl_square, u)[1]
                v2p = v2_eval(gamma, n, nl_square, u)[1]
                return zp ** n * v2p

            hi = t + 200.0 * (n - 1)
            i1, i2, total = turning_integrals(gamma, n, nl_square, t)
            assert i1 == pytest.approx(_quad(ig1, t, hi), rel=1e-8)
            assert i2 == pytest.approx(_quad(ig2, t, hi), rel=1e-8)
            assert total == pytest.approx((s.gpp / s.gp) * i1 + s.gpp * i2,
                                          rel=1e-14)

    @pytest.mark.parametrize("n,gamma", GRID)
    def test_both_vanish_in_the_far_tail(self, n, gamma, nl_square):
        s = snapshot(nl_square, n, gamma)
        i1, i2, total = turning_integrals(gamma, n, nl_square,
                                          s.T1 + 60.0 * (n - 1))
        assert abs(i1) <= 1e-15
        assert abs(i2) <= 1e-15
        assert abs(total) <= 1e-14


class TestPerturbedRoot:
    def test_unperturbed(self):
        assert perturbed_root(3.0, 2, 0.0) == 3.0

    def test_quadratic_case_has_a_closed_form(self):
        got = perturbed_root(1.0, 2, 0.1)
        assert got == pytest.approx(0.5 * (1.0 + math.sqrt(1.4)), rel=1e-14)

    def test_cubic_case_first_order_expansion(self):
        a, b = 2.0, 0.01
        x = perturbed_root(a, 3, b)
        assert abs(x - a - b / a ** 2) <= 1e-4
        assert abs(x ** 3 - a * x ** 2 - b) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.5, 5.0), frac=st.floats(0.0, 0.25),
           n=st.sampled_from([2, 3, 4]))
    def test_residual_guarantee(self, a, frac, n):
        b = frac * a ** n
        x = perturbed_root(a, n, b)
        assert x >= a - 1e-12
        assert abs(x ** n - a * x ** (n - 1) - b) <= 1e-8 * max(1.0, b, a ** n)

    def test_a_steep_power_converges(self):
        # x^399 (x - 1) = 2: Newton from a crawls down from its first step
        x = perturbed_root(1.0, 400, 2.0)
        assert 1.0 < x < 3.0
        assert abs(x ** 399 * (x - 1.0) - 2.0) <= 1e-12

    def test_a_perturbation_below_rounding_returns_a(self):
        # a + b/a^{n-1} rounds to a, so h there is -b: that step is the root
        assert perturbed_root(1.0, 2, 1e-17) == 1.0
        assert perturbed_root(3.0, 3, 1e-300) == 3.0

    @pytest.mark.parametrize("a", [1e200, 1e-200])
    def test_a_power_outside_the_doubles_is_typed(self, a):
        # a^2 overflows, or underflows to 0 under b / a^2
        with pytest.raises(QShootError):
            perturbed_root(a, 3, 1.0)

    def test_no_real_root_is_refused(self):
        # x^2 - x + 1/2 has no real zero
        with pytest.raises(AdmissionError):
            perturbed_root(1.0, 2, -0.5)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            perturbed_root(-1.0, 2, 0.1)
        with pytest.raises(ConfigError):
            perturbed_root(1.0, 0, 0.1)


class TestPredictions:
    def test_slope_prediction_three_halves(self, nl_three_halves):
        # g = u^{3/2}: (g' - gamma g'')/2 at gamma=100 is (15 - 7.5)/2
        pred = predict_all(100.0, 2, nl_three_halves)
        assert pred.Tprime_pred == pytest.approx(3.75, rel=1e-13)

    def test_zero_prediction_square(self, nl_square):
        pred = predict_all(5.0, 2, nl_square)
        assert pred.T_pred == pytest.approx(math.log(5.0) + 1.5, rel=1e-13)

    def test_slope_of_zero_prediction(self, nl_square):
        # c + n^2 alpha_n g'' / ((n-1) g'^3) with alpha_2 = 3/2
        pred = predict_all(5.0, 2, nl_square)
        want = 2.0 / 10.0 + 4.0 * 1.5 * 2.0 / (10.0 ** 3)
        assert pred.yprime_T_pred == pytest.approx(want, rel=1e-13)

    def test_turning_prediction_absent_without_convexity(self):
        nl = make_nonlinearity("pow_exp", q=1.0, a=2.0)
        assert snapshot(nl, 2, 4.0).S_pred is None

    def test_turning_prediction_present_when_convex(self, nl_square):
        s = snapshot(nl_square, 2, 5.0)
        want = s.T1 + math.log(s.gpp / s.gp ** 2)
        assert s.S_pred == pytest.approx(want, rel=1e-13)

    def test_needs_a_steep_exponent(self, nl_square, nl_exp):
        with pytest.raises(AdmissionError):
            predict_all(0.4, 2, nl_square)  # g' = 0.8
        with pytest.raises(AdmissionError):
            predict_all(5.0, 2, nl_exp)  # g' = 1 identically

    def test_repeat_calls_are_identical(self, nl_square):
        assert predict_all(7.0, 3, nl_square) == predict_all(7.0, 3, nl_square)


def _fake_curve(nl, gammas, Ts, cfg, n=2):
    outs = [ShootOutcome(gamma=g, T=t, yprime_T=0.1, R=1.0, lam=1.0)
            for g, t in zip(gammas, Ts)]
    return BifurcationCurve(nl=nl, n=n, cfg=cfg, outcomes=outs)


class TestDecayReport:
    def test_refuses_linear_family(self, nl_linear, cfg2):
        curve = _fake_curve(nl_linear, [1.0], [1.0], cfg2)
        with pytest.raises(ConfigError):
            error_decay_report(curve)

    def test_refuses_exploratory_families(self, cfg2):
        nl = make_nonlinearity("pow_exp", q=2.0, rho_beta=-1.0)
        curve = _fake_curve(nl, [1.0], [1.0], cfg2)
        with pytest.raises(ConfigError):
            error_decay_report(curve)

    def test_refuses_a_growth_past_the_window_of_its_dimension(self, cfg2):
        # q = 3 > n/(n-1) = 2: refused from the curve's own n
        nl = make_nonlinearity("pow_exp", q=3.0)
        curve = _fake_curve(nl, (3.0, 4.0, 5.0, 6.0), [1.0] * 4, cfg2)
        with pytest.raises(ConfigError, match="standing hypotheses"):
            error_decay_report(curve)

    def test_refuses_short_ladders(self, nl_square, cfg2):
        curve = _fake_curve(nl_square, [3.0, 4.0, 5.0], [1.0] * 3, cfg2)
        with pytest.raises(ConfigError):
            error_decay_report(curve)

    def test_predicts_at_the_curves_own_dimension(self, cfg2):
        # an n=3 curve of u^1.5 growth: every row is compared with the
        # n=3 prediction at its own gamma, never with the n=2 one
        nl = make_nonlinearity("pow_exp", q=1.5)
        gammas = (20.0, 40.0, 80.0, 160.0)
        curve = _fake_curve(nl, gammas, [1.0] * 4, cfg2, n=3)
        rows = error_decay_report(curve).rows
        assert [(r["gamma"], r["Q"]) for r in rows] == [
            (g, q) for g in gammas for q in ("T", "yprime_T")]
        for r in rows:
            pred = predict_all(r["gamma"], 3, nl)
            want = pred.T_pred if r["Q"] == "T" else pred.yprime_T_pred
            assert r["predicted"] == want
            assert want != getattr(predict_all(r["gamma"], 2, nl),
                                   r["Q"] + "_pred")

    def test_a_placeholder_row_is_skipped_in_step(self, nl_three_halves,
                                                  cfg2):
        # a failed amplitude keeps its slot, with None for its T': the rows
        # after it must still read their own tprime_v1 entries
        gammas, Ts = (20.0, 40.0, 80.0, 160.0), (3.0, 3.5, 4.0, 4.5)
        tps = (0.5, 0.75, 1.0, 1.25)
        solved = _fake_curve(nl_three_halves, gammas, Ts, cfg2)
        solved = replace(solved, tprime_v1=tps)
        holed = replace(
            solved, outcomes=(*solved.outcomes[:2], ShootOutcome(gamma=60.0),
                              *solved.outcomes[2:]),
            tprime_v1=(*tps[:2], None, *tps[2:]))
        want, got = error_decay_report(solved), error_decay_report(holed)
        assert got.rows == want.rows
        assert got.verdicts == want.verdicts
        assert [r["computed"] for r in got.rows if r["Q"] == "Tprime"] == \
            list(tps)

    def test_short_ladder_smoke(self, nl_three_halves, cfg2):
        gammas = np.geomspace(20.0, 120.0, 5)
        curve = sweep(nl_three_halves, 2, gammas, cfg2)
        report = error_decay_report(curve)
        assert not report.span_ok  # 120/20 falls short of a decade
        assert {r["Q"] for r in report.rows} == {"T", "yprime_T"}
        assert all(r["raw_err"] >= 0.0 for r in report.rows)
        assert report.verdicts["T"]["bounded"]
        assert report.bounded == all(
            v["bounded"] for v in report.verdicts.values())


class TestSnapshot:
    def test_window_markers_are_ordered(self, nl_square):
        s = snapshot(nl_square, 2, 5.0)
        assert isinstance(s, GammaSnapshot)
        assert s.T0 < s.T1

    def test_folds_the_multiplier_into_the_exponent(self):
        base = make_nonlinearity("pow_exp", q=2.0)
        scaled = make_nonlinearity("pow_exp", q=2.0, lam=7.0)
        s0 = snapshot(base, 2, 5.0)
        s1 = snapshot(scaled, 2, 5.0)
        assert s1.g == pytest.approx(s0.g + math.log(7.0), rel=1e-15)
        assert s1.gp == s0.gp
        assert s1.T1 == pytest.approx(s0.T1 + math.log(7.0), rel=1e-14)

    def test_rejects_nonpositive_amplitude(self, nl_square):
        with pytest.raises(ConfigError):
            snapshot(nl_square, 2, 0.0)

    def test_alpha_matches_harmonic(self, nl_square):
        for n in (2, 3, 4):
            s = snapshot(nl_square, n, 5.0)
            assert s.alpha_n == harmonic(n)

    @pytest.mark.parametrize("nl,gamma,kind", [
        (make_nonlinearity("pow_exp", q=2.0), 1e-170, AdmissionError),
        (make_nonlinearity("pow_exp", q=2.0), 1e160, AdmissionError),
        (make_nonlinearity("exp"), 5e-324, AdmissionError),
        (make_nonlinearity("pow_exp", q=1.5, p=1.0, rho_beta=1.0), 1e-170,
         AdmissionError),
        (make_nonlinearity("pow_exp", q=2.0), math.nan, ConfigError),
        (make_nonlinearity("pow_exp", q=2.0), math.inf, ConfigError),
    ])
    def test_out_of_range_amplitudes_raise_typed_errors(self, nl, gamma, kind):
        # math domain, overflow and zero-division errors, or all-nan fields
        for fn in (lambda: snapshot(nl, 2, gamma),
                   lambda: comparison_z(gamma, 2, nl, 1.0),
                   lambda: predict_all(gamma, 2, nl)):
            with pytest.raises(kind):
                fn()

    @given(st.sampled_from(["exp", "pow_exp", "linear"]),
           st.floats(min_value=1.0, max_value=2.5),
           st.floats(min_value=0.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=3.0),
           st.sampled_from([2, 3, 4]),
           st.floats(min_value=math.log(1e-300),
                     max_value=math.log(1e300)).map(math.exp))
    # s.gp ** 3 and s.c ** n overflowed here while the snapshot was finite
    @example("pow_exp", 1.986, 0.0, 0.0, 4, 4.99e149)
    @example("pow_exp", 1.943, 0.0, 0.0, 3, 1.59e-92)
    @example("pow_exp", 1.949, 0.0, 0.0, 3, 2.13e-132)
    # g' = 1.5e-162 here: (g')^2 underflowed to 0 under a division
    @example("pow_exp", 2.5, 0.0, 0.0, 2, math.exp(-249.0))
    @settings(max_examples=300, deadline=None)
    def test_fields_are_finite_or_the_error_is_typed(self, family, q, p, rb,
                                                     n, gamma):
        nl = make_nonlinearity(family, q=q, p=p, rho_beta=rb)
        try:
            s = snapshot(nl, n, gamma)
        except QShootError:
            return
        assert all(math.isfinite(getattr(s, f)) for f in (
            "g", "gp", "gpp", "alpha_n", "T1", "T0"))
        # the quadratures' reader is bitwise z', z'' and V2', through both
        # saturations of sigma (x = -800 and +800)
        for x in (-800.0, -40.0, -1.0, 0.0, 0.5, 40.0, 800.0):
            t = s.T1 - (n - 1.0) * x
            want = (s.z(t)[1], s.z(t)[2], s.v2(t)[1])
            assert [v.hex() for v in s.slopes(t)] == [v.hex() for v in want]
        # the closed forms read off the snapshot: finite, or typed refusals
        def prediction():
            pr = predict_all(gamma, n, nl)
            return pr.T_pred, pr.yprime_T_pred, pr.Tprime_pred, s.S_pred

        def turning():  # the markers on the closed-form V2
            S1 = v2_largest_zero(s, tail_start(nl, n, gamma,
                                               ProblemConfig()).t,
                                 s.T1 - 8.0 * (n - 1.0))
            return s.T1, S1, s.S_pred

        for fn in (prediction, turning,
                   lambda: turning_integrals(gamma, n, nl, s.T1),
                   lambda: [tail_power_integral(k, gamma, n, nl, s.T1)
                            for k in (1, 2, 3)]):
            try:
                vals = fn()
            except QShootError:
                continue
            assert all(v is None or math.isfinite(v) for v in vals)

    def test_logistic_helpers_stay_within_an_ulp_of_numpy(self):
        # |x| reaches about 1,180 here, where math.exp(x) would raise
        # OverflowError; numpy's own functions are the reference
        xs = np.random.default_rng(1).normal(0.0, 300.0, 20000)
        e = np.exp(-np.abs(xs))
        refs = {sigma: np.where(xs >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e)),
                softplus: np.logaddexp(0.0, xs)}
        for fn, ref in refs.items():
            got = [fn(x) for x in xs.tolist()]
            assert all(type(v) is float and math.isfinite(v) for v in got)
            assert all(abs(v - r) <= math.ulp(r)
                       for v, r in zip(got, ref.tolist()))

    def test_verify_builds_one_snapshot_per_amplitude(self, monkeypatch):
        # every snapshot runs harmonic(n) once; the suites used to rebuild
        # one at every abscissa of their grids and quadratures (about 6,360)
        calls = []
        real = qshoot.asymptotics.harmonic
        monkeypatch.setattr(qshoot.asymptotics, "harmonic",
                            lambda k: calls.append(k) or real(k))
        assert all(rep.passed for rep in run_suites())
        assert 0 < len(calls) <= 150

    def test_verify_marches_each_ladder_amplitude_once(self, monkeypatch):
        # the decay ladder reads T and T' off one channel march per
        # amplitude, and the suite marches nothing else
        cols = []
        real = qshoot.ode._march

        def counted(*args, **kwargs):
            traj = real(*args, **kwargs)
            cols.append(len(traj.states[0]))
            return traj

        monkeypatch.setattr(qshoot.ode, "_march", counted)
        assert all(rep.passed for rep in run_suites(("asymptotics",)))
        assert cols == [4] * 6
