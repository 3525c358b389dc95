"""First-zero shooting: reference problems with closed forms, route choice,
sweeps, small-amplitude regimes and the weighted reduction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qshoot.asymptotics import snapshot
from qshoot.config import ProblemConfig
from qshoot.errors import AdmissionError, ConfigError, QShootError, SolverError
from qshoot.linearization import solve_V1
from qshoot.nonlinearity import make_nonlinearity, with_lambda
from qshoot.ode import integrate_r, integrate_t, tail_start
from qshoot.shooting import (
    choose_route,
    classify_small_gamma,
    export_profile,
    shoot,
    shoot_singular,
    shoot_weighted_direct,
    singular_reduce,
    sweep,
)
from conftest import bessel_first_zero

# Supercritical tails (q > n/(n-1)) whose first zero lies beyond double range
# in R: (family, n, q, p, rho_beta, lambda, gamma, route).
FAR_ZERO_N3 = ("pow_exp", 3, 1.7997393727841493, 1.4061263845159186,
               1.222662673970494, 5.269902340181269, 180.34620429937397, None)
FAR_ZERO_N4 = ("pow_exp", 4, 1.737769577711514, 0.0017065717837739802,
               0.03990673040854675, 0.6631839210811853, 110.26386035037876,
               "t")
# Subcritical tails at gamma = e^6 whose first zero underflows: T = 2029.2
# gives R = 0, T = 1198.6 gives R = 1.1e-260 and lambda = R^2 = 0.
NEAR_ZERO_R = ("pow_exp", 2, 1.5, 0.0, 0.0, 1.0, math.exp(6.0), None)
NEAR_ZERO_LAM = ("pow_exp", 2, 1.375, 0.0, 0.0, 1.0, math.exp(6.0), None)

# the space of the no-crash properties, drawn as such cases
CASES = st.tuples(st.sampled_from(["exp", "pow_exp", "linear"]),
                  st.sampled_from([2, 3, 4]),
                  st.floats(min_value=1.0, max_value=2.5),
                  st.floats(min_value=0.0, max_value=3.0),
                  st.floats(min_value=0.0, max_value=3.0),
                  st.floats(min_value=-2.0, max_value=2.0).map(math.exp),
                  st.floats(min_value=math.log(1e-4),
                            max_value=math.log(1e3)).map(math.exp),
                  st.sampled_from([None, "r", "t"]))


def _case_nl(case):
    family, n, q, p, rb, lam = case[:6]
    return make_nonlinearity(family, q=q, p=p, rho_beta=rb, lam=lam, n=n)


class TestReferenceProblems:
    def test_linear_source_reproduces_the_bessel_zero(self, nl_linear, cfg2):
        want = bessel_first_zero()
        Rs = [shoot(nl_linear, 2, g, cfg2).R for g in (0.5, 1.0, 2.0)]
        for R in Rs:
            assert R == pytest.approx(want, abs=1e-6)
        # amplitude drops out of a linear problem entirely
        assert max(Rs) - min(Rs) <= 1e-8

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 5.0, 10.0])
    def test_planar_exponential_closed_form(self, nl_exp, cfg2, gamma):
        want = math.sqrt(8.0 * math.expm1(gamma / 2.0) * math.exp(-gamma))
        out = shoot(nl_exp, 2, gamma, cfg2)
        assert out.R == pytest.approx(want, rel=1e-6)
        assert out.lam == pytest.approx(out.R ** 2, rel=1e-14)

    def test_slope_near_its_leading_order(self, cfg2):
        # f = u e^{u^2}: at gamma=4 the slope should sit within a quarter
        # of n/((n-1) g'), g' = 1/4 + 8
        nl = make_nonlinearity("pow_exp", q=2.0, p=1.0)
        out = shoot(nl, 2, 4.0, cfg2)
        lead = 2.0 / 8.25
        assert abs(out.yprime_T - lead) <= 0.25 * lead

    def test_zero_moves_out_as_the_amplitude_grows(self, nl_square, cfg2):
        Ts = [shoot(nl_square, 2, float(g), cfg2).T
              for g in np.linspace(3.0, 6.0, 7)]
        assert all(b > a for a, b in zip(Ts, Ts[1:]))

    def test_radius_and_multiplier_are_locked_together(self, nl_square, cfg2):
        out = shoot(nl_square, 2, 5.0, cfg2)
        assert out.R == 2.0 * math.exp(-out.T / 2.0)
        assert out.lam == out.R ** 2

    def test_multiplier_rescaling_shifts_the_zero(self, cfg2):
        # replacing lambda by 4 lambda shifts T by exactly log 4 at leading
        # order in the planar exponential family, where the form is exact
        base = make_nonlinearity("exp")
        out1 = shoot(base, 2, 3.0, cfg2)
        out4 = shoot(with_lambda(base, 4.0), 2, 3.0, cfg2)
        want = math.sqrt(8.0 * math.expm1(1.5) * math.exp(-3.0) / 4.0)
        assert out4.R == pytest.approx(want, rel=1e-6)
        assert out4.T > out1.T


class TestRouteChoice:
    def test_small_amplitudes_march_outward(self, nl_square, cfg2):
        assert choose_route(nl_square, 2, 0.5, cfg2) == "r"

    def test_steep_tails_march_backward(self, nl_square, nl_exp, cfg2):
        assert choose_route(nl_square, 2, 5.0, cfg2) == "t"
        assert choose_route(nl_exp, 2, 1.0, cfg2) == "r"

    def test_linear_and_weighted_always_march_outward(self, nl_linear,
                                                      nl_square, nl_exp):
        assert choose_route(nl_linear, 2, 1.0, ProblemConfig()) == "r"
        wcfg = ProblemConfig(beta_weight=1.0)
        assert choose_route(nl_square, 2, 5.0, wcfg) == "r"
        # the tail expansion is for the unweighted problem: a forced t-route
        # refuses the weighted one instead of marching the wrong equation
        with pytest.raises(AdmissionError, match="unweighted"):
            shoot(nl_exp, 2, 4.0, wcfg, route="t")
        with pytest.raises(AdmissionError, match="unweighted"):
            solve_V1(nl_exp, 2, 4.0, wcfg, route="t")

    def test_one_floor_scan_and_one_tail_site_per_shoot(
            self, nl_square, cfg2, monkeypatch):
        import qshoot.linearization
        import qshoot.ode
        import qshoot.shooting

        calls = {"floor": 0, "snapshot": 0}

        def counted(key, fn):
            def wrapper(*args):
                calls[key] += 1
                return fn(*args)
            return wrapper

        for mod in (qshoot.shooting, qshoot.ode):
            monkeypatch.setattr(mod, "convexity_floor",
                                counted("floor", mod.convexity_floor))
        monkeypatch.setattr(qshoot.ode, "snapshot",
                            counted("snapshot", qshoot.ode.snapshot))
        monkeypatch.setattr(qshoot.linearization, "snapshot",
                            counted("snapshot", qshoot.linearization.snapshot))
        assert shoot(nl_square, 2, 5.0, cfg2).route == "t"
        assert calls == {"floor": 1, "snapshot": 1}
        calls.update(floor=0, snapshot=0)
        # the linearization seed reads the snapshot the tail site built
        assert solve_V1(nl_square, 2, 5.0, cfg2).route == "t"
        assert calls == {"floor": 1, "snapshot": 1}
        calls.update(floor=0, snapshot=0)
        assert shoot(nl_square, 2, 0.5, cfg2).route == "r"
        assert calls == {"floor": 1, "snapshot": 0}

    def test_built_in_families_never_scan_the_floor(self, nl_family_ii,
                                                    nl_exp, nl_square,
                                                    monkeypatch):
        import qshoot.nonlinearity

        def no_scan(*args, **kwargs):
            raise AssertionError("find_s0 reached")

        monkeypatch.setattr(qshoot.nonlinearity, "find_s0", no_scan)
        three_halves = make_nonlinearity("pow_exp", q=1.5, n=3)
        for nl, n, gamma in ((nl_family_ii, 2, 8.0), (nl_family_ii, 2, 2.0),
                             (nl_exp, 2, 4.0), (three_halves, 3, 6.0),
                             (nl_square, 2, 5.0)):
            out = shoot(nl, n, gamma, ProblemConfig())
            assert math.isfinite(out.T)
        custom = make_nonlinearity("pow_exp", q=2.0,
                                   custom_rho=lambda u, k: 0.0)
        with pytest.raises(AssertionError, match="find_s0"):
            shoot(custom, 2, 5.0, ProblemConfig())

    def test_choice_is_the_route_marched(self, nl_family_ii, nl_exp,
                                         nl_linear, nl_square, cfg2):
        wcfg = ProblemConfig(beta_weight=1.0)
        cases = [(nl_family_ii, float(g), cfg2) for g in range(1, 13)]
        cases += [(nl_exp, 1.0, cfg2), (nl_exp, 4.0, cfg2),
                  (nl_linear, 2.0, cfg2), (nl_square, 5.0, wcfg),
                  (nl_exp, 4.0, wcfg)]
        chosen = [choose_route(nl, 2, g, cfg) for nl, g, cfg in cases]
        assert chosen == [shoot(nl, 2, g, cfg).route for nl, g, cfg in cases]
        # the family (ii) amplitudes cross the switch
        assert chosen[0] == "r" and chosen[11] == "t"

    def test_routes_cross_validate(self, nl_square, cfg2):
        for gamma in (2.0, 3.0, 5.0):
            a = shoot(nl_square, 2, gamma, cfg2, route="t")
            b = shoot(nl_square, 2, gamma, cfg2, route="r")
            assert abs(a.T - b.T) <= 1e-6 * (1.0 + abs(a.T))
            assert a.yprime_T == pytest.approx(b.yprime_T, rel=1e-5)

    def test_outcome_records_its_route(self, nl_square, cfg2):
        assert shoot(nl_square, 2, 5.0, cfg2).route == "t"
        assert shoot(nl_square, 2, 0.5, cfg2).route == "r"


class TestSweep:
    def test_rows_carry_the_export_schema(self, nl_square, cfg2):
        curve = sweep(nl_square, 2, [3.0, 4.0], cfg2)
        rows = list(curve.rows())
        assert [r["gamma"] for r in rows] == [3.0, 4.0]
        for r in rows:
            assert {"gamma", "T", "R", "lambda", "yprime_T"} <= set(r)

    def test_failures_become_placeholder_rows(self, nl_square, cfg2):
        curve = sweep(nl_square, 2, [3.0, -1.0, 4.0], cfg2)
        assert len(curve.outcomes) == 3
        assert curve.outcomes[0].T is not None
        assert curve.outcomes[1].T is None
        assert curve.outcomes[2].T is not None
        assert len(curve.errors) == 1
        bad_gamma, msg = curve.errors[0]
        assert bad_gamma == -1.0
        assert "gamma" in msg

    def test_far_zero_keeps_a_placeholder_row(self):
        nl = _case_nl(FAR_ZERO_N3)
        curve = sweep(nl, 3, [4.0, FAR_ZERO_N3[6]], ProblemConfig())
        assert curve.outcomes[0].T is not None
        assert curve.outcomes[1].T is None
        assert len(curve.errors) == 1 and "T=-2203" in curve.errors[0][1]

    def test_non_finite_amplitudes_keep_placeholder_rows(self, nl_square,
                                                         cfg2):
        curve = sweep(nl_square, 2, [4.0, math.nan, math.inf], cfg2,
                      with_derivative=True)
        assert curve.outcomes[0].T is not None
        assert [o.T for o in curve.outcomes[1:]] == [None, None]
        assert [g for g, _ in curve.errors][1:] == [math.inf]
        assert all("finite" in msg for _, msg in curve.errors)

    def test_derivative_columns_agree(self, nl_family_ii, cfg2):
        curve = sweep(nl_family_ii, 2, [4.0, 6.0], cfg2, with_derivative=True)
        for v1, fd in zip(curve.tprime_v1, curve.tprime_fd):
            assert v1 == pytest.approx(fd, rel=1e-3, abs=1e-6)

    def test_derivative_sweep_marches_each_amplitude_three_times(
            self, nl_family_ii, cfg2, monkeypatch):
        # one channel march for the row and T', two for the difference
        import qshoot.ode as ode
        calls = []
        march = ode._march

        def counted(*args, **kw):
            calls.append(args[0])
            return march(*args, **kw)

        monkeypatch.setattr(ode, "_march", counted)
        curve = sweep(nl_family_ii, 2, [4.0, 6.0], cfg2, with_derivative=True)
        assert curve.errors == ()
        assert len(calls) == 3 * 2

    def test_derivative_rows_come_from_the_channel_march(self, nl_family_ii,
                                                         cfg2):
        curve = sweep(nl_family_ii, 2, [6.0], cfg2, with_derivative=True)
        res = solve_V1(nl_family_ii, 2, 6.0, cfg2)
        assert curve.outcomes[0] == res
        assert curve.tprime_v1[0] == res.tprime()

    def test_failed_channel_keeps_the_shoot_row(self):
        # p < 1: the channel's step size collapses just above the zero,
        # while the plain march lands on it
        nl = make_nonlinearity("pow_exp", q=1.9, p=0.2, n=2)
        cfg = ProblemConfig()
        curve = sweep(nl, 2, [1.0, 3.0], cfg, with_derivative=True)
        for g, out, tv1, tfd in zip(curve.gammas, curve.outcomes,
                                    curve.tprime_v1, curve.tprime_fd):
            assert out == shoot(nl, 2, g, cfg)
            assert None not in (out.R, out.lam) and (tv1, tfd) == (None, None)
        assert curve.errors == tuple(
            (g, "derivative failed: integrator failed: Required step size "
                "is less than spacing between numbers.")
            for g in (1.0, 3.0))

    def test_repeat_sweeps_are_bitwise_identical(self, nl_square, cfg2):
        a = sweep(nl_square, 2, [2.0, 4.0, 6.0], cfg2)
        b = sweep(nl_square, 2, [2.0, 4.0, 6.0], cfg2)
        assert [o.as_dict() for o in a.outcomes] == \
               [o.as_dict() for o in b.outcomes]


class TestDimension:
    """n is each call's argument: every entry point that reads it refuses a
    dimension that is not an integer >= 2, and a weight at or above it,
    with a ConfigError rather than a ZeroDivisionError or a lost march."""

    @pytest.mark.parametrize("n", [0, 1, 2.5])
    def test_entry_points_refuse_the_dimension(self, nl_exp, cfg2, n):
        start = tail_start(nl_exp, 2, 3.0, cfg2)
        calls = {"shoot": lambda: shoot(nl_exp, n, 3.0, cfg2),
                 "solve_V1": lambda: solve_V1(nl_exp, n, 3.0, cfg2),
                 "snapshot": lambda: snapshot(nl_exp, n, 3.0),
                 "integrate_r": lambda: integrate_r(nl_exp, n, 3.0, cfg2),
                 "integrate_t": lambda: integrate_t(nl_exp, n, start, cfg2),
                 "tail_start": lambda: tail_start(nl_exp, n, 3.0, cfg2)}
        for name, call in calls.items():
            with pytest.raises(ConfigError, match="dimension n") as exc:
                call()
            assert str(n) in str(exc.value), name

    def test_weight_at_or_above_the_dimension_is_named(self, nl_exp):
        for beta in (2.0, 2.5):
            with pytest.raises(ConfigError, match="beta_weight"):
                shoot(nl_exp, 2, 1.0, ProblemConfig(beta_weight=beta))

    def test_sweep_keeps_placeholder_rows_with_the_reason(self, nl_exp,
                                                          cfg2):
        curve = sweep(nl_exp, 1, [3.0, 4.0], cfg2)
        assert [o.T for o in curve.outcomes] == [None, None]
        assert curve.errors == tuple(
            (g, "dimension n must be an integer >= 2, got 1")
            for g in (3.0, 4.0))


class TestFarZero:
    """A first zero beyond double range in R or lambda, above or below it,
    is a SolverError naming T."""

    @pytest.mark.parametrize("case,T", [(FAR_ZERO_N3, "-2203"),
                                        (FAR_ZERO_N4, "-1057")])
    def test_shoot_refuses(self, case, T):
        n, gamma, route = case[1], case[6], case[7]
        with pytest.raises(SolverError, match=f"overflows at T={T}"):
            shoot(_case_nl(case), n, gamma, ProblemConfig(), route=route)

    @pytest.mark.parametrize("case,T", [(NEAR_ZERO_R, "2029"),
                                        (NEAR_ZERO_LAM, "1198")])
    def test_shoot_refuses_an_underflowing_zero(self, case, T):
        with pytest.raises(SolverError, match=f"underflows at T={T}"):
            shoot(_case_nl(case), 2, case[6], ProblemConfig())

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_is_a_config_error(self, nl_square, cfg2,
                                                    gamma):
        for solve in (shoot, solve_V1):
            with pytest.raises(ConfigError, match="finite"):
                solve(nl_square, 2, gamma, cfg2)

    def test_singular_reduction_refuses(self):
        # the reduced zero T = -272 is representable; T / a = -2722 is not
        nl = _case_nl(FAR_ZERO_N3)
        with pytest.raises(SolverError, match="T=-272"):
            shoot_singular(nl, 3, 2.7, 60.0)

    @given(CASES)
    @example(FAR_ZERO_N3)
    @example(FAR_ZERO_N4)
    @example(NEAR_ZERO_R)
    @example(NEAR_ZERO_LAM)
    @settings(max_examples=150, deadline=None)
    def test_shoot_never_crashes(self, case):
        n, gamma, route = case[1], case[6], case[7]
        try:
            out = shoot(_case_nl(case), n, gamma, ProblemConfig(),
                        route=route)
        except QShootError:
            return
        assert math.isfinite(out.T)
        assert 0.0 < out.R < math.inf
        assert 0.0 < out.lam < math.inf

    @given(CASES)
    @example(FAR_ZERO_N3)
    @example(FAR_ZERO_N4)
    @example(NEAR_ZERO_R)
    @example(NEAR_ZERO_LAM)
    @settings(max_examples=100, deadline=None)
    def test_linearized_flow_never_crashes(self, case):
        n, gamma, route = case[1], case[6], case[7]
        try:
            tp = solve_V1(_case_nl(case), n, gamma, ProblemConfig(),
                          route=route).tprime()
        except QShootError:
            return
        assert math.isfinite(tp)


class TestSmallAmplitudeRegimes:
    def test_logarithm_strength_splits_three_ways(self, cfg2):
        expected = {0.3: "diverges_up", 1.0: "bounded", 2.0: "diverges_down"}
        for p, verdict in expected.items():
            nl = make_nonlinearity("pow_exp", q=2.0, p=p)
            rep = classify_small_gamma(nl, 2, cfg=cfg2)
            assert rep.verdict == verdict
            assert rep.p_estimate == pytest.approx(p, abs=1e-5)

    def test_bounded_case_has_a_small_spread(self, cfg2):
        nl = make_nonlinearity("pow_exp", q=2.0, p=1.0)
        rep = classify_small_gamma(nl, 2, cfg=cfg2)
        assert rep.spread <= 0.75
        assert len(rep.Ts) == len(rep.gammas)

    def test_needs_at_least_three_points(self, cfg2):
        nl = make_nonlinearity("pow_exp", q=2.0, p=1.0)
        with pytest.raises(ConfigError):
            classify_small_gamma(nl, 2, gammas=(1e-2, 1e-3), cfg=cfg2)


class TestWeightedReduction:
    def test_zero_weight_is_the_identity(self, nl_exp, cfg2):
        direct = shoot(nl_exp, 2, 3.0, cfg2)
        red = shoot_singular(nl_exp, 2, 0.0, 3.0, cfg2)
        assert red.T == direct.T
        assert red.R == direct.R
        assert red.lam == direct.lam

    def test_reduction_matches_the_direct_march(self, nl_exp, cfg2):
        for gamma in (1.0, 2.0, 4.0):
            red = shoot_singular(nl_exp, 2, 1.0, gamma, cfg2)
            direct = shoot_weighted_direct(nl_exp, 2, 1.0, gamma, cfg2)
            assert red.R == pytest.approx(direct.R, rel=1e-5)

    def test_planar_weighted_closed_form(self, nl_exp, cfg2):
        # n=2, weight exponent 1, f = e^u: R = 2 expm1(gamma/2) e^{-gamma}
        for gamma in (1.0, 2.0, 4.0):
            want = 2.0 * math.expm1(gamma / 2.0) * math.exp(-gamma)
            out = shoot_singular(nl_exp, 2, 1.0, gamma, cfg2)
            assert out.R == pytest.approx(want, rel=1e-6)

    def test_reduced_family_rescales_the_multiplier(self, nl_exp):
        nl_red, a = singular_reduce(nl_exp, 2, 1.0)
        assert a == 0.5
        assert nl_red.lam == pytest.approx(1.0 / (2.0 * 0.25), rel=1e-15)

    def test_weight_must_stay_below_the_dimension(self, nl_exp, cfg2):
        with pytest.raises(ConfigError):
            shoot_singular(nl_exp, 2, 2.0, 1.0, cfg2)
        with pytest.raises(ConfigError):
            shoot_singular(nl_exp, 2, -0.5, 1.0, cfg2)


class TestProfileExport:
    def test_endpoints_are_pinned(self, nl_exp, cfg2):
        pr = export_profile(nl_exp, 2, 2.0, cfg2)
        assert pr.xi[0] == 0.0 and pr.xi[-1] == 1.0
        assert pr.u[0] == 2.0
        assert abs(pr.u[-1]) <= 1e-10

    def test_matches_the_planar_exponential_profile(self, nl_exp, cfg2):
        # u(xi) = gamma - 2 log(1 + expm1(gamma/2) xi^2) at lambda = 1
        gamma = 2.0
        pr = export_profile(nl_exp, 2, gamma, cfg2)
        for frac in (0.25, 0.5, 0.75):
            i = int(np.argmin(np.abs(pr.xi - frac)))
            want = gamma - 2.0 * math.log1p(math.expm1(gamma / 2.0)
                                            * pr.xi[i] ** 2)
            assert pr.u[i] == pytest.approx(want, abs=1e-9)

    def test_profile_is_strictly_decreasing(self, nl_square, cfg2):
        pr = export_profile(nl_square, 2, 5.0, cfg2)
        assert all(b < a for a, b in zip(pr.u, pr.u[1:]))

    def test_point_count_is_respected(self, nl_exp, cfg2):
        pr = export_profile(nl_exp, 2, 2.0, cfg2, npts=101)
        assert len(pr.xi) == 101 and len(pr.u) == 101
