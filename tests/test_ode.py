"""Integration engine: tail startup, event location, dense output, the
radius-variable route, and the energy monitor."""

import functools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import DOP853, quad, solve_ivp

import qshoot.ode
from qshoot.asymptotics import snapshot
from qshoot.config import ProblemConfig
from qshoot._stable import EXP_ARG_MAX
from qshoot.errors import AdmissionError, ConfigError, EventNotFoundError
from qshoot.linearization import solve_V1
from qshoot.nonlinearity import (SOURCE_CAP, convexity_floor, eval_source,
                                 make_nonlinearity)
from qshoot.ode import (
    StateR,
    StateT,
    _dopri,
    energy_series,
    energy_violations,
    integrate_r,
    integrate_t,
    quad_dense,
    series_startup_radius,
    tail_admissible,
    tail_start,
)
from qshoot.shooting import shoot
from conftest import saturated_fprime, saturated_source


def _march_t(nl, n, start, cfg, level, floor):
    """integrate_t's march from `start` to `level`, giving up at the
    abscissa `floor`, through the shared core."""
    rhs, kernels = qshoot.ode._system("t", nl, n, False)
    return qshoot.ode._march("t", nl, n, cfg, rhs, (start.t, floor),
                             [start.y, start.L], level, None,
                             f"above the floor t={floor}", kernels=kernels)


def _march_r(nl, n, gamma, cfg, level, r_end):
    """integrate_r's march from its own startup to `level`, giving up at
    the radius `r_end`, through the shared core."""
    first = integrate_r(nl, n, gamma, cfg)
    rhs, kernels = qshoot.ode._system("r", nl, n, False, nb=float(n))
    return qshoot.ode._march("r", nl, n, cfg, rhs, (first.ts[0], r_end),
                             list(first.states[0]), level, None,
                             f"inside r <= {r_end}", kernels=kernels)


def _picard_delta(nl, n, gamma):
    """One Picard pass of the integral equation over the tail window
    [t0, t0 + 40(n-1)] from the tail start at t0, the remainder beyond the
    window taken from the closed forms:
    psi_1(t) = int_t^inf f(z) e^{-s} ds,  y_1 = gamma - int psi_1^{1/(n-1)}.
    Returns the start state's distance to it, in y and in psi."""
    st = tail_start(nl, n, gamma, ProblemConfig())
    s = snapshot(nl, n, gamma)
    hi = st.t + 40.0 * (n - 1.0)

    def psi1(t):
        val, _ = quad(lambda u: eval_source(nl, s.z(u)[0], u), t, hi,
                      limit=200)
        return val + math.exp(s.g - hi)  # source ~ f(gamma) e^{-s} past hi

    y_int, _ = quad(lambda u: psi1(u) ** (1.0 / (n - 1.0)), st.t, hi,
                    limit=100)
    y1 = s.z(hi)[0] - y_int  # z itself past the window
    return abs(y1 - st.y), abs(psi1(st.t) - math.exp(st.L))


class TestStateHelpers:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_the_start_carries_the_log_flux(self, nl_square, n):
        # L0 = (n-1) log z'(t_start), and the channel seed phi = z'^{n-2} V2'
        st, s = qshoot.ode._tail_site(nl_square, n, 5.0, 6.0, 0.0)
        zp = s.z(st.t)[1]
        assert st.L == pytest.approx((n - 1.0) * math.log(zp), rel=1e-14)
        _, phi = qshoot.ode._v2_seed(st, s, n)
        assert phi == pytest.approx(zp ** (n - 2.0) * s.v2(st.t)[1],
                                    rel=1e-13)

    def test_radial_slope_keeps_the_flux_sign(self, nl_square):
        # the r-route readout at a node is w' = -(|Phi| / r^{n-1})^{1/(n-1)},
        # read off the march's own right-hand side, bit for bit
        for n in (2, 3):
            traj = integrate_r(nl_square, n, 1.0, ProblemConfig())
            for r, (_, Phi) in zip(traj.ts, traj.states):
                assert Phi < 0.0
                assert traj.yprime_at(r) == \
                    -((abs(Phi) / r ** (n - 1.0)) ** (1.0 / (n - 1.0)))

    def test_states_are_frozen(self):
        st = StateT(t=1.0, y=2.0, L=3.0)
        with pytest.raises(AttributeError):
            st.y = 0.0


class TestTailStart:
    def test_linear_family_is_refused(self, nl_linear):
        with pytest.raises(AdmissionError):
            tail_start(nl_linear, 2, 1.0, ProblemConfig())

    def test_shallow_exponent_is_refused(self, nl_square):
        # g'(0.4) = 0.8 <= 1
        with pytest.raises(AdmissionError):
            tail_start(nl_square, 2, 0.4, ProblemConfig())

    def test_short_tail_window_is_refused(self, nl_square):
        with pytest.raises(AdmissionError):
            tail_start(nl_square, 2, 5.0, ProblemConfig(c_tail=0.1))

    def test_amplitude_below_convexity_floor_is_refused(self, nl_family_ii):
        floor = convexity_floor(nl_family_ii)
        with pytest.raises(AdmissionError):
            tail_start(nl_family_ii, 2, 0.5 * floor, ProblemConfig())

    def test_start_state_sits_near_the_amplitude(self, nl_square, cfg2):
        gamma = 5.0
        st = tail_start(nl_square, 2, gamma, cfg=cfg2)
        assert 0.9 * gamma < st.y < gamma
        assert math.exp(st.L) > 0.0

    def test_admissibility_mirrors_the_start(self, nl_exp, nl_square, cfg2):
        # pure exponential: the comparison solution is exact, but the start
        # value must stay well above zero
        assert not tail_admissible(nl_exp, 2, 1.0, cfg2)
        assert tail_admissible(nl_exp, 2, 3.0, cfg2)
        assert tail_admissible(nl_square, 2, 5.0, cfg2)
        assert not tail_admissible(nl_square, 2, 0.4, cfg2)

    @pytest.mark.parametrize("n, gamma, reason", [
        (1, 3.0, "dimension n"), (2, math.nan, "gamma must be finite")])
    def test_bad_input_is_an_error_not_a_refusal(self, nl_exp, cfg2, n,
                                                 gamma, reason):
        for call in (tail_start, tail_admissible):
            with pytest.raises(ConfigError, match=reason) as exc:
                call(nl_exp, n, gamma, cfg2)
            assert not isinstance(exc.value, AdmissionError)

    def test_picard_pass_confirms_the_start_state(self, nl_square):
        delta_y, delta_psi = _picard_delta(nl_square, 2, 5.0)
        assert delta_y <= 1e-10
        assert delta_psi <= 1e-10


class TestBackwardMarch:
    def test_zero_event_residual(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        traj = integrate_t(nl_square, 2, st, cfg2)
        assert abs(float(traj.dense(traj.stop)[0])) <= 1e-12

    def test_dense_output_is_exact_at_nodes(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        traj = integrate_t(nl_square, 2, st, cfg2)
        dev = max(abs(float(traj.dense(t)[0]) - traj.states[i][0])
                  for i, t in enumerate(traj.ts))
        assert dev <= 1e-13

    def test_dense_midpoints_agree_with_a_tighter_run(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        tr1 = integrate_t(nl_square, 2, st, cfg2)
        tight = ProblemConfig(rtol=1e-12)
        tr2 = integrate_t(nl_square, 2,
                          tail_start(nl_square, 2, 5.0, cfg=tight), tight)
        mids = [0.5 * (a + b) for a, b in zip(tr1.ts, tr1.ts[1:])]
        dev = max(abs(float(tr1.dense(m)[0]) - float(tr2.dense(m)[0]))
                  for m in mids if m > tr2.ts[-1])
        assert dev <= 1e-7

    def test_tightening_the_tolerance_tightens_the_zero(self, nl_square):
        def T_of(rtol):
            cfg = ProblemConfig(rtol=rtol)
            st = tail_start(nl_square, 2, 5.0, cfg=cfg)
            traj = integrate_t(nl_square, 2, st, cfg)
            return traj.stop

        ref = T_of(1e-12)
        e_loose = abs(T_of(1e-5) - ref)
        e_tight = abs(T_of(1e-9) - ref)
        assert e_tight < e_loose
        assert e_loose / max(e_tight, 1e-300) >= 2.0
        assert e_tight <= 1e-7

    # (family keywords, n, gamma, steps): accepted steps with y > 0.999
    # gamma, where psi ~ f(gamma) e^{-t}; the march of psi took 12, 17 and
    # 48, and scipy's control law alone took 7, 8 and 20
    TAIL_STEPS = [(dict(q=1.5, p=1.0, rho_beta=1.0), 2, 6.0, 7),
                  (dict(q=1.5), 3, 7.5, 8), (dict(q=2.0), 2, 20.0, 21)]
    # each march's rejected trials, by (n, gamma); 8, 9 and 22 under scipy's
    # control law alone
    TAIL_REJECTED = {(2, 6.0): 5, (3, 7.5): 3, (2, 20.0): 9}

    @pytest.mark.parametrize("kw,n,gamma,steps", TAIL_STEPS)
    def test_the_exponential_tail_takes_few_steps(self, kw, n, gamma, steps):
        # L = log psi falls at a nearly constant rate there, so the step is
        # not held to a relative control of a decaying exponential; the
        # error per step grows as the source returns, and the predictive
        # factor keeps the march from failing each step it grows into
        nl = make_nonlinearity("pow_exp", **kw)
        traj = shoot(nl, n, gamma, ProblemConfig(), keep_trajectory=True,
                     route="t").traj
        assert sum(row[0] > 0.999 * gamma for row in traj.states[1:]) \
            == steps
        assert traj.diagnostics["rejected"] == self.TAIL_REJECTED[n, gamma]

    @pytest.mark.parametrize("n", [60, 100])
    def test_a_start_flux_below_the_double_range_marches(self, nl_square, n):
        # psi0 = e^{L0} underflows to 0 (L0 = -950 and -1595), its log
        # does not: T agrees across rtol and tail depth, where the march of
        # psi gave 153.6307 and 302.82
        st = tail_start(nl_square, n, 5.0, ProblemConfig())
        assert math.exp(st.L) == 0.0
        Ts = [shoot(nl_square, n, 5.0, ProblemConfig(rtol=rtol, c_tail=c),
                    route="t").T
              for rtol in (1e-10, 1e-12) for c in (6.0, 8.0)]
        assert max(Ts) - min(Ts) <= 1e-12 * Ts[0]

    def test_threshold_crossing_is_tracked(self, nl_family_ii, cfg2):
        s0 = convexity_floor(nl_family_ii)
        st = tail_start(nl_family_ii, 2, 8.0, cfg=cfg2)
        traj = integrate_t(nl_family_ii, 2, st, cfg2, track_s0=s0)
        assert traj.s0 is not None
        y_at = float(traj.dense(traj.s0)[0])
        assert y_at == pytest.approx(s0, abs=1e-9)


class TestMarchingCore:
    """Behaviour the two routes share through the one marching core."""

    @pytest.mark.parametrize("route", ["t", "r"])
    def test_missing_event_reports_the_last_state(self, route, nl_square,
                                                  cfg2):
        with pytest.raises(EventNotFoundError) as exc:
            if route == "t":
                st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
                _march_t(nl_square, 2, st, cfg2, 0.0, st.t - 1.0)
            else:
                _march_r(nl_square, 2, 3.0, cfg2, 0.0, 0.05)
        last = exc.value.last_state
        if route == "t":
            assert isinstance(last, StateT)
            assert last.y > 0.0  # never reached zero in one unit of t
        else:
            assert isinstance(last, StateR)
            assert last.r == 0.05  # ran out of radius before the zero
            assert last.w > 0.0

    @pytest.mark.parametrize("route", ["t", "r"])
    def test_level_crossing_stop(self, route, nl_square, cfg2):
        if route == "t":
            st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
            traj = _march_t(nl_square, 2, st, cfg2, 2.5, st.t - 1000.0)
        else:
            traj = _march_r(nl_square, 2, 3.0, cfg2, 2.5, qshoot.ode.R_MAX)
        x = traj.stop
        assert float(traj.dense(x)[0]) == pytest.approx(2.5, abs=1e-10)

    @pytest.mark.parametrize("route", ["t", "r"])
    def test_readout_matches_shoot(self, route, nl_family_ii, cfg2):
        out = shoot(nl_family_ii, 2, 6.0, cfg2, keep_trajectory=True,
                    route=route)
        T, ypT, Ttilde, state = out.traj.stop_readout()
        assert out.traj.kind == route
        assert (T, ypT, Ttilde) == (out.T, out.yprime_T, out.Ttilde)
        assert float(state[0]) == pytest.approx(0.0, abs=1e-10)
        diag = out.diagnostics
        assert diag["route"] == route
        assert {"nfev", "steps", "status"} <= set(diag)
        assert diag["nfev"] > diag["steps"] > 0
        assert diag["status"] == 1
        extra = {"t": "t_start", "r": "r0"}
        assert extra[route] in diag
        assert extra["r" if route == "t" else "t"] not in diag


class TestOutwardMarch:
    @pytest.mark.parametrize("n", [2, 3])
    def test_agrees_with_the_backward_march(self, n, nl_square):
        cfg = ProblemConfig()
        st = tail_start(nl_square, n, 3.0, cfg=cfg)
        trt = integrate_t(nl_square, n, st, cfg)
        Tt = trt.stop
        trr = integrate_r(nl_square, n, 3.0, cfg)
        Tr = -n * math.log(trr.stop / n)
        assert abs(Tt - Tr) <= 1e-6 * (1.0 + abs(Tt))

    def test_startup_radius_formula(self, nl_square, cfg2):
        fg = math.exp(9.0)  # f(3) for f = e^{u^2}
        r0 = series_startup_radius(fg, 2, 3.0, cfg2)
        assert r0 == pytest.approx(
            (cfg2.rtol * 2.0 / math.exp(9.0)) ** 0.5, rel=1e-13)
        assert r0 <= 1e-3
        # the weight r^{-beta} sets the series' power: (n-beta)/(n-1) of r
        weighted = replace(cfg2, beta_weight=1.0)
        r0w = series_startup_radius(fg, 2, 3.0, weighted)
        assert r0w == pytest.approx(cfg2.rtol / math.exp(9.0), rel=1e-13)
        # an amplitude of a few rtol: the series takes half of it at r0;
        # from 1e-9 up the tolerance bound alone sets r0, bitwise
        r0t = series_startup_radius(1.0, 2, 1e-12, cfg2)
        assert r0t == pytest.approx(math.sqrt(2e-12), rel=1e-13)
        assert series_startup_radius(1.0, 2, 1e-9, cfg2) \
            == (cfg2.rtol * 2.0) ** 0.5

    def test_exponent_budget_guards_the_startup(self, nl_square, cfg2):
        # log f(30) = 900 exceeds the exponent budget of about 220
        with pytest.raises(AdmissionError):
            integrate_r(nl_square, 2, 30.0, cfg2)

    def test_overflow_sentinel_never_cuts_an_admitted_march(
            self, nl_exp, monkeypatch):
        # below the budget the right-hand side never reaches the sentinel: a
        # far larger one, in the source closures and the slope clamps alike,
        # marches bitwise the same
        import qshoot.nonlinearity
        import qshoot.ode

        cases = [(2, 0.0, 220.0), (3, 1.0, 220.0)]
        runs = [integrate_r(nl_exp, n, g, ProblemConfig(beta_weight=b)).stop
                for n, b, g in cases]
        monkeypatch.setattr(qshoot.nonlinearity, "SOURCE_CAP", 1e300)
        monkeypatch.setattr(qshoot.ode, "SOURCE_CAP", 1e300)
        assert runs == [integrate_r(nl_exp, n, g,
                                    ProblemConfig(beta_weight=b)).stop
                        for n, b, g in cases]

    def test_overflow_sentinel_budget_refuses_loudly(self, nl_exp):
        # log f(250) = 250 is inside the exponent cap, but f itself would be
        # clamped: refused instead of marching a different equation
        for b in (0.0, 1.0):
            with pytest.raises(AdmissionError, match="exponent budget"):
                integrate_r(nl_exp, 2, 250.0, ProblemConfig(beta_weight=b))
        # n - b < 1: the singular weight lifts the startup source past it
        with pytest.raises(AdmissionError, match="startup"):
            integrate_r(nl_exp, 2, 150.0, ProblemConfig(beta_weight=1.9))

    def test_an_underflowing_source_is_refused(self):
        # f(1e-12) = 1e-480 underflows to 0 before the startup divides by it
        nl = make_nonlinearity("pow_exp", p=40.0)
        with pytest.raises(AdmissionError, match="underflows to 0"):
            integrate_r(nl, 2, 1e-12, ProblemConfig())

    def test_the_startup_radius_saturates_at_its_cap(self):
        # x0 = rtol (n-b) / f(gamma) is about 1e289: its power 1/(n-b) = 10
        # would overflow, and the cap holds it
        weighted = ProblemConfig(beta_weight=1.9)
        assert series_startup_radius(1e-300, 2, math.inf, weighted) == 1e-3

    def test_a_start_flux_below_its_tolerance_is_refused(self, nl_linear):
        # Phi0 = -gamma r0^2 / 2 is about 1e-310 here
        with pytest.raises(AdmissionError, match="startup flux"):
            integrate_r(nl_linear, 2, 1e-300, ProblemConfig())

    @pytest.mark.parametrize("beta", [0.5, 1.9])
    def test_the_linear_zero_holds_at_every_amplitude(self, nl_linear, beta):
        # f = u: R is the Bessel zero in x = (2/(2-b)) r^{(2-b)/2} whatever
        # gamma. Its series start once took half of gamma where the next
        # term, the first one squared, is not small: R was off by 89% from
        # gamma = 1e-9 at b = 1.9
        cfg = ProblemConfig(beta_weight=beta)
        exact = (2.404825557695773 * (2.0 - beta) / 2.0) \
            ** (2.0 / (2.0 - beta))
        for gamma in (1e-1, 1e-5, 1e-9, 1e-100, 1e-200, 1e-280):
            traj = integrate_r(nl_linear, 2, gamma, cfg)
            assert traj.stop == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("n", [3, 4])
    def test_the_linear_zero_scales_with_the_amplitude(self, n):
        # u -> gamma u turns f = u into gamma^{2-n} u under the n-Laplacian,
        # so R gamma^{-(n-2)/n} is R at gamma = 1; the half-gamma series
        # start was off by 7.7% (n=3) and 5.6% (n=4) from gamma = 1e-10
        nl = make_nonlinearity("linear")
        r1 = integrate_r(nl, n, 1.0).stop
        for gamma in (1e-4, 1e-8, 1e-12, 1e-20):
            r = integrate_r(nl, n, gamma).stop * gamma ** ((2.0 - n) / n)
            assert r == pytest.approx(r1, rel=1e-8)

    def test_weighted_linearization_is_refused(self, nl_square):
        cfg = ProblemConfig(beta_weight=1.0)
        with pytest.raises(ConfigError):
            integrate_r(nl_square, 2, 2.0, cfg, lin=True)

    def test_rejects_nonpositive_amplitude(self, nl_square, cfg2):
        with pytest.raises(ConfigError):
            integrate_r(nl_square, 2, -1.0, cfg2)

    def test_profile_decreases_from_the_amplitude(self, nl_square, cfg2):
        traj = integrate_r(nl_square, 2, 3.0, cfg2)
        w = [s[0] for s in traj.states]
        assert w[0] < 3.0
        assert all(b < a for a, b in zip(w, w[1:]))


class TestEnergyMonitor:
    def test_no_violations_along_a_shot(self, nl_square, cfg2):
        # gamma = 8: the march of L takes 45 samples at gamma = 5
        st = tail_start(nl_square, 2, 8.0, cfg=cfg2)
        traj = integrate_t(nl_square, 2, st, cfg2)
        recs = energy_series(traj)
        assert len(recs) > 50
        assert energy_violations(recs) == []
        assert all(r.scale > 0.0 for r in recs)

    def test_restricted_to_the_log_radius_route(self, nl_square, cfg2):
        traj = integrate_r(nl_square, 2, 3.0, cfg2)
        with pytest.raises(ConfigError):
            energy_series(traj)

    def test_linear_family_is_refused(self, nl_linear, cfg2):
        # no tail start admits the linear family, but a direct march can
        traj = integrate_t(nl_linear, 2, StateT(t=0.0, y=1.0, L=math.log(0.5)),
                           cfg2)
        with pytest.raises(ConfigError):
            energy_series(traj)

    def test_violation_detector_flags_an_increase(self):
        from qshoot.ode import EnergyRecord
        recs = [EnergyRecord(t=2.0, E=1.0, scale=1.0),
                EnergyRecord(t=1.0, E=1.1, scale=1.0),
                EnergyRecord(t=0.0, E=1.05, scale=1.0)]
        # records run in decreasing t; E must not decrease along the list
        bad = energy_violations(recs)
        assert len(bad) == 1
        assert bad[0][0] == 1.0 and bad[0][1] == 0.0


class TestDenseQuadrature:
    def test_matches_adaptive_quadrature(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        traj = integrate_t(nl_square, 2, st, cfg2)

        def fun(x, state):
            return math.sin(0.3 * x) * float(state[0])

        a, b = float(traj.ts[-1]), float(traj.ts[0])
        ref, _ = quad(lambda x: fun(x, traj.dense(x)), a, b, limit=400)
        got = quad_dense(traj, fun, a, b)
        assert got == pytest.approx(ref, abs=1e-8)

    def test_orientation_and_degenerate_window(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        traj = integrate_t(nl_square, 2, st, cfg2)
        fun = lambda x, state: float(state[1])
        a, b = float(traj.ts[-1]), float(traj.ts[0])
        assert quad_dense(traj, fun, b, a) == -quad_dense(traj, fun, a, b)
        assert quad_dense(traj, fun, a, a) == 0.0


class TestTrajectoryViews:
    @pytest.mark.parametrize("route", ["t", "r"])
    def test_the_record_is_the_steppers_own_samples(self, route, nl_square,
                                                    cfg2):
        traj = solve_V1(nl_square, 2, 3.0, cfg2, keep_trajectory=True,
                        route=route).traj
        assert traj.ts is traj.dense.ts and traj.states is traj.dense.ys
        assert all(type(t) is float for t in traj.ts)
        assert all(type(v) is float for row in traj.states for v in row)
        x = 0.5 * (traj.ts[1] + traj.ts[2])
        assert type(traj.state_at(x)) is list
        assert traj.state_at(traj.ts[1]) == traj.states[1]

    def test_a_crossing_is_found_on_any_component(self):
        # (sin t, cos t): each component's first crossing of a level
        dense, _, _ = _dopri(lambda t, u: (u[1], -u[0]), 0.0, [0.0, 1.0],
                             3.0, 1e-12, [1e-14, 1e-14])
        assert dense.crossing(0.5, 1e-13) == pytest.approx(math.pi / 6.0,
                                                            abs=1e-10)
        assert dense.crossing(0.0, 1e-13, 1) == pytest.approx(math.pi / 2.0,
                                                               abs=1e-10)
        assert dense.crossing(-0.5, 1e-13, 1) == pytest.approx(
            2.0 * math.pi / 3.0, abs=1e-10)
        assert dense.crossing(2.0, 1e-13, 1) is None

    def test_the_library_reads_no_numpy_on_a_march(self):
        # the package and its scripts compute in Python floats alone
        root = Path(__file__).resolve().parents[1]
        paths = [*(root / "src" / "qshoot").glob("*.py"),
                 *(root / "scripts").glob("*.py")]
        assert len(paths) > 10
        assert [p.name for p in paths if "numpy" in p.read_text()] == []

    def test_span_and_bounds(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        traj = integrate_t(nl_square, 2, st, cfg2)
        lo, hi = traj.span()
        assert lo < hi
        assert (lo, hi) == (min(traj.ts), max(traj.ts))
        trr = integrate_r(nl_square, 2, 3.0, cfg2)
        assert trr.span() == (min(trr.ts), max(trr.ts))

    def test_slope_views_agree_across_routes(self, nl_square):
        # -(r/n) dw/dr at r = n e^{-t/n} is the t-route slope
        cfg, n = ProblemConfig(), 2
        st = tail_start(nl_square, n, 3.0, cfg=cfg)
        trt = integrate_t(nl_square, n, st, cfg)
        trr = integrate_r(nl_square, n, 3.0, cfg)
        lo_t, hi_t = trt.span()
        r_lo, r_hi = trr.span()
        lo = max(lo_t, -n * math.log(r_hi / n))
        hi = min(hi_t, -n * math.log(r_lo / n))
        for t in np.linspace(lo + 0.1, hi - 0.1, 7):
            r = n * math.exp(-t / n)
            assert trt.yprime_at(float(t)) == pytest.approx(
                -(r / n) * trr.yprime_at(r), rel=1e-6, abs=1e-9)


def _dev(a, b):
    """|a - b| in units of each column's largest magnitude in b."""
    return np.abs(a - b) / np.max(np.abs(b), axis=0)


def _marched(monkeypatch, march):
    """Run `march` and return its trajectory with the right-hand side, span
    and start state the marching core was handed."""
    seen = {}
    core = qshoot.ode._march

    def spy(kind, nl, n, cfg, rhs, span, y0, *args, **kw):
        seen.update(rhs=rhs, span=span, y0=y0)
        return core(kind, nl, n, cfg, rhs, span, y0, *args, **kw)

    monkeypatch.setattr(qshoot.ode, "_march", spy)
    traj = march()
    monkeypatch.undo()
    return traj, seen


class _HeldLogFlux(DOP853):
    """scipy's DOP853 with column 1, the t-route's L = log psi, held to its
    atol alone in the error norm."""

    def _estimate_error_norm(self, K, h, scale):
        scale = scale.copy()
        scale[1] = self.atol[1]
        return super()._estimate_error_norm(K, h, scale)


class TestStepper:
    """The DOP853 stepper keeps scipy DOP853's control law (initial step,
    error norm, safety 0.9, exponent 1/8, growth of at most 10, none after
    a rejection) with one change: after an accepted step the aim did not
    cut, the step factor is scaled by Gustafsson's predictive term, so the
    step ends part from scipy's once the error per step grows. The t-route
    also bounds its steps by max(4, |t|/2). When the march aims at its stop
    level, a step that would reach past the tangent's estimate of the level
    is cut, and the stop is landed by a genuine step. Step ends are not
    pinned bitwise: the error sums cancel heavily, so a different summation
    order moves the norm by about 1e-4 and the step ends by about 1e-5, and
    where the norm sits at rounding level, as on the tail march's first
    steps, by far more.

    `nfev` counts the march's own evaluations, 2 + 12 per attempted or
    landing step. The three extra stages the dense output pays on each step
    it evaluates off its nodes are not in it; scipy's `nfev` counts them
    for every step when it builds a dense output."""

    def test_matches_scipy_on_exponential_decay(self):
        dense, _, counts = _dopri(lambda t, u: (-u[0],), 0.0, [1.0], 10.0,
                                  1e-8, [1e-10])
        ref = solve_ivp(lambda t, u: -u, (0.0, 10.0), [1.0],
                        method="DOP853", rtol=1e-8, atol=1e-10,
                        dense_output=True)
        steps = len(ref.t) - 1
        assert (counts["status"], len(dense.ts) - 1, counts["nfev"]) == \
            (0, steps, ref.nfev - 3 * steps)
        assert (steps, counts["nfev"]) == (18, 218)
        ts, ys = np.array(dense.ts), np.array(dense.ys)
        assert _dev(ys, ref.sol(ts).T).max() <= 1e-9
        assert _dev(ys, np.exp(-ts)[:, None]).max() <= 1e-8
        # the 7th-order interpolant between the nodes
        mids = 0.5 * (ts[:-1] + ts[1:])
        got = np.array([dense(m) for m in mids])
        assert _dev(got, ref.sol(mids).T).max() <= 1e-9

    # (steps, nfev, steps ending where scipy's do) of each march; scipy
    # takes 36 steps (758 nfev) and 63 (1,355), and scipy's control law
    # alone took 33 (506) and 49 (758)
    TAIL_PINS = {(2, False): (35, 494, 2), (3, True): (50, 686, 1)}

    @pytest.mark.parametrize("n,lin", [(2, False), (3, True)])
    def test_matches_scipy_on_the_tail_march(self, monkeypatch, n, lin):
        # scipy's DOP853 takes one rtol for every column and clips a zero
        # one to 100 eps, so a subclass holds L to its atol alone, as the
        # t-route does; the initial step keeps the relative term on L in
        # both. The first steps' error norms sit at rounding level (1e-8),
        # where the summation order moves the step factor: the step ends
        # part after one or two steps, and the states still agree.
        nl = make_nonlinearity("pow_exp", q=1.5, p=1.0, rho_beta=1.0)
        cfg = ProblemConfig()
        if lin:
            traj, seen = _marched(monkeypatch, lambda: solve_V1(
                nl, n, 6.0, cfg, keep_trajectory=True, route="t").traj)
        else:
            traj, seen = _marched(monkeypatch, lambda: shoot(
                nl, n, 6.0, cfg, keep_trajectory=True, route="t").traj)
        assert len(traj.states[0]) == (4 if lin else 2)

        def zero(t, u):
            return u[0]
        zero.terminal = True
        atol = [cfg.rtol / 100, cfg.rtol] \
            + [cfg.rtol / 100] * (len(seen["y0"]) - 2)
        ref = solve_ivp(lambda t, u: seen["rhs"](t, list(u)), seen["span"],
                        seen["y0"], method=_HeldLogFlux, rtol=cfg.rtol,
                        atol=atol, events=[zero], dense_output=True)
        diag = traj.diagnostics
        steps, nfev, same = self.TAIL_PINS[n, lin]
        assert (diag["steps"], diag["nfev"]) == (steps, nfev)
        ts = np.asarray(traj.ts)
        assert np.abs(ts[:same + 1] - ref.t[:same + 1]).max() <= 1e-6
        assert abs(ts[same + 1] - ref.t[same + 1]) > 1e-6
        dev = _dev(traj.states, ref.sol(traj.ts).T)
        assert dev[:-1].max() <= 1e-9
        # the landed stop against scipy's interpolant there
        assert dev[-1].max() <= 1e-8
        assert traj.stop == pytest.approx(ref.t[-1], abs=1e-9)

    @pytest.mark.parametrize("route,lin", [("t", False), ("t", True),
                                           ("r", False), ("r", True)])
    def test_counters_account_for_every_evaluation(self, route, lin):
        # two to start, twelve per attempted step, twelve per landing pass
        nl = make_nonlinearity("exp")
        cfg = ProblemConfig()
        if lin:
            traj = solve_V1(nl, 2, 10.0, cfg, keep_trajectory=True,
                            route=route).traj
        else:
            traj = shoot(nl, 2, 10.0, cfg, keep_trajectory=True,
                         route=route).traj
        d = traj.diagnostics
        assert d["nfev"] == 2 + 12 * (d["steps"] + d["rejected"]
                                      + d["landing"])
        assert d["landing"] >= 1 and d["landed"]
        assert d["steps"] == len(traj.ts) - 1
        assert d["aimed"] >= 1 and 0 <= d["rejected_stop"] <= d["rejected"]
        # the step that lands on the zero, and the predicted ones
        assert d["h_land"] == abs(traj.ts[-1] - traj.ts[-2])
        assert 0 <= d["predicted"] <= d["steps"]
        if (route, lin) == ("t", False):
            assert d["rejected"] > 0

    @pytest.mark.parametrize("gamma", [1e-170, 1e-250])
    def test_the_aim_holds_at_tiny_amplitudes(self, gamma):
        # y - level and y' both tiny: their product underflows to 0, their
        # signs still say the march heads for the level
        nl = make_nonlinearity("pow_exp", p=1.0)
        d = shoot(nl, 2, gamma, ProblemConfig(),
                  keep_trajectory=True).traj.diagnostics
        assert d["aimed"] >= 1 and d["rejected_stop"] == 0

    def test_a_steep_core_lands_on_its_first_zero(self):
        # the step bound keeps the march from leaping into the core, where
        # no step lands: it lands on the first crossing (3.4710749 when
        # capped at steps of 0.5)
        nl = make_nonlinearity(
            "pow_exp", q=2.048104938325588, p=1.2205259916931035,
            rho_beta=1.468465276109871, lam=0.29230008974150495)
        traj = shoot(nl, 2, 142.00054031975856, ProblemConfig(),
                     keep_trajectory=True, route="t").traj
        assert traj.diagnostics["landed"]
        assert traj.stop == pytest.approx(3.4710749, abs=1e-7)

    def test_counters_account_for_a_rewound_step(self, monkeypatch):
        # on either route the first landing fails: the crossing step is
        # rewound as a rejection, and the march lands on its retry
        landed = []
        land = qshoot.ode.DenseOutput.land

        def spy(dense, *args):
            stop = land(dense, *args)
            landed.append(args[3]["landed"])
            return stop

        monkeypatch.setattr(qshoot.ode.DenseOutput, "land", spy)
        nl = make_nonlinearity(
            "pow_exp", q=1.7829969044604073, p=0.12372409667228079,
            rho_beta=1.7566242679211603, lam=0.12565466792950805)
        gamma, tight = 2.478536716884354, ProblemConfig(rtol=1e-13)
        for route in ("t", "r"):
            landed.clear()
            out = shoot(nl, 2, gamma, ProblemConfig(), keep_trajectory=True,
                        route=route)
            d = out.traj.diagnostics
            assert landed == [False, True], route
            assert d["nfev"] == 2 + 12 * (d["steps"] + d["rejected"]
                                          + d["landing"])
            assert d["rejected_stop"] == 2 and d["rejected"] > 2
            ref = shoot(nl, 2, gamma, tight, route=route)
            assert out.T == pytest.approx(ref.T, rel=2e-11)

    def test_the_predictive_factor_ends_the_reject_ping_pong(self):
        # y' = e^{-t} backwards: the error per step grows as e^{|h|}, and
        # scipy's control law alone failed 10 trials (518 nfev) to the same
        # end error
        dense, _, counts = _dopri(lambda t, u: (math.exp(-t),), 30.0, [0.0],
                                  0.0, 1e-10, [1e-12])
        assert (counts["rejected"], counts["nfev"]) == (2, 434)
        assert counts["predicted"] > 0
        assert abs(dense.ys[-1][0] - (math.exp(-30.0) - 1.0)) <= 1e-12

    @pytest.mark.parametrize("gamma", [5.0, 7.0, 9.0])
    def test_aimed_steps_stay_out_of_the_prediction(self, gamma):
        # the aim cuts each step near the zero to about a third of the last;
        # a prediction fed those steps would shrink the next one alike, and
        # the aim's approach would take twice the aimed steps
        nl = make_nonlinearity("pow_exp", q=1.5)
        cfg = ProblemConfig()
        d = shoot(nl, 3, gamma, cfg, keep_trajectory=True,
                  route="t").traj.diagnostics
        assert 1 <= d["aimed"] <= 4
        d = solve_V1(nl, 3, gamma, cfg, keep_trajectory=True,
                     route="t").traj.diagnostics
        assert 1 <= d["aimed"] <= 7

    @pytest.mark.parametrize("bad", [math.nan, 1e300])
    def test_a_non_finite_error_norm_is_a_rejection(self, bad):
        # the first trial step meets one NaN or error-norm-overflowing slope
        calls = []

        def rhs(t, u):
            calls.append(t)
            return (bad if len(calls) == 3 else -u[0],)

        dense, _, counts = _dopri(rhs, 0.0, [1.0], 2.0, 1e-8, [1e-10])
        ref = _dopri(lambda t, u: (-u[0],), 0.0, [1.0], 2.0, 1e-8,
                     [1e-10])[0]
        assert (counts["status"], counts["rejected"]) == (0, 1)
        assert counts["nfev"] == 2 + 12 * len(dense.ts)
        # the retry is the clean first step cut by the 0.2 factor
        assert dense.ts[1] == pytest.approx(0.2 * ref.ts[1], rel=1e-12)

    def test_a_nan_slope_at_the_start_fails_the_march(self):
        # the step size comes out NaN; scipy's DOP853 loops forever on it
        _, stop, counts = _dopri(lambda t, u: (math.nan,), 0.0, [1.0], 2.0,
                                 1e-8, [1e-10])
        assert (stop, counts["status"]) == (None, -1)

    def test_the_stop_sample_is_a_genuine_step(self, nl_exp, cfg2):
        # a stop just above zero keeps the last sample in the energy
        # monitor: an interpolated sample there breaks monotonicity at 5e-9
        st = tail_start(nl_exp, 2, 10.0, cfg=cfg2)
        traj = _march_t(nl_exp, 2, st, cfg2, 2e-9, st.t - 1000.0)
        assert traj.diagnostics["landed"]
        assert traj.ts[-1] == traj.stop
        assert abs(traj.states[-1][0] - 2e-9) <= 1e-12
        recs = energy_series(traj)
        assert recs[-1].t == traj.ts[-1]
        assert energy_violations(recs) == []


class TestLanding:
    """Every march lands its stop by a genuine step, and the stop agrees
    with an rtol 1e-13 shoot on the same route. The exp family at n=4
    starts at gamma=2: below it the radius route errs up to 5e-10 relative
    against that reference, the same before the aim, and also against the
    closed form."""

    FAMILY_II = dict(q=1.5, p=1.0, rho_beta=1.0)
    GROUPS = {
        "family_ii-2": ("pow_exp", FAMILY_II, 2, (2.3, 11.5, 40), shoot),
        "family_ii-3": ("pow_exp", FAMILY_II, 3, (2.3, 11.5, 40), shoot),
        "exp-2": ("exp", {}, 2, (0.2, 12.0, 20), shoot),
        "exp-3": ("exp", {}, 3, (0.2, 12.0, 20), shoot),
        "exp-4": ("exp", {}, 4, (2.0, 12.0, 20), shoot),
        "linear-2": ("linear", {}, 2, (0.1, 5.0, 20), shoot),
        "solve_V1-3": ("pow_exp", dict(q=1.5), 3, (3.0, 12.0, 20), solve_V1),
    }

    @pytest.mark.parametrize("group", sorted(GROUPS))
    def test_every_march_lands_accurately(self, group):
        family, kw, n, grid, solve = self.GROUPS[group]
        nl = make_nonlinearity(family, **kw)
        cfg = ProblemConfig()
        tight = replace(cfg, rtol=1e-13)
        for gamma in np.linspace(*grid):
            out = solve(nl, n, float(gamma), cfg, keep_trajectory=True)
            ref = shoot(nl, n, float(gamma), tight, route=out.route)
            assert out.traj.diagnostics["landed"], gamma
            assert out.T == pytest.approx(ref.T, rel=1e-10)
            assert out.yprime_T == pytest.approx(ref.yprime_T, rel=1e-10)

    def test_a_stop_far_out_lands(self):
        # the radius route stops at r = 8.3e3, where the float spacing is
        # above the stop tolerance: Newton on the landing step converges
        # to that spacing, in one pass here
        nl = make_nonlinearity(
            "pow_exp", q=2.241937444429604, p=2.7170013314033414,
            rho_beta=2.4625338705116473, lam=0.31486428271855005)
        out = shoot(nl, 2, 0.00022065807470623684, ProblemConfig(),
                    keep_trajectory=True)
        d = out.traj.diagnostics
        assert (out.route, d["landed"], d["landing"]) == ("r", True, 1)
        assert out.T == pytest.approx(-16.656208212, abs=1e-8)


class TestTableau:
    """The DOP853 tables in `qshoot.ode` are a transcription of scipy's."""

    def test_tables_match_scipy_bitwise(self):
        from scipy.integrate._ivp import dop853_coefficients as ref
        ode = qshoot.ode

        def bits(x):
            return np.asarray(x, dtype=float).tobytes()

        assert bits(ode._C) == bits(ref.C)
        assert len(ode._A) == len(ref.A)
        for s, row in enumerate(ode._A):
            assert bits(row) == bits(ref.A[s, :s])
            assert not ref.A[s, s:].any()
        assert bits(ode._E3) == bits(ref.E3)
        assert bits(ode._E5) == bits(ref.E5)
        assert bits(ode._D) == bits(ref.D)

    def test_tables_are_consistent(self):
        ode = qshoot.ode
        for row, c in zip(ode._A, ode._C):
            # each stage sits at the abscissa its weights sum to
            assert math.fsum(row) == pytest.approx(
                c, rel=0.0, abs=1e-15 * math.fsum(map(abs, row)))
        assert math.fsum(ode._A[12]) == 1.0  # the 8th-order weights
        for e in (ode._E3, ode._E5):
            # an error estimate vanishes on a constant slope
            assert abs(math.fsum(e)) <= 1e-15 * math.fsum(map(abs, e))


def _dot(weights, K, j):
    """sum of w * K[s][j] over the nonzero weights, left to right."""
    terms = [w * k[j] for w, k in zip(weights, K) if w]
    total = terms[0]
    for x in terms[1:]:
        total += x
    return total


def _reference_step(rhs, t, y, k1, h, rtol, atol, held=()):
    """One DOP853 step as plain loops over the tableau (zero weights
    skipped): the new state, the thirteen stages and the error norm, the
    columns in `held` scaled by their atol alone."""
    ode = qshoot.ode
    K = [k1]
    for s in range(1, 12):
        K.append(rhs(t + ode._C[s] * h,
                     [u + h * _dot(ode._A[s], K, j) for j, u in enumerate(y)]))
    y_new = [u + h * _dot(ode._A[12], K, j) for j, u in enumerate(y)]
    K.append(rhs(t + h, y_new))
    e5 = e3 = 0.0
    for j, (u, v, a) in enumerate(zip(y, y_new, atol)):
        sc = a if j in held else a + max(abs(u), abs(v)) * rtol
        x5 = _dot(ode._E5, K, j) / sc
        x3 = _dot(ode._E3, K, j) / sc
        e5 += x5 * x5
        e3 += x3 * x3
    err = abs(h) * e5 / math.sqrt(len(y) * (e5 + 0.01 * e3)) if e5 else 0.0
    return y_new, tuple(K), err


def _reference_dense(rhs, t, h, y, y_end, stages):
    """The dense output's coefficients as generic sums over every stage,
    zero weights included."""
    ode = qshoot.ode
    K = list(stages)
    for c, row in zip(ode._C[13:], ode._A[13:]):
        K.append(rhs(t + c * h, [u + h * sum(a * k[j] for a, k in zip(row, K))
                                 for j, u in enumerate(y)]))
    out = []
    for j, (u0, u1) in enumerate(zip(y, y_end)):
        dy, f0, f1 = u1 - u0, h * K[0][j], h * K[12][j]
        out.append((u0, dy, f0 - dy, 2.0 * dy - f1 - f0)
                   + tuple(h * sum(d * k[j] for d, k in zip(row, K))
                           for row in ode._D))
    return out


def _generic_step(m, rhs):
    """`_dp_kernel`'s step for the generic body, a call of rhs."""
    return qshoot.ode._dp_kernel(m)(f=rhs)[1]


def _generic_dense(m, rhs):
    """`_dp_kernel`'s dense output for the generic body."""
    return qshoot.ode._dp_kernel(m)(f=rhs)[2]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _coupled_rhs(m, rng):
    """A nonlinear coupled right-hand side on m components; for m > 1 the
    last component's slope is -0.0 throughout, a signed-zero corner."""
    a = rng.uniform(-2.0, 2.0, size=(m, m)).tolist()

    def rhs(t, u):
        out = [math.sin(t + sum(a[i][j] * u[j] for j in range(m)))
               - math.tanh(u[i]) * u[i] for i in range(m)]
        if m > 1:
            out[-1] = -0.0
        return tuple(out)
    return rhs


class TestKernel:
    """The generated step and dense output against plain loops over the
    tableau, bit for bit."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_step_is_bitwise_the_reference(self, m):
        rng = np.random.default_rng(100 + m)
        rhs = _coupled_rhs(m, rng)
        assert qshoot.ode._dp_kernel(m) is qshoot.ode._dp_kernel(m)
        step = _generic_step(m, rhs)
        for _ in range(20):
            t, h = rng.uniform(-5.0, 5.0), rng.uniform(-0.5, 0.5)
            y = [float(v) for v in rng.normal(size=m)]
            if m > 1:
                y[-1] = 0.0
            atol = [float(v) for v in 10.0 ** rng.uniform(-14, -6, size=m)]
            k1 = rhs(t, y)
            got = step(t, y, k1, h, 1e-9, atol)
            ref = _reference_step(rhs, t, y, k1, h, 1e-9, atol)
            assert _bits(got[0]) == _bits(ref[0])
            assert len(got[1]) == 13
            assert _bits(got[1]) == _bits(ref[1])
            assert _bits(got[2]) == _bits(ref[2])

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [math.nan, 1e300])
    def test_a_bad_stage_fails_the_step_as_the_reference(self, m, bad):
        # the bad value comes at the call-th evaluation: the first is the
        # start slope, the second to twelfth are stages the error norm
        # reaches (the thirteenth, the end slope, is not one of them)
        for call in (2, 7, 12):
            calls = []

            def rhs(t, u):
                calls.append(t)
                slope = [-v for v in u]
                if len(calls) == call:
                    slope[0] = bad
                return slope

            y, atol = [1.0] * m, [1e-10] * m
            got = _generic_step(m, rhs)(0.0, y, rhs(0.0, y), 0.1, 1e-8,
                                        atol)
            calls.clear()
            ref = _reference_step(rhs, 0.0, y, rhs(0.0, y), 0.1, 1e-8, atol)
            assert _bits(got[0]) == _bits(ref[0])
            assert _bits(got[2]) == _bits(ref[2])
            assert not got[2] < 1.0  # inf or NaN: a rejection

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_dense_output_is_bitwise_the_generic_sums(self, m):
        rng = np.random.default_rng(200 + m)
        rhs = _coupled_rhs(m, rng)
        dense = _generic_dense(m, rhs)
        for _ in range(20):
            t, h = rng.uniform(-5.0, 5.0), rng.uniform(-0.5, 0.5)
            y = [float(v) for v in rng.normal(size=m)]
            if m > 1:
                y[-1] = -0.0
            y_end, stages, _ = _generic_step(m, rhs)(
                t, y, rhs(t, y), h, 1e-9, [1e-12] * m)
            got = dense(t, h, y, y_end, stages)
            ref = _reference_dense(rhs, t, h, y, y_end, stages)
            assert _bits(got) == _bits(ref)

    def test_dense_output_keeps_the_sign_of_a_zero_sum(self):
        # signed zeros that make every product of _D's first row -0.0: the
        # generic sum starts at 0 and gives +0.0, a bare sum gives -0.0
        ode = qshoot.ode

        def zero(s):
            return -0.0 if ode._D[0][s] >= 0.0 else 0.0

        calls = []

        def rhs(t, u):
            calls.append(t)
            return (1.0, zero(12 + len(calls)))

        y, y_end = [0.0, 0.0], [0.5, 0.0]
        stages = tuple((1.0, zero(s)) for s in range(13))
        got = _generic_dense(2, rhs)(0.0, 0.5, y, y_end, stages)
        calls.clear()
        ref = _reference_dense(rhs, 0.0, 0.5, y, y_end, stages)
        assert math.copysign(1.0, got[1][4]) == 1.0
        assert _bits(got) == _bits(ref)

    def test_a_nan_end_slope_is_a_rejection(self):
        # the 14th evaluation is the first step's end slope, which has zero
        # weight in both error estimates: the step is still rejected and
        # retried at 0.2 of its length, and the march goes on to t_end
        calls = []

        def rhs(t, u):
            calls.append(t)
            return (math.nan if len(calls) == 14 else -u[0],)

        dense, _, counts = _dopri(rhs, 0.0, [1.0], 2.0, 1e-8, [1e-10])
        ref = _dopri(lambda t, u: (-u[0],), 0.0, [1.0], 2.0, 1e-8,
                     [1e-10])[0]
        assert (counts["status"], counts["rejected"]) == (0, 1)
        assert counts["nfev"] == 2 + 12 * len(dense.ts)
        assert dense.ts[1] == pytest.approx(0.2 * ref.ts[1], rel=1e-12)
        assert dense.ts[-1] == 2.0
        assert dense.ys[-1][0] == pytest.approx(math.exp(-2.0), rel=1e-7)


def _reference_rhs(route, nl, n, nb, lin):
    """A route's right-hand side as plain Python over the saturated
    reference source terms, the clamps as min and max; the t-route's
    exponentials are cap past EXP_ARG_MAX."""
    src = functools.partial(saturated_source, nl)
    fprime = functools.partial(saturated_fprime, nl)
    ex, exd, cap = 1.0 / (n - 1.0), (n - 2.0) / (n - 1.0), SOURCE_CAP

    def clamp(v):
        return min(max(v, -cap), cap)

    def exp(x):
        return cap if x > EXP_ARG_MAX else math.exp(x)

    def rhs(t, u):
        if route == "t":
            # L = log psi: psi' = -f(y) e^{-t} = L' psi; the source text
            # passes a NaN L on where eval_source would not read t + L
            y, L = u[0], u[1]
            du = (min(exp(L * ex), cap), -src(y, t + L) if L == L else L)
            if lin:
                dv = u[3] if n == 2 else clamp(u[3] * exp(-exd * L))
                du += (dv, clamp(-fprime(y, t) * u[2] / (n - 1.0)))
            return du
        w, aPhi = u[0], max(-u[1], 0.0)
        wp = -((aPhi / t ** (n - 1.0)) ** ex) if aPhi > 0.0 else 0.0
        du = (max(wp, -cap), clamp(-src(w, 0.0) * t ** (nb - 1.0)))
        if lin:
            dw = u[3] / t if n == 2 else \
                u[3] / (t * max(aPhi, 1e-300) ** exd)
            du += (clamp(dw), clamp(-fprime(w, 0.0) * u[2]
                                    * t ** (nb - 1.0) / (n - 1.0)))
        return du
    return rhs


# linear; exp-form with f(0) > 0 (g'(0+) < 0 for the second); exp-form
# with p and rho-beta nonzero, so f(0) = 0
_SPLICED_FAMILIES = [("linear", {}), ("exp", {}),
                     ("pow_exp", dict(q=2.0, rho_beta=-0.5)),
                     ("pow_exp", dict(q=1.5, p=1.0, rho_beta=1.0))]


def _nan_bits(x) -> bytes:
    """`_bits` with every NaN as one: the interpreter's float paths do not
    keep a NaN's sign from one code object to another."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), math.nan, x).tobytes()


class TestSplicedStep:
    """Each route's right-hand side and the family's source text, spliced
    into the step, against the plain-loop reference step (the t-route's L
    scaled by its atol alone) and the generic dense output, driven by plain
    Python over the saturated reference source terms, bit for bit."""

    @pytest.mark.parametrize("route", ["t", "r"])
    @pytest.mark.parametrize("lin", [False, True])
    @pytest.mark.parametrize("family,kw", _SPLICED_FAMILIES)
    @pytest.mark.parametrize("n,beta", [(2, 0.0), (3, 0.0), (3, 1.0)])
    def test_step_is_bitwise_the_generic_one(self, route, lin, family, kw,
                                             n, beta):
        nl = make_nonlinearity(family, **kw)
        m = 4 if lin else 2
        rhs, (step, dense) = qshoot.ode._system(route, nl, n, lin,
                                                nb=n - beta)
        ref = _reference_rhs(route, nl, n, n - beta, lin)
        generic_dense = _generic_dense(m, ref)
        held = (1,) if route == "t" else ()  # L's scale is its atol
        rng = np.random.default_rng(7)
        # saturating, NaN, zero and negative values among ordinary ones
        special = [math.nan, 0.0, -0.0, -0.3, 1e3, 1e150, -1e150, 1e-320]
        atol = [1e-12, 1e-10 if held else 1e-300] + [1e-12] * (m - 2)
        for i in range(60):
            y = [float(v) for v in rng.normal(0.5, 2.0, size=m)]
            if i % 2:
                j = int(rng.integers(m))
                y[j] = special[int(rng.integers(len(special)))]
            t = float(rng.uniform(-5.0, 5.0) if route == "t"
                      else rng.uniform(1e-3, 5.0))
            h = float(rng.uniform(-0.3, 0.3) if route == "t"
                      else rng.uniform(0.0, 0.3))
            k0 = rhs(t, y)
            assert _nan_bits(k0) == _nan_bits(ref(t, y))
            got = step(t, y, k0, h, 1e-10, atol)
            want = _reference_step(ref, t, y, k0, h, 1e-10, atol, held)
            for a, b in zip(got, want):
                assert _nan_bits(a) == _nan_bits(b), (y, t, h)
            if got[2] < 1.0:
                assert _nan_bits(dense(t, h, y, *got[:2])) == \
                    _nan_bits(generic_dense(t, h, y, *want[:2]))

    def test_the_cache_holds_one_kernel_per_shape(self, monkeypatch):
        # two nonlinearities of each kind share every kernel; their
        # constants are closure cells, not literals
        monkeypatch.setattr(qshoot.ode, "_dp_kernel",
                            functools.cache(qshoot.ode._dp_kernel.__wrapped__))
        cfg = ProblemConfig()
        for family, kw in _SPLICED_FAMILIES[1:] + _SPLICED_FAMILIES[:1]:
            nl = make_nonlinearity(family, **kw)
            integrate_r(nl, 2, 0.5, cfg)
            integrate_r(nl, 2, 0.5, cfg, lin=True)
            if not nl.linear:
                integrate_t(nl, 2, tail_start(nl, 2, 6.0, cfg), cfg)
        # r exp, r exp channel, t exp; r linear, r linear channel
        assert qshoot.ode._dp_kernel.cache_info().currsize == 5
