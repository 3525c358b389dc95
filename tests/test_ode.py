"""Integration engine: tail startup, event location, dense output, the
radius-variable route, and the energy monitor."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

import qshoot.ode
from qshoot.config import ProblemConfig
from qshoot.errors import AdmissionError, ConfigError, EventNotFoundError
from qshoot.linearization import solve_V1
from qshoot.nonlinearity import find_s0, make_nonlinearity
from qshoot.ode import (
    EVENT_TOL,
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
    tail_refinement_delta,
    tail_start,
    wprime_from_Phi,
    yprime_from_psi,
)
from qshoot.shooting import shoot


class TestStateHelpers:
    def test_slope_from_flux(self):
        assert yprime_from_psi(0.25, 2) == 0.25
        assert yprime_from_psi(0.25, 3) == 0.5
        assert yprime_from_psi(0.0, 3) == 0.0

    def test_radial_slope_keeps_the_flux_sign(self):
        assert wprime_from_Phi(-4.0, 2.0, 2) == -2.0
        assert wprime_from_Phi(4.0, 2.0, 2) == 2.0
        assert wprime_from_Phi(-8.0, 2.0, 3) == -math.sqrt(2.0)

    def test_states_are_frozen(self):
        st = StateT(t=1.0, y=2.0, psi=3.0)
        with pytest.raises(AttributeError):
            st.y = 0.0


class TestTailStart:
    def test_linear_family_is_refused(self, nl_linear):
        with pytest.raises(AdmissionError):
            tail_start(nl_linear, 2, 1.0)

    def test_shallow_exponent_is_refused(self, nl_square):
        # g'(0.4) = 0.8 <= 1
        with pytest.raises(AdmissionError):
            tail_start(nl_square, 2, 0.4)

    def test_short_tail_window_is_refused(self, nl_square):
        with pytest.raises(AdmissionError):
            tail_start(nl_square, 2, 5.0, ProblemConfig(c_tail=0.1))

    def test_amplitude_below_convexity_floor_is_refused(self, nl_family_ii):
        floor = find_s0(nl_family_ii)
        with pytest.raises(AdmissionError):
            tail_start(nl_family_ii, 2, 0.5 * floor)

    def test_start_state_sits_near_the_amplitude(self, nl_square, cfg2):
        gamma = 5.0
        st = tail_start(nl_square, 2, gamma, cfg=cfg2)
        assert 0.9 * gamma < st.y < gamma
        assert st.psi > 0.0

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
        rep = tail_refinement_delta(nl_square, 2, 5.0)
        assert rep["delta_y"] <= 1e-10
        assert rep["delta_psi"] <= 1e-10
        assert rep["window"] == 40.0


class TestBackwardMarch:
    def test_zero_event_residual(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        traj = integrate_t(nl_square, 2, st, cfg2)
        assert abs(float(traj.dense(traj.stop)[0])) <= EVENT_TOL

    def test_dense_output_is_exact_at_nodes(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        traj = integrate_t(nl_square, 2, st, cfg2)
        dev = max(abs(float(traj.dense(t)[0]) - traj.states[i, 0])
                  for i, t in enumerate(traj.ts))
        assert dev <= 1e-13

    def test_dense_midpoints_agree_with_a_tighter_run(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        tr1 = integrate_t(nl_square, 2, st, cfg2)
        tight = ProblemConfig(rtol=1e-12, atol=1e-14)
        tr2 = integrate_t(nl_square, 2,
                          tail_start(nl_square, 2, 5.0, cfg=tight), tight)
        mids = 0.5 * (tr1.ts[:-1] + tr1.ts[1:])
        dev = max(abs(float(tr1.dense(m)[0]) - float(tr2.dense(m)[0]))
                  for m in mids if m > tr2.ts[-1])
        assert dev <= 1e-7

    def test_tightening_the_tolerance_tightens_the_zero(self, nl_square):
        def T_of(rtol):
            cfg = ProblemConfig(rtol=rtol, atol=rtol * 1e-2)
            st = tail_start(nl_square, 2, 5.0, cfg=cfg)
            traj = integrate_t(nl_square, 2, st, cfg)
            return traj.stop

        ref = T_of(1e-12)
        e_loose = abs(T_of(1e-5) - ref)
        e_tight = abs(T_of(1e-9) - ref)
        assert e_tight < e_loose
        assert e_loose / max(e_tight, 1e-300) >= 2.0
        assert e_tight <= 1e-7

    def test_threshold_crossing_is_tracked(self, nl_family_ii, cfg2):
        s0 = find_s0(nl_family_ii)
        st = tail_start(nl_family_ii, 2, 8.0, cfg=cfg2)
        traj = integrate_t(nl_family_ii, 2, st, cfg2, track_s0=s0)
        assert traj.s0 is not None
        y_at = float(traj.dense(traj.s0)[0])
        assert y_at == pytest.approx(s0, abs=1e-9)

    def test_floor_must_lie_below_the_start(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
        with pytest.raises(ConfigError):
            integrate_t(nl_square, 2, st, cfg2, floor=st.t + 1.0)


class TestMarchingCore:
    """Behaviour the two routes share through the one marching core."""

    @pytest.mark.parametrize("route", ["t", "r"])
    def test_missing_event_reports_the_last_state(self, route, nl_square,
                                                  cfg2):
        with pytest.raises(EventNotFoundError) as exc:
            if route == "t":
                st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
                integrate_t(nl_square, 2, st, cfg2, floor=st.t - 1.0)
            else:
                integrate_r(nl_square, 2, 3.0, cfg2, r_end=0.05)
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
            traj = integrate_t(nl_square, 2, st, cfg2, level=2.5)
        else:
            traj = integrate_r(nl_square, 2, 3.0, cfg2, level=2.5)
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

    def test_weighted_linearization_is_refused(self, nl_square):
        cfg = ProblemConfig(beta_weight=1.0)
        with pytest.raises(ConfigError):
            integrate_r(nl_square, 2, 2.0, cfg, lin=True)

    def test_rejects_nonpositive_amplitude(self, nl_square, cfg2):
        with pytest.raises(ConfigError):
            integrate_r(nl_square, 2, -1.0, cfg2)

    def test_profile_decreases_from_the_amplitude(self, nl_square, cfg2):
        traj = integrate_r(nl_square, 2, 3.0, cfg2)
        w = traj.states[:, 0]
        assert w[0] < 3.0
        assert all(b < a for a, b in zip(w, w[1:]))


class TestEnergyMonitor:
    def test_no_violations_along_a_shot(self, nl_square, cfg2):
        st = tail_start(nl_square, 2, 5.0, cfg=cfg2)
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
        traj = integrate_t(nl_linear, 2, StateT(t=0.0, y=1.0, psi=0.5), cfg2)
        with pytest.raises(ConfigError):
            energy_series(traj)

    def test_violation_detector_flags_an_increase(self):
        from qshoot.ode import EnergyRecord
        recs = [EnergyRecord(t=2.0, E=1.0, scale=1.0),
                EnergyRecord(t=1.0, E=1.1, scale=1.0),
                EnergyRecord(t=0.0, E=1.05, scale=1.0)]
        # records run in decreasing t; E must not decrease along the list
        bad = energy_violations(recs, tol=1e-9)
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


class TestStepper:
    """The DOP853 stepper keeps scipy DOP853's control law step for step
    until the march aims at its stop level: then a step that would reach
    past the tangent's estimate of the level is cut, and the stop is landed
    by a genuine step. Step ends are not pinned bitwise: the error sums
    cancel heavily, so a different summation order moves the norm by about
    1e-4 and the step ends by about 1e-5.

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

    # (the first step the aim cuts, steps, nfev) of each march; scipy takes
    # 44 steps (842 nfev) and 71 (1,475)
    TAIL_PINS = {(2, False): (39, 42, 614), (3, True): (58, 62, 890)}

    @pytest.mark.parametrize("n,lin", [(2, False), (3, True)])
    def test_matches_scipy_on_the_tail_march(self, monkeypatch, n, lin):
        nl = make_nonlinearity("pow_exp", q=1.5, p=1.0, rho_beta=1.0, n=n)
        cfg = ProblemConfig()
        if lin:
            traj, seen = _marched(monkeypatch, lambda: solve_V1(
                nl, n, 6.0, cfg, keep_trajectory=True, route="t").traj)
        else:
            traj, seen = _marched(monkeypatch, lambda: shoot(
                nl, n, 6.0, cfg, keep_trajectory=True, route="t").traj)
        assert traj.lin == lin

        def zero(t, u):
            return u[0]
        zero.terminal = True
        atol = [cfg.atol, 1e-300] + [cfg.atol] * (len(seen["y0"]) - 2)
        ref = solve_ivp(lambda t, u: seen["rhs"](t, list(u)), seen["span"],
                        seen["y0"], method="DOP853", rtol=cfg.rtol,
                        atol=atol, events=[zero], dense_output=True)
        diag = traj.diagnostics
        first, steps, nfev = self.TAIL_PINS[n, lin]
        assert (diag["steps"], diag["nfev"]) == (steps, nfev)
        # scipy's steps up to the first one the aim cuts, which parts them
        ts = np.asarray(traj.ts)
        assert np.abs(ts[:first + 1] - ref.t[:first + 1]).max() <= 1e-6
        assert abs(ts[first + 1] - ref.t[first + 1]) > 1e-3
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
        if (route, lin) == ("t", False):
            assert d["rejected"] > 0

    def test_counters_account_for_a_rewound_step(self, monkeypatch):
        # the march first crosses y = 0 inside a steep core, where no step
        # lands: the crossing step is rewound as a rejection, and the march
        # goes on to the first zero (3.4710749 when capped at steps of 0.5)
        landed = []
        land = qshoot.ode.DenseOutput.land

        def spy(dense, *args):
            stop = land(dense, *args)
            landed.append(args[3]["landed"])
            return stop

        monkeypatch.setattr(qshoot.ode.DenseOutput, "land", spy)
        nl = make_nonlinearity(
            "pow_exp", q=2.048104938325588, p=1.2205259916931035,
            rho_beta=1.468465276109871, lam=0.29230008974150495, n=2)
        traj = shoot(nl, 2, 142.00054031975856, ProblemConfig(),
                     keep_trajectory=True, route="t").traj
        d = traj.diagnostics
        assert landed[0] is False and landed[-1] is True
        assert d["nfev"] == 2 + 12 * (d["steps"] + d["rejected"]
                                      + d["landing"])
        assert 0 < d["rejected_stop"] <= d["rejected"]
        assert traj.stop == pytest.approx(3.4710749, abs=1e-7)

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
        traj = integrate_t(nl_exp, 2, st, cfg2, level=2e-9)
        assert traj.diagnostics["landed"]
        assert traj.ts[-1] == traj.stop
        assert abs(traj.states[-1, 0] - 2e-9) <= EVENT_TOL
        recs = energy_series(traj)
        assert recs[-1].t == traj.ts[-1]
        assert energy_violations(recs, tol=1e-9) == []


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
        nl = make_nonlinearity(family, n=n, **kw)
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
            rho_beta=2.4625338705116473, lam=0.31486428271855005, n=2)
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
