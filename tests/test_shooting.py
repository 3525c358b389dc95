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
from qshoot.linearization import solve_V1, t_prime
from qshoot.nonlinearity import (convexity_floor, eval_g, make_nonlinearity,
                                 with_lambda)
from qshoot.ode import integrate_r, integrate_t, tail_start
from qshoot.output import curve_rows
from qshoot.shooting import (
    choose_route,
    classify_small_gamma,
    shoot,
    shoot_singular,
    shoot_weighted_direct,
    singular_reduce,
    sweep,
)
from conftest import bessel_first_zero

# First zeros beyond double range, placed by the Liouville bubble of
# f = lam e^u: (family, n, q, p, rho_beta, lambda, gamma, route). At n=5,
# T = -705.3 overflows lambda = R^5; at n=3 the reduced zero T = -225.2 is
# representable, but T / a = -2252 for the weight exponent 2.7 (a = 0.1)
# overflows R.
FAR_ZERO_N5 = ("exp", 5, 1.0, 0.0, 0.0, 1e-307, 8.0, None)
FAR_ZERO_REDUCED = ("exp", 3, 1.0, 0.0, 0.0, 1e-100, 3.0, None)
# Steep supercritical cores that a coarse march steps over at the default
# tolerance (an order-5 pair reported T = -2203 and -1057 for them), with
# the first zero of a DOP853 march capped at steps of 0.5 (scipy, rtol 1e-10).
STEEP_CORE_N3 = ("pow_exp", 3, 1.7997393727841493, 1.4061263845159186,
                 1.222662673970494, 5.269902340181269, 180.34620429937397,
                 None)
STEEP_CORE_N4 = ("pow_exp", 4, 1.737769577711514, 0.0017065717837739802,
                 0.03990673040854675, 0.6631839210811853, 110.26386035037876,
                 "t")
# Subcritical tails at gamma = e^6 whose first zero underflows: T = 2029.2
# gives R = 0, T = 1198.6 gives R = 1.1e-260 and lambda = R^2 = 0.
NEAR_ZERO_R = ("pow_exp", 2, 1.5, 0.0, 0.0, 1.0, math.exp(6.0), None)
NEAR_ZERO_LAM = ("pow_exp", 2, 1.375, 0.0, 0.0, 1.0, math.exp(6.0), None)

# Marches that stepped over a steep core before the march aimed its steps at
# the stop, with first zeros from a DOP853 march capped at steps of 0.5 or
# 0.1 (scipy, rtol 1e-10). The first returned T = -26.9305 at the default
# rtol, the second a far-zero SolverError at T = -1652.13, the third
# 7.4869535 at every rtol.
STEPPED_OVER = [
    (("pow_exp", 2, 2.106328425665315, 1.4897613642514065,
      0.21868676329316428, 2.3434853490342125, 23.04408826394745, None),
     0.9085337, 1e-6),
    (("pow_exp", 3, 1.808816813520795, 1.2128197937503327,
      0.9511579499233984, 0.2320621683784375, 147.0194609360151, "t"),
     1.7831, 1e-4),
    (("pow_exp", 2, 2.019598503561868, 1.4945643485508957,
      0.5442631117538587, 0.13604418173747487, 22.282727530755327, None),
     7.4870116, 1e-6),
]

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
    family, _, q, p, rb, lam = case[:6]
    return make_nonlinearity(family, q=q, p=p, rho_beta=rb, lam=lam)


def _liouville_R(n, gamma):
    """First zero of f = e^u, from the n-Laplace Liouville bubble:
    c_n^{1/n} (e^{gamma/n} - 1)^{(n-1)/n} e^{-gamma/n}, with
    c_n = n (n^2/(n-1))^{n-1}."""
    c = n * (n * n / (n - 1.0)) ** (n - 1.0)
    return c ** (1.0 / n) * math.expm1(gamma / n) ** ((n - 1.0) / n) \
        * math.exp(-gamma / n)


def _liouville_T(n, lam, gamma):
    """First zero of f = lam e^u in the log-radius variable:
    log(lam) - n log(R1/n), with R1 the zero at lam = 1."""
    return math.log(lam) - n * math.log(_liouville_R(n, gamma) / n)


def _named_T(msg):
    """The T a SolverError message names, to its 6 significant digits."""
    return float(msg.split("T=")[1])


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

    @pytest.mark.parametrize("gamma", [1.0, 5.0, 12.0])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_liouville_closed_form_in_higher_dimensions(self, nl_exp, cfg2,
                                                        n, gamma):
        # f = e^u in every n: R from the bubble, and
        # T'(gamma) = 1 - (n-1) / (n (1 - e^{-gamma/n}))
        assert shoot(nl_exp, n, gamma, cfg2).R == pytest.approx(
            _liouville_R(n, gamma), rel=1e-8)
        want = 1.0 - (n - 1.0) / (n * -math.expm1(-gamma / n))
        assert t_prime(nl_exp, n, gamma, cfg2) == pytest.approx(want,
                                                                rel=1e-8)

    @pytest.mark.parametrize("n,gamma", [(2, 1e-11), (2, 1e-12), (2, 1e-30),
                                         (3, 1e-12)])
    def test_amplitudes_of_a_few_rtol_find_their_zero(self, nl_exp, cfg2, n,
                                                      gamma):
        # the series start would drop w by about rtol, past gamma itself
        assert shoot(nl_exp, n, gamma, cfg2).R == pytest.approx(
            _liouville_R(n, gamma), rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("family", ["exp", "linear", "pow_exp"])
    def test_tiny_amplitudes_give_a_zero_or_a_typed_error(self, family, n):
        # below gamma ~ 1e-105 the stop's root search once divided by an
        # underflowed 0 and let a bare ZeroDivisionError escape
        nl = make_nonlinearity(family)
        for e in range(100, 321, 20):
            gamma = 10.0 ** -e
            if (family, n) == ("exp", 2) and e <= 300:
                assert shoot(nl, n, gamma).R == pytest.approx(
                    _liouville_R(n, gamma), rel=1e-8)
                continue
            try:
                assert math.isfinite(shoot(nl, n, gamma).R)
            except QShootError:
                pass

    def test_matches_the_planar_exponential_profile(self, nl_exp, cfg2):
        # u(xi) = gamma - 2 log(1 + expm1(gamma/2) xi^2) at lambda = 1, read
        # off the radius route's dense output at r = xi R
        gamma = 2.0
        out = shoot(nl_exp, 2, gamma, cfg2, keep_trajectory=True, route="r")
        for xi in (0.25, 0.5, 0.75):
            want = gamma - 2.0 * math.log1p(math.expm1(gamma / 2.0) * xi ** 2)
            assert out.traj.state_at(xi * out.R)[0] == pytest.approx(
                want, abs=1e-9)

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

    def test_steep_amplitude_zero_meets_the_tolerance(self):
        # g'(8) = 16: the plain march's T against a run at rtol 1e-13
        nl = make_nonlinearity("pow_exp", q=2.0)
        T = shoot(nl, 2, 8.0, ProblemConfig()).T
        ref = shoot(nl, 2, 8.0, ProblemConfig(rtol=1e-13)).T
        assert T == pytest.approx(ref, rel=2e-10)


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

    def test_the_outcome_names_why_its_route(self, nl_square, nl_exp,
                                             cfg2):
        # a default-route fallback to r names the tail's refusal
        wcfg = ProblemConfig(beta_weight=1.0)
        out = shoot(nl_exp, 2, 8.0, wcfg)
        assert out.route == "r"
        assert out.diagnostics["route_reason"] == (
            "tail refused: tail expansion needs the unweighted problem; "
            "reduce the weighted one first")
        assert shoot(nl_square, 2, 0.5, cfg2).diagnostics["route_reason"] \
            == "gamma=0.5 <= max(2 s0, 1) = 1"
        assert shoot(nl_square, 2, 5.0, cfg2).diagnostics[
            "route_reason"] == "tail admitted"
        for route in ("t", "r"):
            out = solve_V1(nl_square, 2, 5.0, cfg2, route=route)
            assert out.diagnostics["route_reason"] == f"route {route} forced"

    def test_the_outcome_holds_its_step_lengths(self, nl_square, cfg2):
        out = shoot(nl_square, 2, 5.0, cfg2, keep_trajectory=True)
        d, hs = out.diagnostics, np.abs(np.diff(out.traj.ts))
        assert (d["h_min"], d["h_max"]) == (hs.min(), hs.max())
        assert 0.0 < d["h_min"] < d["h_max"]

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

    def test_the_march_stays_off_the_generic_path(self, nl_family_ii, cfg2,
                                                  monkeypatch):
        # the right-hand sides evaluate the source through the text spliced
        # into the step; eval_g is left to route setup
        import importlib
        import pkgutil

        import qshoot

        calls = [0]

        def counted(fn):
            def wrapper(*args):
                calls[0] += 1
                return fn(*args)
            return wrapper

        for info in pkgutil.iter_modules(qshoot.__path__):
            mod = importlib.import_module(f"qshoot.{info.name}")
            if hasattr(mod, "eval_g"):
                monkeypatch.setattr(mod, "eval_g", counted(mod.eval_g))
        solves = (lambda: shoot(nl_family_ii, 2, 6.0, cfg2, route="t"),
                  lambda: shoot(nl_family_ii, 2, 6.0, cfg2, route="r"),
                  lambda: solve_V1(nl_family_ii, 2, 6.0, cfg2))
        for solve in solves:
            calls[0] = 0
            assert math.isfinite(solve().T)
            assert 0 < calls[0] < 50

    def test_a_floor_takes_a_few_g_evaluations(self, nl_family_ii, nl_exp,
                                               nl_square, monkeypatch):
        # closed forms walked a few ulps, or a bisection down to adjacent
        # doubles; a 6000-point scan of g' and g'' took 12,000
        import qshoot.nonlinearity

        calls = [0]

        def counted(*args):
            calls[0] += 1
            return eval_g(*args)

        monkeypatch.setattr(qshoot.nonlinearity, "eval_g", counted)
        cases = [(nl_family_ii, 5), (nl_exp, 1), (nl_square, 1),
                 (make_nonlinearity("pow_exp", q=1.5), 1),
                 (make_nonlinearity("pow_exp", q=2.0, rho_beta=-1.0), 4),
                 # g' reads 0.0 on ~100 ulps round its root: bisected
                 (make_nonlinearity("pow_exp", a=0.5, q=1.01,
                                    rho_beta=-0.5), 80),
                 (make_nonlinearity("pow_exp", q=1.5, p=1.0,
                                    rho_beta=-5.0), 80)]
        for nl, most in cases:
            calls[0] = 0
            assert 0.0 <= convexity_floor(nl) < math.inf
            assert 0 < calls[0] <= most

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
        header, rows = curve_rows(curve)
        assert header == ("gamma", "T", "R", "lambda", "yprime_T")
        assert rows == [(o.gamma, o.T, o.R, o.lam, o.yprime_T)
                        for o in curve.outcomes]
        assert [r[0] for r in rows] == [3.0, 4.0]

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
        nl = _case_nl(FAR_ZERO_N5)
        curve = sweep(nl, 5, [40.0, FAR_ZERO_N5[6]], ProblemConfig())
        assert curve.outcomes[0].T is not None
        assert curve.outcomes[1].T is None
        assert len(curve.errors) == 1 and "overflows" in curve.errors[0][1]
        assert _named_T(curve.errors[0][1]) == pytest.approx(
            _liouville_T(5, 1e-307, FAR_ZERO_N5[6]), rel=5e-6)

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
        nl = make_nonlinearity("pow_exp", q=1.9, p=0.2)
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

    def test_sweep_refuses_before_any_amplitude(self, nl_exp, cfg2):
        with pytest.raises(ConfigError,
                           match="dimension n must be an integer >= 2, got 1"):
            sweep(nl_exp, 1, [3.0, 4.0], cfg2)
        with pytest.raises(ConfigError, match="beta_weight"):
            sweep(nl_exp, 2, [3.0, 4.0], ProblemConfig(beta_weight=2.0))


class TestFarZero:
    """A first zero beyond double range in R or lambda, above or below it,
    is a SolverError naming T."""

    def test_shoot_refuses(self):
        n, lam, gamma = 5, FAR_ZERO_N5[5], FAR_ZERO_N5[6]
        with pytest.raises(SolverError, match="overflows at T=") as exc:
            shoot(_case_nl(FAR_ZERO_N5), n, gamma, ProblemConfig())
        assert _named_T(str(exc.value)) == pytest.approx(
            _liouville_T(n, lam, gamma), rel=5e-6)

    @pytest.mark.parametrize("case,T", [(STEEP_CORE_N3, 5.50469386853),
                                        (STEEP_CORE_N4, 2.67919083589)])
    def test_a_steep_core_is_not_stepped_over(self, case, T):
        out = shoot(_case_nl(case), case[1], case[6], ProblemConfig(),
                    route=case[7])
        assert out.T == pytest.approx(T, rel=1e-9)

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
        # the reduced zero T = -225.2 is representable; T / a = -2252 is not
        n, beta, lam, gamma = 3, 2.7, FAR_ZERO_REDUCED[5], FAR_ZERO_REDUCED[6]
        a = 1.0 - beta / n
        with pytest.raises(SolverError, match="overflows at T=") as exc:
            shoot_singular(_case_nl(FAR_ZERO_REDUCED), n, beta, gamma)
        # the reduced problem's multiplier is lam / (n^beta a^n)
        T_reduced = _liouville_T(n, lam / (n ** beta * a ** n), gamma)
        assert _named_T(str(exc.value)) == pytest.approx(T_reduced / a,
                                                         rel=5e-6)

    @pytest.mark.parametrize("case,T,tol", STEPPED_OVER,
                             ids=["wrong_T", "far_zero", "every_rtol"])
    def test_a_core_stepped_over_before_the_aim_is_found(self, case, T, tol):
        out = shoot(_case_nl(case), case[1], case[6], ProblemConfig(),
                    route=case[7], keep_trajectory=True)
        assert out.route == "t" and out.traj.diagnostics["landed"]
        assert out.T == pytest.approx(T, abs=tol)

    @given(CASES)
    @example(FAR_ZERO_N5)
    @example(STEEP_CORE_N3)
    @example(STEEP_CORE_N4)
    @example(NEAR_ZERO_R)
    @example(NEAR_ZERO_LAM)
    # g' overflows in the floor scan; log f(gamma) overflows at the r start
    @example(("pow_exp", 2, -50.0, 0.0, 0.0, 1.0, 2.0, None))
    @example(("pow_exp", 2, 2.0, 0.0, 0.0, 1.0, 1e160, None))
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
    @example(FAR_ZERO_N5)
    @example(STEEP_CORE_N3)
    @example(STEEP_CORE_N4)
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

    @pytest.mark.parametrize("n, beta, gamma", [
        (2, 1.0, 10.0), (2, 1.0, 20.0), (2, 1.0, 25.0), (2, 1.0, 30.0),
        (3, 2.5, 0.2), (3, 2.5, 2.0), (3, 2.5, 10.0)])
    def test_direct_march_holds_at_larger_amplitudes(self, nl_exp, cfg2,
                                                     n, beta, gamma):
        # the startup radius follows the weighted series' power
        # (n-beta)/(n-1) of r, so the march holds up to gamma=30
        red = shoot_singular(nl_exp, n, beta, gamma, cfg2)
        direct = shoot_weighted_direct(nl_exp, n, beta, gamma, cfg2)
        assert direct.R == pytest.approx(red.R, rel=1e-8)

    @pytest.mark.parametrize("lam, n, beta, gamma", [
        (1.0, 2, 1.9, 60.0),
        (0.2615207558015738, 4, 3.755233464017968, 2.5201444234387718)])
    def test_underflowing_startup_radius_is_refused(self, cfg2, lam, n, beta,
                                                    gamma):
        nl = make_nonlinearity("exp", lam=lam)
        with pytest.raises(AdmissionError, match="underflows"):
            shoot_weighted_direct(nl, n, beta, gamma, cfg2)
