import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qshoot.errors import AdmissionError, ConfigError
from qshoot.nonlinearity import (DEFAULT_S0_SCAN, check_hypotheses,
                                 convexity_floor, eval_g, eval_fprime_source,
                                 eval_source, find_s0, g_is_linear, log_f,
                                 make_nonlinearity, with_lambda)


def fd_derivative(nl, u, k, h):
    """Central difference of g^{(k-1)} as an independent check of g^{(k)}."""
    return (eval_g(nl, u + h, k - 1) - eval_g(nl, u - h, k - 1)) / (2.0 * h)


class TestDerivatives:
    @pytest.mark.parametrize("kw", [
        dict(q=2.0),
        dict(q=1.5, p=1.0, rho_beta=1.0),
        dict(q=3.0, p=0.5),
        dict(q=1.2, a=2.0, rho_beta=0.3),
    ])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_finite_difference(self, kw, k):
        nl = make_nonlinearity("pow_exp", **kw)
        for u in np.geomspace(0.1, 50.0, 12):
            u = float(u)
            h = 1e-5 * max(1.0, u)
            want = fd_derivative(nl, u, k, h)
            got = eval_g(nl, u, k)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    @given(st.floats(min_value=0.1, max_value=50.0),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_fd_property_square(self, u, k):
        nl = make_nonlinearity("pow_exp", q=2.0)
        h = 1e-5 * max(1.0, u)
        want = fd_derivative(nl, u, k, h)
        assert eval_g(nl, u, k) == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_log_term_blocks_zero(self):
        nl = make_nonlinearity("pow_exp", q=2.0, p=1.0)
        with pytest.raises(ConfigError):
            eval_g(nl, 0.0)
        with pytest.raises(ConfigError):
            eval_g(nl, -1.0)


def test_source_single_exponentiation_far_range():
    # g(u) huge and t huge cancel; a two-step exp would overflow
    nl = make_nonlinearity("pow_exp", q=1.5)
    u = 200.0
    t = eval_g(nl, u) + 10.0
    val = eval_source(nl, u, t)
    assert val == pytest.approx(math.exp(-10.0), rel=1e-12)


def test_source_overflow_raises():
    nl = make_nonlinearity("pow_exp", q=2.0)
    with pytest.raises(OverflowError):
        eval_source(nl, 50.0, 0.0)


def test_source_at_nonpositive_uses_f0():
    has_log = make_nonlinearity("pow_exp", q=2.0, p=1.0)
    assert has_log.f0 == 0.0
    assert eval_source(has_log, -0.5, 0.0) == 0.0
    plain = make_nonlinearity("pow_exp", q=2.0)
    assert plain.f0 == 1.0
    assert eval_source(plain, 0.0, 2.0) == pytest.approx(math.exp(-2.0))


def test_fprime_source_matches_product():
    nl = make_nonlinearity("pow_exp", q=1.5, p=1.0, rho_beta=1.0)
    for u in (0.5, 2.0, 7.0):
        want = eval_g(nl, u, 1) * eval_source(nl, u, 3.0)
        assert eval_fprime_source(nl, u, 3.0) == pytest.approx(want, rel=1e-12)


def test_with_lambda_rescales():
    nl = make_nonlinearity("exp", lam=1.0)
    nl2 = with_lambda(nl, 3.0)
    assert log_f(nl2, 1.5) == pytest.approx(math.log(3.0) + 1.5)
    assert nl2.f0 == pytest.approx(3.0)


@pytest.mark.parametrize("name", ["lam", "a", "q", "p", "rho_beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_are_refused(name, value):
    label = "lambda" if name == "lam" else name
    with pytest.raises(ConfigError, match=f"{label} must be finite"):
        make_nonlinearity("pow_exp", **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_with_lambda_refuses_a_non_finite_multiplier(value):
    with pytest.raises(ConfigError, match="lambda must be finite"):
        with_lambda(make_nonlinearity("exp"), value)


class TestConvexityThreshold:
    def test_square_is_globally_convex(self):
        nl = make_nonlinearity("pow_exp", q=2.0)
        assert find_s0(nl).s0 == 0.0

    def test_log_term_shifts_threshold(self):
        # g = u^{3/2} + 2 log u; curvature turns positive at (8/3)^{2/3};
        # the scan returns the last grid sample below the crossing, the
        # floor the crossing itself
        nl = make_nonlinearity("pow_exp", q=1.5, p=2.0)
        got = find_s0(nl).s0
        exact = (8.0 / 3.0) ** (2.0 / 3.0)
        assert got < exact
        assert got == pytest.approx(exact, rel=5e-3)
        assert convexity_floor(nl) == pytest.approx(exact, rel=1e-15, abs=0)

    def test_negative_drift_shifts_threshold(self):
        # g = u^2 - 10 u; slope turns positive at u = 5
        nl = make_nonlinearity("pow_exp", q=2.0, rho_beta=-10.0)
        got = find_s0(nl).s0
        assert got < 5.0
        assert got == pytest.approx(5.0, rel=5e-3)

    def test_pure_exponential_needs_weak_test(self):
        nl = make_nonlinearity("exp")
        with pytest.raises(AdmissionError):
            find_s0(nl)  # g'' == 0 never passes the strict test
        assert convexity_floor(nl) == 0.0

    def test_linear_family_has_no_threshold(self):
        nl = make_nonlinearity("linear")
        with pytest.raises(ConfigError):
            find_s0(nl)
        assert convexity_floor(nl) == math.inf

    @given(st.floats(min_value=0.05, max_value=5.0, exclude_min=True),
           st.floats(min_value=1.0, max_value=3.0),
           st.floats(min_value=0.0, max_value=5.0, allow_subnormal=False),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_exact_floor_is_the_curvature_threshold(self, a, q, p, b):
        # the closed-form floor sits in the grid cell past the scan's last
        # failing sample, and g' > 0, g'' >= 0 hold from it on (a subnormal
        # p would let the scan's g'' = -p/u^2 round to -0.0 for q = 1)
        nl = make_nonlinearity("pow_exp", a=a, q=q, p=p, rho_beta=b)
        try:
            grid = find_s0(nl, strict=False).s0
        except AdmissionError:
            assume(False)
        lo, hi, num = DEFAULT_S0_SCAN
        ratio = (hi / lo) ** (1.0 / (num - 1))
        floor = convexity_floor(nl)
        assert floor >= grid
        assert floor <= (grid * ratio if grid > 0.0 else lo) * (1.0 + 1e-12)
        for u in np.geomspace(max(floor, lo), hi, 25):
            u = max(float(u), floor)
            assert eval_g(nl, u, 2) >= 0.0
            assert eval_g(nl, u, 1) > 0.0
        if floor > 0.0:
            assert eval_g(nl, math.nextafter(floor, 0.0), 2) < 0.0

    @pytest.mark.parametrize("kw", [
        dict(q=0.7),
        dict(q=0.5, p=1.0),
        dict(q=2.0, rho_beta=-10.0),
        dict(q=1.5, p=1.0, rho_beta=-2.0),
        dict(q=1.5, p=1.0, custom_rho=lambda u, k: 0.0),
        dict(q=2.0, custom_rho=lambda u, k: -3.0 * u if k == 0 else
             (-3.0 if k == 1 else 0.0)),
    ])
    def test_other_inputs_keep_the_scan(self, kw):
        nl = make_nonlinearity("pow_exp", **kw)
        try:
            want = find_s0(nl, strict=False).s0
        except AdmissionError:
            want = math.inf
        assert convexity_floor(nl) == want


def test_g_is_linear_flags():
    assert g_is_linear(make_nonlinearity("exp"))
    assert g_is_linear(make_nonlinearity("pow_exp", q=1.0))
    assert not g_is_linear(make_nonlinearity("pow_exp", q=2.0))
    assert not g_is_linear(make_nonlinearity("pow_exp", q=1.0, p=1.0))
    assert not g_is_linear(make_nonlinearity("linear"))


def test_exploratory_tagging():
    assert make_nonlinearity("pow_exp", q=3.0, n=2).exploratory
    assert not make_nonlinearity("pow_exp", q=2.0, n=2).exploratory
    assert not make_nonlinearity("pow_exp", q=1.5, n=3).exploratory
    assert make_nonlinearity("exp").exploratory


def test_describe_mentions_lambda():
    nl = make_nonlinearity("pow_exp", q=2.0, lam=2.5)
    d = nl.describe()
    assert d["lambda"] == 2.5
    assert d["family"] == "pow_exp"


class TestHypothesisProbes:
    def test_critical_square_family_is_borderline(self):
        # q equals the critical exponent for n=2 with no drift: the H2 and
        # H3 quantities vanish identically, so both assumptions fail
        nl = make_nonlinearity("pow_exp", q=2.0)
        rep = check_hypotheses(nl, 2)
        assert rep.h1_holds
        assert not rep.h2_holds
        assert not rep.h3_holds
        assert max(abs(v) for v in rep.h2_values) == 0.0

    def test_family_with_drift(self):
        nl = make_nonlinearity("pow_exp", q=1.5, p=1.0, rho_beta=1.0)
        rep = check_hypotheses(nl, 3)
        assert rep.h1_holds
        assert rep.h2_holds

    def test_subcritical_exponent_h3_diverges(self):
        nl = make_nonlinearity("pow_exp", q=1.5)
        rep = check_hypotheses(nl, 2)
        assert rep.h3_trend == "to_infinity"
        assert rep.h3_holds

    @given(st.floats(min_value=1.1, max_value=1.9))
    @settings(max_examples=20, deadline=None)
    def test_subcritical_h3_ratio_grows(self, q):
        """For q below critical (n=2) the H3 quantity exceeds 1 at the top
        of the grid and grows along it."""
        nl = make_nonlinearity("pow_exp", q=q)
        rep = check_hypotheses(nl, 2)
        vals = [v for v in rep.h3_values if math.isfinite(v)]
        assert vals[-1] > 1.0
        assert vals[-1] > vals[len(vals) // 2]

    def test_rejects_linear(self):
        with pytest.raises(ConfigError):
            check_hypotheses(make_nonlinearity("linear"), 2)

    def test_rows_shape(self):
        rep = check_hypotheses(make_nonlinearity("pow_exp", q=2.0), 2)
        rows = list(rep.rows())
        assert [r[0] for r in rows] == ["H1", "H2", "H3"]


def test_config_interface_families():
    for fam, kw in (("pow_exp", dict(p=1.0, q=2.0, a=1.0, lam=1.0)),
                    ("exp", dict()), ("linear", dict())):
        nl = make_nonlinearity(fam, **kw)
        assert nl.family == fam
    with pytest.raises(ConfigError):
        make_nonlinearity("unknown")
    with pytest.raises(ConfigError):
        make_nonlinearity("pow_exp", lam=-1.0)
