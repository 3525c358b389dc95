import math

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from qshoot.errors import AdmissionError, ConfigError
from qshoot.nonlinearity import (DEFAULT_S0_SCAN, SOURCE_CAP, convexity_floor,
                                 eval_fprime_source, eval_g, eval_source,
                                 find_s0, g_is_linear, log_f,
                                 make_nonlinearity, source_terms, with_lambda)


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


def _saturated(ref, lower):
    """The march's overflow policy over a reference term: SOURCE_CAP where
    it raises OverflowError, else min(value, SOURCE_CAP), clamped from
    below at -SOURCE_CAP too when `lower`; min and max let a NaN through."""
    def term(*args):
        try:
            v = ref(*args)
        except OverflowError:
            return SOURCE_CAP
        return min(max(v, -SOURCE_CAP) if lower else v, SOURCE_CAP)
    return term


_saturated_source = _saturated(eval_source, lower=False)
_saturated_fprime = _saturated(eval_fprime_source, lower=True)
_maybe_zero = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0))
# the largest argument whose exponential stays at or below the sentinel
_ARG_CAP = math.log(SOURCE_CAP)


@seed(18)
@given(st.sampled_from(["linear", "exp", "pow_exp"]),
       st.floats(min_value=0.5, max_value=2.0),
       # q above ~103 makes u**q itself overflow for u near 1e3
       st.one_of(st.floats(min_value=1.0, max_value=3.0),
                 st.floats(min_value=100.0, max_value=150.0)),
       _maybe_zero, _maybe_zero,
       st.floats(min_value=0.1, max_value=10.0),
       st.one_of(st.floats(min_value=-1.0, max_value=0.0, exclude_min=True),
                 st.floats(min_value=0.0, max_value=20.0),
                 st.floats(min_value=0.0, max_value=1e3),
                 st.just(math.nan)),
       st.floats(min_value=-800.0, max_value=800.0))
@example("pow_exp", 1.0, 1.5, 1.0, 1.0, 1.0, -0.5, 2.0)  # f(0) = 0
@example("pow_exp", 1.0, 2.0, 0.0, 1.0, 2.0, 0.0, -700.0)
@example("exp", 1.0, 1.0, 0.0, 0.0, 1.0, 1e3, 0.0)  # exp(arg) overflows
@example("pow_exp", 1.0, 120.0, 1.0, 0.0, 1.0, 1e3, 0.0)  # u**q overflows
@example("linear", 1.0, 2.0, 0.0, 0.0, 3.0, -0.5, -710.0)
# at the cap: exp(log(1e100)) rounds above 1e100, its predecessor below
@example("exp", 1.0, 1.0, 0.0, 0.0, 1.0, _ARG_CAP, 0.0)
@example("exp", 1.0, 1.0, 0.0, 0.0, 1.0, math.nextafter(_ARG_CAP, 0.0), 0.0)
@example("pow_exp", 1.0, 2.0, 0.0, 0.0, 1.0, 0.0, -_ARG_CAP)  # f(0) branch
@example("exp", 1.0, 1.0, 0.0, 0.0, 1.0, 709.5, 0.0)  # past EXP_ARG_MAX
@example("pow_exp", 1.0, 1.5, 1.0, 1.0, 1.0, math.nan, 0.0)
@example("linear", 1.0, 2.0, 0.0, 0.0, 1.0, math.nan, 0.0)
# lambda past the sentinel: the linear source saturates above only
@example("linear", 1.0, 2.0, 0.0, 0.0, 1e150, 1.0, 0.0)
@example("linear", 1.0, 2.0, 0.0, 0.0, 1e150, -1.0, 0.0)
# g' < 0 far below -1e100: f' is clamped from below, here and at u <= 0
@example("pow_exp", 1.0, 2.0, 0.0, -1e150, 1.0, 1e-200, -200.0)
@example("pow_exp", 1.0, 2.0, 0.0, -1e150, 1.0, -0.5, -10.0)
@settings(max_examples=500, deadline=None)
def test_compiled_terms_are_bitwise_the_reference(family, a, q, p, rb, lam,
                                                  u, t):
    nl = make_nonlinearity(family, a=a, q=q, p=p, rho_beta=rb, lam=lam)
    src, fprime = source_terms(nl)
    assert src(u, t).hex() == _saturated_source(nl, u, t).hex()
    assert fprime(u, t).hex() == _saturated_fprime(nl, u, t).hex()


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
        assert find_s0(nl) == 0.0

    def test_log_term_shifts_threshold(self):
        # g = u^{3/2} + 2 log u; curvature turns positive at (8/3)^{2/3};
        # the scan returns the last grid sample below the crossing, the
        # floor the crossing itself
        nl = make_nonlinearity("pow_exp", q=1.5, p=2.0)
        got = find_s0(nl)
        exact = (8.0 / 3.0) ** (2.0 / 3.0)
        assert got < exact
        assert got == pytest.approx(exact, rel=5e-3)
        assert convexity_floor(nl) == pytest.approx(exact, rel=1e-15, abs=0)

    def test_negative_drift_shifts_threshold(self):
        # g = u^2 - 10 u; slope turns positive at u = 5
        nl = make_nonlinearity("pow_exp", q=2.0, rho_beta=-10.0)
        got = find_s0(nl)
        assert got < 5.0
        assert got == pytest.approx(5.0, rel=5e-3)

    def test_pure_exponential_needs_weak_test(self):
        nl = make_nonlinearity("exp")
        assert find_s0(nl) == 0.0  # g'' == 0 passes only g'' >= 0
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
            grid = find_s0(nl)
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
    ])
    def test_other_inputs_keep_the_scan(self, kw):
        nl = make_nonlinearity("pow_exp", **kw)
        try:
            want = find_s0(nl)
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


def test_config_interface_families():
    for fam, kw in (("pow_exp", dict(p=1.0, q=2.0, a=1.0, lam=1.0)),
                    ("exp", dict()), ("linear", dict())):
        nl = make_nonlinearity(fam, **kw)
        assert nl.family == fam
    with pytest.raises(ConfigError):
        make_nonlinearity("unknown")
    with pytest.raises(ConfigError):
        make_nonlinearity("pow_exp", lam=-1.0)
