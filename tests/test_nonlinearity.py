import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from qshoot.errors import AdmissionError, ConfigError
from qshoot.nonlinearity import (SOURCE_CAP, convexity_floor,
                                 eval_fprime_source, eval_g, eval_source,
                                 exploratory, g_is_linear, log_f,
                                 make_nonlinearity, with_lambda)
from qshoot.ode import _system
from conftest import saturated_fprime, saturated_source


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

    @pytest.mark.parametrize("k", [2, 3])
    def test_an_underflowing_divisor_is_refused(self, k):
        # p / u^k with u^k below the double range: a typed refusal naming
        # u and k, not a bare ZeroDivisionError
        nl = make_nonlinearity("pow_exp", q=1.5, p=1.0)
        with pytest.raises(AdmissionError, match=rf"g\^\({k}\).*u=1e-170"):
            eval_g(nl, 1e-170, k)
        assert math.isfinite(eval_g(nl, 1e-100, k))

    @pytest.mark.parametrize("family,q,u,k", [
        ("exp", 1.0, 0.0, 2), ("exp", 1.0, 0.0, 3), ("exp", 1.0, 1e-300, 2),
        ("exp", 1.0, 1e-300, 3), ("pow_exp", 2.0, 0.0, 3)])
    def test_a_zero_coefficient_leaves_the_rho_part(self, family, q, u, k):
        # a q (q-1)...(q-k+1) = 0: u^{q-k} is never formed, so neither its
        # pole at 0 nor its overflow near 0 is reached
        assert eval_g(make_nonlinearity(family, q=q), u, k) == 0.0

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
# pins f''s grouping aq u^{q-1} + (p/u + b): without the brackets its last
# bit changes here
@example("pow_exp", 1.4588768758486657, 1.0811238764943933, 2.2355550797433605,
         0.8279499223475363, 4.380705450270217, 6.895770351319319,
         24.20890569443837)
@settings(max_examples=500, deadline=None)
def test_compiled_terms_are_bitwise_the_reference(family, a, q, p, rb, lam,
                                                  u, t):
    # the source text as the march runs it: the t-route channel at n = 2 on
    # the state (u, L = 0, -1, 0) has -d1 = f(u) e^{-t-L} = f(u) e^{-t} and
    # d3 = f'(u) e^{-t}, both exact, f' evaluated after f in one scope
    nl = make_nonlinearity(family, a=a, q=q, p=p, rho_beta=rb, lam=lam)
    _, d1, _, d3 = _system("t", nl, 2, True)[0](t, [u, 0.0, -1.0, 0.0])
    assert (-d1).hex() == saturated_source(nl, u, t).hex()
    assert d3.hex() == saturated_fprime(nl, u, t).hex()


def test_with_lambda_rescales():
    nl = make_nonlinearity("exp", lam=1.0)
    nl2 = with_lambda(nl, 3.0)
    assert log_f(nl2, 1.5) == pytest.approx(math.log(3.0) + 1.5)
    assert nl2.f0 == 3.0


def test_with_lambda_sets_f0_to_the_new_multiplier():
    # f0 used to be stored and rescaled by lam / nl.lam, which rounded
    # away from lam in 875 of these draws
    rng = random.Random(1)
    for _ in range(10_000):
        a, b = rng.uniform(0.01, 10.0), rng.uniform(0.01, 10.0)
        assert with_lambda(make_nonlinearity("exp", lam=a), b).f0 == b


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


# the reference scan the floor is checked against: 6000 geometric samples
SCAN = (1e-6, 1e3, 6000)
# below it u^2 is subnormal, and the floor is its closed form, not walked
TINY = math.sqrt(sys.float_info.min)


def _holds(nl, u):
    """g' > 0 and g'' >= 0 at u, or None where the computed g'' cannot tell:
    an overflow, a g'' that underflows to 0 without being identically 0, or
    p / u^2 for u below TINY."""
    if nl.p > 0.0 and u < TINY:
        return None
    try:
        g1, g2 = eval_g(nl, u, 1), eval_g(nl, u, 2)
    except OverflowError:
        return None
    if g2 == 0.0 and (nl.p != 0.0 or nl.a * nl.q * (nl.q - 1.0) != 0.0):
        return None
    return g1 > 0.0 and g2 >= 0.0


class TestConvexityThreshold:
    def test_a_threshold_below_1e_150_is_walked(self):
        # s = (p/c)^{1/q} = 5.97e-153 still has a normal s^2: the floor is
        # the first double where the computed g'' >= 0, not the closed form
        # a few ulps below it, where g'' = -1.1e100
        nl = make_nonlinearity("pow_exp", q=1.25, p=1.6401655691816826e-191)
        s0 = convexity_floor(nl)
        assert s0 == pytest.approx(5.97076715778e-153, rel=1e-11)
        assert eval_g(nl, s0, 2) >= 0.0 and eval_g(nl, s0, 1) > 0.0
        assert eval_g(nl, math.nextafter(s0, 0.0), 2) < 0.0

    def test_square_is_globally_convex(self):
        assert convexity_floor(make_nonlinearity("pow_exp", q=2.0)) == 0.0

    def test_log_term_shifts_threshold(self):
        # g = u^{3/2} + 2 log u; curvature turns positive at (8/3)^{2/3}
        nl = make_nonlinearity("pow_exp", q=1.5, p=2.0)
        exact = (8.0 / 3.0) ** (2.0 / 3.0)
        assert convexity_floor(nl) == pytest.approx(exact, rel=1e-15, abs=0)

    def test_pure_exponential_needs_weak_test(self):
        nl = make_nonlinearity("exp")
        assert convexity_floor(nl) == 0.0  # g'' == 0 passes only g'' >= 0

    def test_linear_family_has_no_threshold(self):
        assert convexity_floor(make_nonlinearity("linear")) == math.inf

    def test_negative_drift_shifts_threshold(self):
        # g = u^2 - 10 u: the slope turns positive past u = 5
        nl = make_nonlinearity("pow_exp", q=2.0, rho_beta=-10.0)
        assert convexity_floor(nl) == 5.000000000000001

    @pytest.mark.parametrize("kw, want", [
        (dict(q=0.7), math.inf),  # g'' < 0 on every tail
        (dict(q=0.5, p=1.0), math.inf),
        (dict(q=2.0, rho_beta=-10.0), 5.000000000000001),
        # the curvature threshold, where g' > 0 already holds
        (dict(q=1.5, p=1.0, rho_beta=-2.0), 1.21141372855476),
        (dict(q=2.0, rho_beta=-0.5), 0.25000000000000006),
    ], ids=[f"kw{i}" for i in range(5)])
    def test_other_inputs_keep_the_scan(self, kw, want):
        # the exact floor, in the reference scan's cell past its last
        # failing sample (the last sample itself where the tail never holds)
        nl = make_nonlinearity("pow_exp", **kw)
        s0 = convexity_floor(nl)
        assert s0 == want
        grid = np.geomspace(*SCAN).tolist()
        ok = [_holds(nl, u) for u in grid]
        assert None not in ok
        k = max(i for i, v in enumerate(ok) if not v)
        assert s0 >= grid[k]
        if k + 1 < len(grid):
            assert s0 <= grid[k + 1]
        else:
            assert s0 == math.inf

    # a subnormal p lets the reference's g'' = -p/u^2 round to -0.0, which
    # passes; the floor itself takes one through the @example below
    @given(st.floats(min_value=-3.0, max_value=5.0),
           st.floats(min_value=-1.0, max_value=3.5),
           st.floats(min_value=0.0, max_value=5.0, allow_subnormal=False),
           st.floats(min_value=-5.0, max_value=5.0))
    @example(1.0, 1.01, 0.0, -0.5)  # g' reads 0.0 on ~100 ulps at its root
    @example(2.0, 1.001, 0.0, -0.5)  # the root 2e-602 underflows
    @example(1.0, 1.01, 4.7, -3.9)  # p/r is lost in the rounding of g'(r)
    @example(5.0, -0.2, 0.25, 0.0)  # the curvature fails again past 1e3
    @example(1.0, 3.0, 5e-324, 0.0)  # p / c underflows to 0
    @example(-1.0, 0.03125, 1e-38, 1.0)  # s underflows; g' overflows there
    @example(1.0, 1.25, 1.6401655691816826e-191, 0.0)  # s = 6e-153 is walked
    @settings(max_examples=150, deadline=None)
    def test_the_floor_starts_the_convex_tail(self, a, q, p, b):
        # g' > 0 and g'' >= 0 from the floor on, and not just below it; it
        # lies in the reference scan's cell past its last failing sample
        try:
            nl = make_nonlinearity("pow_exp", a=a, q=q, p=p, rho_beta=b)
        except ConfigError:
            assume(False)
        s0 = convexity_floor(nl)
        if 0.0 < s0 < math.inf:
            top = min(max(1e4, 10.0 * s0), sys.float_info.max)
            for u in [s0] + np.geomspace(s0, top, 25).tolist()[1:]:
                assert _holds(nl, max(u, s0)) is not False
            if TINY < s0 < 1e150:
                assert _holds(nl, math.nextafter(s0, 0.0)) is not True
        grid = np.geomspace(*SCAN).tolist()
        ok = [_holds(nl, u) for u in grid]
        if None in ok:
            return
        failed = [u for u, v in zip(grid, ok) if not v]
        if failed:
            assert s0 >= failed[-1]
        # where the computed test switches once in the window, the floor
        # lies in the grid cell that holds the switch; past (p / c)^{1/q}
        # the curvature of q < 0 < p fails for good
        k = len(failed)
        if failed == grid[:k] and k < len(grid) and not q < 0.0 < p:
            assert s0 <= grid[k] * (1.0 + 1e-12)


def test_g_is_linear_flags():
    assert g_is_linear(make_nonlinearity("exp"))
    assert g_is_linear(make_nonlinearity("pow_exp", q=1.0))
    assert not g_is_linear(make_nonlinearity("pow_exp", q=2.0))
    assert not g_is_linear(make_nonlinearity("pow_exp", q=1.0, p=1.0))
    assert not g_is_linear(make_nonlinearity("linear"))


def test_exploratory_tagging():
    assert exploratory(make_nonlinearity("pow_exp", q=3.0), 2)
    assert not exploratory(make_nonlinearity("pow_exp", q=2.0), 2)
    assert not exploratory(make_nonlinearity("pow_exp", q=1.5), 3)
    assert exploratory(make_nonlinearity("exp"), 2)


def test_describe_mentions_lambda():
    nl = make_nonlinearity("pow_exp", q=2.0, lam=2.5)
    d = nl.describe(2)
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
