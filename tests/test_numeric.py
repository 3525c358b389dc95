"""The in-repo Brent root finder and G10K21 quadrature, against scipy's
brentq and quad and against closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq as scipy_brentq

from qshoot._numeric import _NODES, _W, brentq, quad
from qshoot.errors import SolverError


class TestBrent:
    def test_agrees_bitwise_with_scipy(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(400):
            c = rng.normal(size=4)

            def f(x):
                return c[0] + c[1] * x + c[2] * math.sin(3.0 * x) + c[3] * x ** 3

            if not f(-3.0) * f(3.0) < 0.0:
                continue
            xtol = 10.0 ** rng.uniform(-14.0, -3.0)
            assert brentq(f, -3.0, 3.0, xtol=xtol) == \
                scipy_brentq(f, -3.0, 3.0, xtol=xtol)
            checked += 1
        assert checked > 100

    def test_meets_its_tolerance(self):
        root = brentq(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=1e-13,
                      rtol=1e-15)
        assert abs(root - 0.7390851332151607) <= 1e-13

    def test_an_end_on_the_root_is_returned(self):
        assert brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0

    @pytest.mark.parametrize("f,match", [
        (lambda x: x * x + 1.0, "not bracketed"),
        (lambda x: math.nan, "not bracketed"),
        (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, "NaN"),
        (lambda x: (x - 0.3) ** 3, "did not converge")])
    def test_failures_are_solver_errors(self, f, match):
        with pytest.raises(SolverError, match=match):
            brentq(f, 0.0, 1.0, xtol=1e-300, rtol=1e-300)


class TestGaussKronrod:
    def test_rule_exactness(self):
        # Kronrod: degree 31; Gauss: the 10-point Legendre rule
        for d in range(32):
            assert _W[0] @ _NODES ** d == pytest.approx(
                (1.0 - (-1.0) ** (d + 1)) / (d + 1), abs=1e-14)
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = _W[1] != 0.0
        assert np.allclose(_NODES[gauss], nodes, rtol=0.0, atol=1e-15)
        assert np.allclose(_W[1][gauss], weights, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("f,a,b,exact", [
        (lambda x: np.exp(-x), 0.0, 50.0, -math.expm1(-50.0)),
        (lambda x: 1.0 / (1.0 + x * x), -100.0, 100.0, 2.0 * math.atan(100.0)),
        (lambda x: np.sin(x) ** 2, 0.0, 30.0, 15.0 - math.sin(60.0) / 4.0),
        (np.sqrt, 0.0, 1.0, 2.0 / 3.0)])
    def test_closed_forms(self, f, a, b, exact):
        val, err = quad(f, a, b, epsabs=1e-300, epsrel=1e-12, limit=400)
        assert val == pytest.approx(exact, rel=2e-12)
        assert err <= 1e-12 * abs(val)
        assert quad(f, b, a, epsabs=1e-300, epsrel=1e-12,
                    limit=400)[0] == pytest.approx(-exact, rel=2e-12)

    def test_agrees_with_scipy_on_a_tail_integrand(self):
        def f(x):
            return np.exp(-np.logaddexp(0.0, x)) ** 3

        ours = quad(f, -20.0, 400.0, epsabs=1e-300, epsrel=1e-12, limit=400)
        ref = scipy_quad(f, -20.0, 400.0, epsabs=1e-300, epsrel=1e-12,
                         limit=400)
        assert ours[0] == pytest.approx(ref[0], rel=1e-12)

    def test_integrand_sees_whole_node_arrays(self):
        sizes = []

        def f(x):
            sizes.append(len(x))
            return np.exp(x)

        quad(f, 0.0, 40.0, epsabs=0.0, epsrel=1e-13, limit=100)
        assert sizes[0] == 21 and len(sizes) > 1
        assert set(sizes[1:]) == {42}

    def test_limit_caps_the_intervals(self):
        calls = []
        quad(lambda x: calls.append(1) or np.sqrt(np.abs(x - 0.3)), 0.0, 1.0,
             epsabs=0.0, epsrel=1e-15, limit=5)
        assert len(calls) == 1 + (5 - 1)

    def test_empty_interval(self):
        assert quad(np.exp, 2.0, 2.0) == (0.0, 0.0)
