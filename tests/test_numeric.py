"""The in-repo Brent root finder and G10K21 quadrature, against scipy's
brentq and quad and against closed forms, and the sample grids against
numpy's."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq as scipy_brentq

from qshoot._numeric import (_WG, _WK, _WK0, _XK, brentq, geomspace,
                             linspace, quad)
from qshoot._stable import softplus
from qshoot.asymptotics import snapshot
from qshoot.errors import SolverError
from qshoot.nonlinearity import make_nonlinearity


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
        root = brentq(lambda x: math.cos(x) - x, 0.0, 1.0, xtol=1e-13)
        assert abs(root - 0.7390851332151607) <= 1e-13

    def test_an_end_on_the_root_is_returned(self):
        assert brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0

    def test_an_underflowing_interpolation_bisects(self):
        # at |f| below about 1e-103 the inverse quadratic step's denominator
        # underflows to 0; scipy's C code bisects there too
        def f(x):
            return 1e-120 * (0.3 - x) * (1.0 + x)

        root = brentq(f, 0.0, 1.0)
        assert abs(root - 0.3) <= 2e-12
        assert root == scipy_brentq(f, 0.0, 1.0)

    def test_an_overflowing_interpolation_stays_a_float(self):
        # a dense-output crossing polynomial of a steep march, on which the
        # inverse quadratic step's denominator overflows
        from qshoot.ode import _poly

        c = (29176.647198437575, -1.4222788536929905e+108,
             1.4222788536929905e+108, 2.8966206482325755e+109,
             -1.609759921992606e+110, -5.3748151212139046e+109,
             -1.08524042597743e+111, 3.3806160265616875e+111)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            root = brentq(lambda x: _poly(c, x), 0.0, 1.0,
                          xtol=1.5717949968699917e-22)
        assert type(root) is float and 0.0 <= root <= 1.0

    @pytest.mark.parametrize("f,match", [
        (lambda x: x * x + 1.0, "not bracketed"),
        (lambda x: math.nan, "not bracketed"),
        (lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, "NaN"),
        (lambda x: (x - 0.3) ** 3, "did not converge")])
    def test_failures_are_solver_errors(self, f, match):
        with pytest.raises(SolverError, match=match):
            brentq(f, 0.0, 1.0, xtol=1e-300)


def _kronrod_rule():
    """The 21 nodes on [-1, 1], ascending, with their Kronrod weights and
    their 10-point Gauss weights (0 off the Gauss nodes)."""
    nodes = [-x for x in _XK] + [0.0] + list(reversed(_XK))
    wk = list(_WK) + [_WK0] + list(reversed(_WK))
    wg = [0.0] * 21
    wg[1:10:2], wg[11:20:2] = _WG, tuple(reversed(_WG))
    return nodes, wk, wg


class TestGaussKronrod:
    def test_rule_exactness(self):
        # Kronrod: degree 31; Gauss: the 10-point Legendre rule
        nodes, wk, wg = _kronrod_rule()
        for d in range(32):
            assert math.fsum(w * x ** d for w, x in zip(wk, nodes)) \
                == pytest.approx((1.0 - (-1.0) ** (d + 1)) / (d + 1),
                                 abs=1e-14)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(10)
        gauss = [i for i, w in enumerate(wg) if w != 0.0]
        assert np.allclose([nodes[i] for i in gauss], ref_nodes,
                           rtol=0.0, atol=1e-15)
        assert np.allclose([wg[i] for i in gauss], ref_weights,
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("f,a,b,exact", [
        (lambda x: math.exp(-x), 0.0, 50.0, -math.expm1(-50.0)),
        (lambda x: 1.0 / (1.0 + x * x), -100.0, 100.0, 2.0 * math.atan(100.0)),
        (lambda x: math.sin(x) ** 2, 0.0, 30.0, 15.0 - math.sin(60.0) / 4.0),
        (math.sqrt, 0.0, 1.0, 2.0 / 3.0)])
    def test_closed_forms(self, f, a, b, exact):
        val, err = quad(f, a, b, epsabs=1e-300, epsrel=1e-12, limit=400)
        assert val == pytest.approx(exact, rel=2e-12)
        assert err <= 1e-12 * abs(val)
        assert quad(f, b, a, epsabs=1e-300, epsrel=1e-12,
                    limit=400)[0] == pytest.approx(-exact, rel=2e-12)

    def test_agrees_with_scipy_on_a_tail_integrand(self):
        def f(x):
            return math.exp(-softplus(x)) ** 3

        ours = quad(f, -20.0, 400.0, epsabs=1e-300, epsrel=1e-12, limit=400)
        ref = scipy_quad(f, -20.0, 400.0, epsabs=1e-300, epsrel=1e-12,
                         limit=400)
        assert ours[0] == pytest.approx(ref[0], rel=1e-12)

    def test_integrand_sees_one_float_per_node(self):
        seen = []

        def f(x):
            seen.append(x)
            return math.exp(x)

        quad(f, 0.0, 40.0, epsabs=0.0, epsrel=1e-13, limit=100)
        assert all(type(x) is float for x in seen)
        # 21 nodes on the first interval, then 42 for each bisected pair
        assert len(seen) > 21 and (len(seen) - 21) % 42 == 0
        nodes = _kronrod_rule()[0]
        assert sorted(seen[:21]) == [20.0 + 20.0 * x for x in nodes]

    def test_limit_caps_the_intervals(self):
        calls = []
        quad(lambda x: calls.append(1) or math.sqrt(abs(x - 0.3)), 0.0, 1.0,
             epsabs=0.0, epsrel=1e-15, limit=5)
        assert len(calls) == 21 * (1 + 2 * (5 - 1))

    def test_empty_interval(self):
        assert quad(math.exp, 2.0, 2.0) == (0.0, 0.0)


class TestGrids:
    # the package's grids: the command line's gamma grids, verify's identity
    # and ladder grids and the small-amplitude ladder; LONG, a 6000-point
    # geometric grid, gives rounding many chances to differ
    LINEAR = [(2.0, 12.0, 40), (2.0, 12.0, 8), (1.0, 20.0, 6), (0.5, 3.0, 11),
              (2.0, 12.0, 2), (2.0, 12.0, 1), (1e-4, 1e-1, 5)]
    GEOMETRIC = [(20.0, 200.0, 6), (1e-6, 1e-3, 24)]
    LONG = (1e-6, 1e3, 6000)

    def test_linspace_is_numpys_bitwise(self):
        grids = list(self.LINEAR)
        nl = make_nonlinearity("pow_exp", q=2.0)
        for n in (2, 3, 4):
            for gamma in (3.0, 5.0, 10.0):
                s = snapshot(nl, n, gamma)
                grids.append((s.T0, s.T1 + 20.0 * (n - 1.0), 100))
        lo, hi, num = self.LONG
        grids.append((math.log10(lo), math.log10(hi), num))
        for a, b, num in grids:
            assert linspace(a, b, num) == np.linspace(a, b, num).tolist()

    def test_geomspace_is_numpys_bitwise(self):
        for a, b, num in self.GEOMETRIC:
            assert geomspace(a, b, num) == np.geomspace(a, b, num).tolist()

    def test_the_floor_scan_is_within_an_ulp_of_numpys(self):
        # C pow and numpy's power round 10 ** e differently at some points
        ours, ref = geomspace(*self.LONG), np.geomspace(*self.LONG)
        assert len(ours) == len(ref) == self.LONG[2]
        assert ours[0] == ref[0] and ours[-1] == ref[-1]
        assert all(abs(x - r) <= math.ulp(r) for x, r in zip(ours, ref.tolist()))
