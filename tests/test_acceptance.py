"""Acceptance gate: one check per shipped guarantee, each printing a single
pass/fail line with the measured quantity and its budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; without -s they appear in the captured output of failed checks.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from qshoot.asymptotics import (
    comparison_z,
    error_decay_report,
    predict_all,
    snapshot,
    tail_power_integral,
    turning_integrals,
)
from qshoot.config import ProblemConfig
from qshoot.linearization import (
    flux_identity_residual,
    t_prime,
    t_prime_fd,
    v2_eval,
)
from qshoot.nonlinearity import make_nonlinearity
from qshoot.ode import energy_series, energy_violations
from qshoot.output import json_text
from qshoot.shooting import (
    classify_small_gamma,
    shoot,
    shoot_singular,
    shoot_weighted_direct,
    sweep,
)
from qshoot.verify import run_suites, suite_identities
from conftest import bessel_first_zero


def _criterion(num, name, ok, detail, elapsed, limit=None):
    status = "PASS" if ok else "FAIL"
    budget = f"{elapsed:.2f}s" + (f" of {limit:.0f}s" if limit else "")
    print(f"criterion {num:02d} {name}: {status} ({detail}; {budget})")
    assert ok, f"criterion {num:02d} {name}: {detail}"
    if limit is not None:
        assert elapsed < limit, \
            f"criterion {num:02d} {name} over budget: {elapsed:.2f}s"


def test_criterion_01_bessel_oracle(nl_linear, cfg2):
    t0 = time.perf_counter()
    want = bessel_first_zero()
    Rs = [shoot(nl_linear, 2, g, cfg2).R for g in (0.5, 1.0, 2.0)]
    err = max(abs(R - want) for R in Rs)
    spread = max(Rs) - min(Rs)
    elapsed = time.perf_counter() - t0
    _criterion(1, "bessel_oracle", err <= 1e-6 and spread <= 1e-8,
               f"max|R-j01|={err:.2e}, spread={spread:.2e}", elapsed, 1.0)


def test_criterion_02_planar_exponential_oracle(nl_exp, cfg2):
    t0 = time.perf_counter()
    rel = 0.0
    for gamma in (1.0, 2.0, 5.0, 10.0):
        want = math.sqrt(8.0 * math.expm1(gamma / 2.0) * math.exp(-gamma))
        got = shoot(nl_exp, 2, gamma, cfg2).R
        rel = max(rel, abs(got - want) / want)
    elapsed = time.perf_counter() - t0
    _criterion(2, "planar_exponential_oracle", rel <= 1e-6,
               f"max rel err={rel:.2e}", elapsed, 1.0)


def test_criterion_03_cross_variable_consistency(nl_square, nl_exp,
                                                 nl_family_ii,
                                                 nl_three_halves):
    cases = [(nl_square, 2, 3.0), (nl_square, 3, 3.0), (nl_exp, 2, 3.0),
             (nl_family_ii, 2, 5.0), (nl_three_halves, 3, 5.0)]
    t0 = time.perf_counter()
    worst = 0.0
    for nl, n, gamma in cases:
        cfg = ProblemConfig()
        Tt = shoot(nl, n, gamma, cfg, route="t").T
        Tr = shoot(nl, n, gamma, cfg, route="r").T
        worst = max(worst, abs(Tt - Tr) / (1.0 + abs(Tt)))
    elapsed = time.perf_counter() - t0
    _criterion(3, "cross_variable_consistency", worst <= 1e-6,
               f"5 cases, max normalized |T_r - T_t|={worst:.2e}",
               elapsed, 5.0)


def test_criterion_04_identity_suite():
    t0 = time.perf_counter()
    rep = suite_identities()
    elapsed = time.perf_counter() - t0
    worst = max((r.value / r.bound if r.bound else 0.0) for r in rep.rows)
    _criterion(4, "identity_suite", rep.passed,
               f"{len(rep.rows)} checks, worst value/bound={worst:.2e}",
               elapsed, 5.0)


def test_criterion_05_quadrature_vs_closed_form(nl_square):
    gamma = 5.0
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        s = snapshot(nl_square, n, gamma)

        def zpp(u):
            x = (s.T1 - u) / (n - 1.0)
            sig = 1.0 / (1.0 + math.exp(-x))
            return -(s.c / (n - 1.0)) * sig * (1.0 - sig)

        for t in (s.T1 - 2.0, s.T1, s.T1 + 5.0 * (n - 1)):
            hi = t + 200.0 * (n - 1)
            opt = dict(limit=400, epsabs=1e-300, epsrel=1e-12)
            # the expansions consume powers (z')^{k+1} up to k = n-1; the
            # alternating closed form cancels catastrophically past that
            for k in (1, 2):
                ref = quad(lambda u: comparison_z(gamma, n, nl_square, u)[1]
                           ** (k + 1), t, hi, **opt)[0]
                got = tail_power_integral(k, gamma, n, nl_square, t)
                worst = max(worst, abs(got - ref) / abs(ref))
            i1, i2, _ = turning_integrals(gamma, n, nl_square, t)
            ref1 = quad(lambda u: comparison_z(gamma, n, nl_square, u)[1]
                        ** (n - 2) * zpp(u)
                        * v2_eval(gamma, n, nl_square, u)[1], t, hi, **opt)[0]
            ref2 = quad(lambda u: comparison_z(gamma, n, nl_square, u)[1] ** n
                        * v2_eval(gamma, n, nl_square, u)[1], t, hi, **opt)[0]
            worst = max(worst, abs(i1 - ref1) / abs(ref1),
                        abs(i2 - ref2) / abs(ref2))
    elapsed = time.perf_counter() - t0
    _criterion(5, "quadrature_vs_closed_form", worst <= 1e-8,
               f"max rel err={worst:.2e} at 6 abscissae x n in (2,3)",
               elapsed, 10.0)


ENERGY_MATRIX = [
    ("exp", dict(), 2.0), ("exp", dict(), 10.0),
    ("pow_exp", dict(q=2.0), 3.0), ("pow_exp", dict(q=2.0), 5.0),
    ("pow_exp", dict(q=1.5), 50.0), ("pow_exp", dict(q=1.5), 200.0),
    ("pow_exp", dict(q=1.5, p=1.0, rho_beta=1.0), 5.0),
    ("pow_exp", dict(q=1.5, p=1.0, rho_beta=1.0), 8.0),
]


def test_criterion_06_energy_monotonicity(cfg2):
    t0 = time.perf_counter()
    total, bad = 0, 0
    for family, kw, gamma in ENERGY_MATRIX:
        nl = make_nonlinearity(family, **kw)
        out = shoot(nl, 2, gamma, cfg2, keep_trajectory=True, route="t")
        recs = energy_series(out.traj)
        total += len(recs)
        bad += len(energy_violations(recs))
    elapsed = time.perf_counter() - t0
    _criterion(6, "energy_monotonicity", bad == 0,
               f"{total} samples over {len(ENERGY_MATRIX)} trajectories, "
               f"{bad} violations at 1e-9 relative", elapsed)


def test_criterion_07_linearization_vs_finite_differences(nl_family_ii, cfg2):
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (2.0, 3.0, 5.0, 8.0, 10.0):
        tp = t_prime(nl_family_ii, 2, gamma, cfg2)
        fd = t_prime_fd(nl_family_ii, 2, gamma, cfg2)
        worst = max(worst, abs(tp - fd) / abs(fd))
    elapsed = time.perf_counter() - t0
    _criterion(7, "linearization_vs_finite_differences", worst <= 1e-3,
               f"5 amplitudes, max rel gap={worst:.2e}", elapsed, 30.0)


def test_criterion_08_flux_identity(nl_family_ii, cfg2):
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in (3.0, 5.0, 8.0):
        rep = flux_identity_residual(nl_family_ii, 2, gamma, cfg2)
        worst = max(worst, rep["residual"])
    elapsed = time.perf_counter() - t0
    _criterion(8, "flux_identity", worst <= 1e-6,
               f"max normalized residual={worst:.2e} over 3 amplitudes",
               elapsed, 10.0)


def test_criterion_09_zero_error_decay(nl_three_halves, cfg2):
    t0 = time.perf_counter()
    gammas = np.geomspace(20.0, 200.0, 6)
    curve = sweep(nl_three_halves, 2, gammas, cfg2)
    rep = error_decay_report(curve)
    ratio = rep.verdicts["T"]["max_over_min"]
    lead = 2.0 / (1.5 * math.sqrt(200.0))
    pred = predict_all(200.0, 2, nl_three_halves)
    slope_rel = abs(curve.outcomes[-1].yprime_T - pred.yprime_T_pred) / lead
    elapsed = time.perf_counter() - t0
    ok = rep.span_ok and rep.verdicts["T"]["bounded"] and slope_rel <= 0.1
    _criterion(9, "zero_error_decay", ok,
               f"normalized e_T max/min={ratio:.2f} (<=10), "
               f"slope rel err at gamma=200: {slope_rel:.2e} (<=0.1)",
               elapsed, 60.0)


def test_criterion_10_derivative_error_decay(nl_three_halves, cfg2):
    t0 = time.perf_counter()
    gammas = np.geomspace(20.0, 200.0, 6)
    curve = sweep(nl_three_halves, 2, gammas, cfg2, with_derivative=True)
    errs = []
    for g, tp in zip(gammas, curve.tprime_v1):
        pred = predict_all(float(g), 2, nl_three_halves).Tprime_pred
        errs.append(abs(tp - pred))
    upper = errs[len(errs) // 2 - 1:]
    ok = all(b < a for a, b in zip(upper, upper[1:]))
    elapsed = time.perf_counter() - t0
    _criterion(10, "derivative_error_decay", ok,
               "raw |T' - prediction| decreasing over the upper ladder: "
               + ", ".join(f"{e:.2e}" for e in upper), elapsed, 60.0)


def test_criterion_11_small_amplitude_regimes(cfg2):
    t0 = time.perf_counter()
    expected = {0.3: "diverges_up", 1.0: "bounded", 2.0: "diverges_down"}
    got = {}
    for p in expected:
        nl = make_nonlinearity("pow_exp", q=2.0, p=p)
        got[p] = classify_small_gamma(nl, 2, cfg=cfg2).verdict
    elapsed = time.perf_counter() - t0
    _criterion(11, "small_amplitude_regimes", got == expected,
               f"verdicts={got}", elapsed, 30.0)


def test_criterion_12_uniqueness_window(nl_family_ii, cfg2):
    t0 = time.perf_counter()
    gammas = np.linspace(2.0, 12.0, 11)
    curve = sweep(nl_family_ii, 2, gammas, cfg2, with_derivative=True)
    Ts = [o.T for o in curve.outcomes]
    v1s = [-tp * o.yprime_T
           for tp, o in zip(curve.tprime_v1, curve.outcomes)]
    gamma0 = None
    for i in range(len(gammas)):
        inc = all(b > a for a, b in zip(Ts[i:], Ts[i + 1:]))
        neg = all(v < 0.0 for v in v1s[i + 1:])
        if inc and neg:
            gamma0 = float(gammas[i])
            break
    elapsed = time.perf_counter() - t0
    _criterion(12, "uniqueness_window", gamma0 is not None,
               f"gamma0={gamma0}, T increasing and V1(T)<0 beyond it",
               elapsed, 60.0)


def test_criterion_13_singular_reduction(nl_exp, cfg2):
    t0 = time.perf_counter()
    direct0 = shoot(nl_exp, 2, 2.0, cfg2)
    red0 = shoot_singular(nl_exp, 2, 0.0, 2.0, cfg2)
    identity_ok = (red0.T == direct0.T and red0.R == direct0.R
                   and red0.lam == direct0.lam)
    worst = 0.0
    for gamma in (1.0, 2.0, 4.0):
        red = shoot_singular(nl_exp, 2, 1.0, gamma, cfg2)
        direct = shoot_weighted_direct(nl_exp, 2, 1.0, gamma, cfg2)
        worst = max(worst, abs(red.R - direct.R) / direct.R)
    elapsed = time.perf_counter() - t0
    _criterion(13, "singular_reduction", identity_ok and worst <= 1e-5,
               f"beta=0 bitwise identity={identity_ok}, "
               f"beta=1 max rel gap={worst:.2e}", elapsed, 10.0)


def test_criterion_14_deterministic_reports():
    t0 = time.perf_counter()
    a = json_text([r.as_dict() for r in run_suites()])
    b = json_text([r.as_dict() for r in run_suites()])
    elapsed = time.perf_counter() - t0
    _criterion(14, "deterministic_reports", a == b,
               f"two full verification reports, {len(a)} bytes each, "
               f"byte-identical={a == b}", elapsed)
