"""Self-check suites: closed-form identities, solver oracles, asymptotic
predictions, and small-amplitude regimes.

Each suite returns rows of (name, value, bound, passed) with the value the
measured quantity and the bound what it must stay under (or a target it
must hit, stated in the name). Grids and inputs are fixed so repeated runs
produce identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import quad
from .asymptotics import (comparison_z, harmonic, perturbed_root, predict_all,
                          psi_eval, snapshot, tail_power_integral,
                          turning_integrals, z_ode_log_residual)
from .config import ProblemConfig
from .errors import QShootError
from .linearization import t_prime, v2_eval
from .nonlinearity import eval_g, make_nonlinearity
from .shooting import (classify_small_gamma, shoot, shoot_singular,
                       shoot_weighted_direct)

BESSEL_FIRST_ZERO = 2.404825557695773

SUITES = ("identities", "oracles", "asymptotics", "regimes")

# the fixed solver settings every suite check runs at
_CFG = ProblemConfig()


@dataclass(frozen=True)
class CheckRow:
    name: str
    value: float
    bound: float
    passed: bool

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "bound": self.bound,
                "passed": bool(self.passed)}


@dataclass
class SuiteReport:
    suite: str
    rows: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def failing(self):
        return [r for r in self.rows if not r.passed]

    def as_dict(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "rows": [r.as_dict() for r in self.rows]}


def _leq(name: str, value: float, bound: float) -> CheckRow:
    return CheckRow(name=name, value=float(value), bound=float(bound),
                    passed=bool(value <= bound))


def suite_identities() -> SuiteReport:
    rows = []
    nl = make_nonlinearity("pow_exp", q=2.0)
    for n in (2, 3, 4):
        for gamma in (3.0, 5.0, 10.0):
            s = snapshot(nl, n, gamma)
            ts = np.linspace(s.T0, s.T1 + 20.0 * (n - 1.0), 100)
            res = np.max(z_ode_log_residual(gamma, n, nl, ts))
            rows.append(_leq(f"z_ode_residual[n={n},gamma={gamma:g}]",
                             res, 1e-9))
            # V2 = 1 - g' z' pointwise, and the V2 equation itself
            zs, zps = comparison_z(gamma, n, nl, ts)
            v2s, v2ps, v2pps = v2_eval(gamma, n, nl, ts)
            rel_max = np.max(np.abs(v2s - (1.0 - s.gp * zps)))
            ode_max = 0.0
            cols = (ts, zs, zps, s.z(ts)[2], v2s, v2ps, v2pps)
            for t, z, zp, zpp, v2, v2p, v2pp in zip(*(c.tolist() for c in cols)):
                lhs = -((n - 2.0) * zp ** (n - 3.0) * zpp * v2p
                        + zp ** (n - 2.0) * v2pp)
                rhs = s.gp / (n - 1.0) * v2 \
                    * math.exp(s.g + s.gp * (z - gamma) - t)
                den = max(abs(lhs), abs(rhs), 1e-300)
                ode_max = max(ode_max, abs(lhs - rhs) / den)
            rows.append(_leq(f"v2_relation[n={n},gamma={gamma:g}]",
                             rel_max, 1e-12))
            rows.append(_leq(f"v2_ode_residual[n={n},gamma={gamma:g}]",
                             ode_max, 1e-9))
            rows.append(_leq(f"z_at_T0[n={n},gamma={gamma:g}]",
                             abs(s.z(s.T0)[0]), 1e-9 * max(1.0, gamma)))
            target = n / (n - 1.0) / (2.0 * s.gp)
            rows.append(_leq(f"zprime_at_T1[n={n},gamma={gamma:g}]",
                             abs(s.z(s.T1)[1] - target),
                             1e-12 * max(1.0, target)))
    for k in range(1, 13):
        try:
            harmonic(k)
            ok = True
        except ArithmeticError:
            ok = False
        rows.append(CheckRow(name=f"alternating_sum_identities[k={k}]",
                             value=float(k), bound=float(k), passed=ok))
    return SuiteReport(suite="identities", rows=rows)


def suite_oracles() -> SuiteReport:
    rows = []
    nl_lin = make_nonlinearity("linear")
    Rs = []
    for gamma in (0.5, 1.0, 2.0):
        out = shoot(nl_lin, 2, gamma, _CFG)
        Rs.append(out.R)
        rows.append(_leq(f"bessel_zero[gamma={gamma:g}]",
                         abs(out.R - BESSEL_FIRST_ZERO), 1e-6))
    rows.append(_leq("bessel_amplitude_independence",
                     max(Rs) - min(Rs), 1e-8))

    nl_exp = make_nonlinearity("exp")
    for gamma in (1.0, 2.0, 5.0, 10.0):
        out = shoot(nl_exp, 2, gamma, _CFG)
        exact = math.sqrt(8.0 * math.expm1(gamma / 2.0) * math.exp(-gamma))
        rows.append(_leq(f"planar_exponential_zero[gamma={gamma:g}]",
                         abs(out.R - exact) / exact, 1e-6))

    cross = [("pow_exp", {"q": 2.0}, 2, 3.0),
             ("pow_exp", {"q": 2.0}, 2, 5.0),
             ("exp", {}, 2, 4.0),
             ("pow_exp", {"q": 1.5}, 3, 6.0),
             ("exp", {}, 3, 3.0)]
    for fam, kw, n, gamma in cross:
        nl = make_nonlinearity(fam, n=n, **kw)
        Tt = shoot(nl, n, gamma, _CFG, route="t").T
        Tr = shoot(nl, n, gamma, _CFG, route="r").T
        rows.append(_leq(f"route_agreement[{fam},n={n},gamma={gamma:g}]",
                         abs(Tt - Tr), 1e-6 * (1.0 + abs(Tt))))

    out_red = shoot_singular(nl_exp, 2, 0.0, 3.0, _CFG)
    out_dir = shoot(nl_exp, 2, 3.0, _CFG)
    rows.append(_leq("weight_reduction_identity[beta=0]",
                     abs(out_red.T - out_dir.T), 0.0))
    for gamma in (1.0, 2.0, 4.0):
        red = shoot_singular(nl_exp, 2, 1.0, gamma, _CFG)
        direct = shoot_weighted_direct(nl_exp, 2, 1.0, gamma, _CFG)
        exact = 2.0 * math.expm1(gamma / 2.0) * math.exp(-gamma)
        rows.append(_leq(f"weight_reduction_vs_direct[gamma={gamma:g}]",
                         abs(red.R - direct.R) / direct.R, 1e-5))
        rows.append(_leq(f"weight_reduction_closed_form[gamma={gamma:g}]",
                         abs(red.R - exact) / exact, 1e-6))
    return SuiteReport(suite="oracles", rows=rows)


_QUAD_OPT = {"limit": 400, "epsabs": 1e-300, "epsrel": 1e-12}


def _quad_tail_power(k, s, t):
    val, _ = quad(lambda u: s.z(u)[1] ** (k + 1), t, t + 200.0 * (s.n - 1.0),
                  **_QUAD_OPT)
    return val


def _quad_turning(s, t):
    n = s.n

    def ig1(u):
        _, zp, zpp = s.z(u)
        return zp ** (n - 2.0) * zpp * s.v2(u)[1]

    def ig2(u):
        return s.z(u)[1] ** n * s.v2(u)[1]

    hi = t + 200.0 * (n - 1.0)
    i1q, _ = quad(ig1, t, hi, **_QUAD_OPT)
    i2q, _ = quad(ig2, t, hi, **_QUAD_OPT)
    return i1q, i2q


def suite_asymptotics() -> SuiteReport:
    rows = []
    nl = make_nonlinearity("pow_exp", q=2.0)
    gamma = 5.0
    for n in (2, 3):
        s = snapshot(nl, n, gamma)
        for dt, tag in ((-2.0, "T1-2"), (0.0, "T1"),
                        (5.0 * (n - 1.0), "T1+5(n-1)")):
            t = s.T1 + dt
            closed = tail_power_integral(n - 1, gamma, n, nl, t)
            numeric = _quad_tail_power(n - 1, s, t)
            rows.append(_leq(f"tail_power_integral[n={n},{tag}]",
                             abs(closed - numeric) / max(abs(numeric), 1e-300),
                             1e-8))
            i1, i2, _ = turning_integrals(gamma, n, nl, t)
            i1q, i2q = _quad_turning(s, t)
            rows.append(_leq(f"turning_integral_1[n={n},{tag}]",
                             abs(i1 - i1q) / max(abs(i1q), 1e-300), 1e-8))
            rows.append(_leq(f"turning_integral_2[n={n},{tag}]",
                             abs(i2 - i2q) / max(abs(i2q), 1e-300), 1e-8))

    val = psi_eval(5.0, 2, nl, 5.0)
    rows.append(_leq("drift_at_amplitude[n=2,u^2,gamma=5]",
                     abs(val - (-math.log(5.0))), 1e-12))

    x0 = perturbed_root(1.0, 2, 0.0)
    rows.append(_leq("perturbed_root[b=0]", abs(x0 - 1.0), 1e-14))
    x1 = perturbed_root(1.0, 2, 0.1)
    rows.append(_leq("perturbed_root[a=1,n=2,b=0.1]",
                     abs(x1 - (1.0 + math.sqrt(1.4)) / 2.0), 1e-12))
    x2 = perturbed_root(2.0, 3, 0.01)
    rows.append(_leq("perturbed_root[a=2,n=3,b=0.01]",
                     abs(x2 - 2.0 - 0.01 / 4.0), 1e-4))

    nl15 = make_nonlinearity("pow_exp", q=1.5)
    pr = predict_all(100.0, 2, nl15)
    rows.append(_leq("slope_prediction[u^1.5,gamma=100]",
                     abs(pr.Tprime_pred - 3.75), 1e-12))
    nl2 = make_nonlinearity("pow_exp", q=2.0)
    pr2 = predict_all(5.0, 2, nl2)
    rows.append(_leq("zero_prediction[u^2,gamma=5]",
                     abs(pr2.T_pred - (math.log(5.0) + 1.5)), 1e-12))

    # prediction errors shrink along a short amplitude ladder
    gs = np.geomspace(20.0, 200.0, 6)
    errTs = []
    errTp = []
    for g in gs:
        out = shoot(nl15, 2, float(g), _CFG)
        p = predict_all(float(g), 2, nl15)
        errTs.append(abs(out.T - p.T_pred))
        errTp.append(abs(t_prime(nl15, 2, float(g), _CFG) - p.Tprime_pred))
    half = len(gs) // 2
    norm = [e * eval_g(nl15, float(g), 1) / math.log(eval_g(nl15, float(g), 1)) ** 2
            for e, g in zip(errTs, gs)]
    upper = norm[half:]
    rows.append(_leq("zero_error_normalized_spread[u^1.5]",
                     max(upper) / min(upper), 10.0))
    drops = all(b < a for a, b in zip(errTp[half:], errTp[half + 1:]))
    rows.append(CheckRow(name="slope_error_decreasing[u^1.5]",
                         value=float(errTp[-1]), bound=float(errTp[half]),
                         passed=drops and errTp[-1] < errTp[half]))
    return SuiteReport(suite="asymptotics", rows=rows)


def suite_regimes() -> SuiteReport:
    rows = []
    expected = {0.3: "diverges_up", 1.0: "bounded", 2.0: "diverges_down"}
    for p, want in expected.items():
        nl = make_nonlinearity("pow_exp", q=2.0, p=p, n=2)
        rep = classify_small_gamma(nl, 2, cfg=_CFG)
        rows.append(CheckRow(name=f"small_amplitude_regime[p={p:g}->{want}]",
                             value=rep.spread, bound=0.75,
                             passed=rep.verdict == want))
    return SuiteReport(suite="regimes", rows=rows)


_RUNNERS = {
    "identities": suite_identities,
    "oracles": suite_oracles,
    "asymptotics": suite_asymptotics,
    "regimes": suite_regimes,
}


def run_suite(name: str) -> SuiteReport:
    if name not in _RUNNERS:
        raise QShootError(f"unknown suite {name!r}; pick from {SUITES}")
    return _RUNNERS[name]()


def run_suites(names=SUITES):
    return [run_suite(name) for name in names]
