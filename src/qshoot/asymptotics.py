"""Closed-form tail values and asymptotic predictions.

Everything here is a pure function of (gamma, n, nl) and marches no
trajectory. Freezing the exponent at gamma gives the comparison
solution z, and its gamma-derivative V2; the GammaSnapshot of one
(nl, n, gamma) holds both, and every tail start, tail integral and
prediction reads them from there. The central change of scale
is x = (T1 - t)/(n - 1) with X = e^x; all expressions are evaluated through
x itself (softplus / logistic) because T1 grows like g(gamma) and X
overflows long before the formulas stop being meaningful.

The multiplier lam is folded into the exponent throughout: shifting
g -> g + log(lam) shifts the first zero by log(lam) and leaves every
derivative quantity unchanged, so T1, T0 and the predictions below all use
log f(gamma) rather than bare g(gamma).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from fractions import Fraction

from ._stable import sigma, softplus
from .config import check_dimension
from .errors import AdmissionError, ConfigError
from .nonlinearity import Nonlinearity, eval_g, exploratory

__all__ = [
    "GammaSnapshot", "AsymptoticPrediction", "snapshot", "harmonic",
    "comparison_z", "psi_eval", "predict_all", "tail_power_integral",
    "turning_integrals", "perturbed_root", "error_decay_report",
    "z_ode_log_residual", "DecayReport",
]


@functools.cache
def harmonic(k: int) -> float:
    """k-th harmonic number 1 + 1/2 + ... + 1/k.

    The first call for each k validates, in exact rational arithmetic, the
    two alternating-binomial identities the closed-form tail integrals
    depend on (a failure raises and is not cached):

        -sum_{r=1..k} (-1)^r C(k,r)/r       == H_k
        sum_{r=0..k} (-1)^r C(k,r)/(r+2)    == 1/((k+1)(k+2))
    """
    if k != int(k) or k < 1:
        raise ConfigError(f"harmonic index must be a positive integer, got {k}")
    k = int(k)
    h = sum(Fraction(1, i) for i in range(1, k + 1))
    alt = -sum(Fraction((-1) ** r * math.comb(k, r), r) for r in range(1, k + 1))
    if alt != h:
        raise ArithmeticError(f"alternating-binomial identity failed at k={k}")
    pair = sum(Fraction((-1) ** r * math.comb(k, r), r + 2) for r in range(k + 1))
    if pair != Fraction(1, (k + 1) * (k + 2)):
        raise ArithmeticError(f"paired-denominator identity failed at k={k}")
    return float(h)


@dataclass(frozen=True)
class GammaSnapshot:
    """The comparison solution at a single gamma, and everything the closed
    forms need there.

    g is the full source exponent log f(gamma) (multiplier included); gp
    and gpp are plain derivatives of g(u) at gamma. The methods take a float
    t and return floats.
    """

    gamma: float
    n: int
    g: float
    gp: float
    gpp: float
    alpha_n: float
    T1: float
    T0: float

    @property
    def c(self) -> float:
        """Tail slope scale n/((n-1) g')."""
        return self.n / ((self.n - 1.0) * self.gp)

    @property
    def S0(self) -> float:
        """Zero of V2: T1 - (n-1) log(n-1)."""
        return self.T1 - (self.n - 1.0) * math.log(self.n - 1.0)

    @property
    def S_pred(self) -> float | None:
        """Predicted turning point T1 + (n-1) log((n-1) g''/(g')^2), None
        when g'' <= 0."""
        if self.gpp <= 0.0:
            return None
        return self.T1 + (self.n - 1.0) * math.log(
            (self.n - 1.0) * self.gpp / self.gp_squared())

    def gp_squared(self) -> float:
        """(g')^2 as a divisor: AdmissionError if it overflows or is 0."""
        sq = checked_pow(self.gp, 2, self.gamma)
        if sq == 0.0:
            raise AdmissionError(f"(g')^2 underflows at gamma={self.gamma}")
        return sq

    def x(self, t: float) -> float:
        """Tail variable x = (T1 - t)/(n-1)."""
        return (self.T1 - t) / (self.n - 1.0)

    def _terms(self, t: float) -> tuple:
        """x, the logistic pair sigma(x), sigma(-x), and z', z'', V2' built
        on that pair; z, v2 and slopes all read them from here."""
        x = self.x(t)
        sp, sm = sigma(x), sigma(-x)
        c, n1 = self.c, self.n - 1.0
        return x, sp, sm, c * sp, -c / n1 * sp * sm, self.n / n1 ** 2 * sp * sm

    def slopes(self, t: float) -> tuple:
        """z', z'' and V2' (see z and v2), from one x and one pair."""
        return self._terms(t)[3:]

    def z(self, t: float) -> tuple:
        """Comparison solution z, z', z''. It solves the equation with the
        exponent linearized at gamma, so it is exact when g is linear:
            z   = gamma - (n/g') softplus(x)
            z'  = c sigma(x)
            z'' = -(c/(n-1)) sigma(x) sigma(-x)
        """
        x, _, _, zp, zpp, _ = self._terms(t)
        return self.gamma - (self.n / self.gp) * softplus(x), zp, zpp

    def v2(self, t: float) -> tuple:
        """Gamma-derivative V2 of the comparison solution, V2', V2'':
            V2   = -1/(n-1) + (n/(n-1)) sigma(-x)
            V2'  = (n/(n-1)^2) sigma(x) sigma(-x)
            V2'' = (n/(n-1)^3) sigma(x) sigma(-x) (1 - 2 sigma(-x))
        """
        n = self.n
        _, sp, sm, _, _, v2p = self._terms(t)
        v2 = -1.0 / (n - 1.0) + n / (n - 1.0) * sm
        v2pp = n / (n - 1.0) ** 3 * sp * sm * (1.0 - 2.0 * sm)
        return v2, v2p, v2pp


def snapshot(nl: Nonlinearity, n: int, gamma: float) -> GammaSnapshot:
    """The GammaSnapshot of (nl, n, gamma); AdmissionError when a field
    leaves the finite doubles."""
    check_dimension(n)
    if not math.isfinite(gamma):
        raise ConfigError(f"gamma must be finite, got {gamma}")
    if gamma <= 0.0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    try:
        g = eval_g(nl, gamma, 0) + math.log(nl.lam)
        gp = eval_g(nl, gamma, 1)
        gpp = eval_g(nl, gamma, 2)
        if gp <= 0.0:
            raise AdmissionError(f"g'({gamma}) = {gp} is not positive")
        T1 = g + (n - 1.0) * math.log((n - 1.0) * gp / n)
        # T0 = T1 - ((n-1)/n) gamma g' - (n-1) log(1 - e^{-gamma g'/n})
        T0 = T1 - (n - 1.0) / n * gamma * gp \
            - (n - 1.0) * math.log(-math.expm1(-gamma * gp / n))
    except (ArithmeticError, ValueError) as exc:
        raise AdmissionError(f"closed forms leave double range at "
                             f"gamma={gamma}: {exc}") from None
    s = GammaSnapshot(gamma=float(gamma), n=int(n), g=g, gp=gp, gpp=gpp,
                      alpha_n=harmonic(n), T1=T1, T0=T0)
    bad = [f.name for f in fields(s) if not math.isfinite(getattr(s, f.name))]
    if bad:
        raise AdmissionError(f"closed forms leave double range at "
                             f"gamma={gamma}: {', '.join(bad)} not finite")
    return s


def checked_pow(x: float, k: float, gamma: float) -> float:
    """x ** k for a closed form at gamma; AdmissionError when it overflows."""
    try:
        return x ** k
    except OverflowError as exc:
        raise AdmissionError(f"closed forms leave double range at "
                             f"gamma={gamma}: {exc}") from None


def comparison_z(gamma: float, n: int, nl: Nonlinearity, t: float) -> tuple:
    """The tail comparison solution z(t) and its derivative."""
    return snapshot(nl, n, gamma).z(t)[:2]


def z_ode_log_residual(gamma: float, n: int, nl: Nonlinearity, ts) -> list:
    """Relative mismatch between -((z')^{n-1})' and the linearized source
    at each t of ts, from one snapshot.

    Both sides are positive, so the comparison runs in log space:
    |exp(logLHS - logRHS) - 1| is the relative residual without overflow.
    """
    s = snapshot(nl, n, gamma)
    out = []
    for t in ts:
        x = s.x(t)
        log_lhs = (n - 1.0) * math.log(s.c) \
            - (n - 1.0) * softplus(-x) - softplus(x)
        log_rhs = s.g + s.gp * (s.z(t)[0] - gamma) - t
        out.append(abs(math.expm1(log_lhs - log_rhs)))
    return out


def psi_eval(gamma: float, n: int, nl: Nonlinearity, theta: float) -> float:
    """Exponent comparison function used by the convexity argument:
    psi(theta) = g(theta) - g(gamma) + ((n-1)/n)(gamma-theta) g'(gamma)
                 - (n-1) log(((n-1)/n) g'(gamma)).
    The multiplier cancels in the difference."""
    gp = eval_g(nl, gamma, 1)
    if gp <= 0.0:
        raise AdmissionError(f"g'({gamma}) = {gp} is not positive")
    return (eval_g(nl, theta, 0) - eval_g(nl, gamma, 0)
            + (n - 1.0) / n * (gamma - theta) * gp
            - (n - 1.0) * math.log((n - 1.0) / n * gp))


def tail_power_integral(k: int, gamma: float, n: int, nl: Nonlinearity,
                        t: float) -> float:
    """Closed form of the tail integral of (z')^{k+1} from t to infinity:

        c^{k+1} (n-1) [ -H_k + log(1+X) - sum_{r=1..k} (-1)^r C(k,r)/(r (1+X)^r) ]

    with c = n/((n-1) g') and X = e^{(T1-t)/(n-1)}. The (n-1) factor comes
    from the substitution ds = -(n-1) dx.

    The bracket is an alternating sum of O(1) terms; deep in the tail
    (X << 1) it cancels down to O(X^{k+1}), costing about (k+1) log10(1/X)
    digits. Accurate where the expansions use it (k < n, t - T1 moderate).
    """
    if k != int(k) or k < 1:
        raise ConfigError(f"power index k must be a positive integer, got {k}")
    k = int(k)
    s = snapshot(nl, n, gamma)
    x = s.x(t)
    sm = sigma(-x)  # 1/(1+X)
    bracket = -harmonic(k) + softplus(x)
    for r in range(1, k + 1):
        bracket -= (-1) ** r * math.comb(k, r) / r * sm ** r
    return checked_pow(s.c, k + 1, gamma) * (n - 1.0) * bracket


def turning_integrals(gamma: float, n: int, nl: Nonlinearity, t: float):
    """Closed forms of the two comparison-linearization tail integrals and
    their weighted sum I = (g''/g') I1 + g'' I2, where

        I1 = integral of (z')^{n-2} z'' V2'   over (t, infinity)
        I2 = integral of (z')^n V2'           over (t, infinity).

    The constant in I1 is -1/(n(n+1)); both integrals vanish as t -> inf.
    """
    s = snapshot(nl, n, gamma)
    x = s.x(t)
    sp, sm = sigma(x), sigma(-x)
    br = -1.0 / (n * (n + 1.0))
    for r in range(n):
        br += (-1) ** r * math.comb(n - 1, r) / (r + 2.0) * sm ** (r + 2)
    i1 = s.gp / (n - 1.0) * checked_pow(s.c, n, gamma) * br
    i2 = s.gp / (n + 1.0) * checked_pow(s.c, n + 1, gamma) * sp ** (n + 1)
    return i1, i2, (s.gpp / s.gp) * i1 + s.gpp * i2


# Newton's relative step tolerance and iteration budget in perturbed_root
_NEWTON_TOL = 1e-14
_NEWTON_MAXIT = 80


def perturbed_root(a: float, n: int, b: float) -> float:
    """Root of x^n - a x^{n-1} - b = 0 near x = a, by damped Newton from a.

    The first Newton step from a is exactly a + b/a^{n-1}.
    """
    if a <= 0.0:
        raise ConfigError(f"a must be positive, got {a}")
    if n != int(n) or n < 1:
        raise ConfigError(f"n must be a positive integer, got {n}")
    n = int(n)
    if b == 0.0:
        return a

    def h(x):
        return x ** n - a * x ** (n - 1) - b

    def hp(x):
        return n * x ** (n - 1) - (n - 1.0) * a * x ** (n - 2)

    x = a
    for _ in range(_NEWTON_MAXIT):
        fx, dx = h(x), hp(x)
        if dx == 0.0:
            raise AdmissionError("Newton hit a flat spot; outside the basin")
        step = fx / dx
        xn = x - step
        # keep the iterate on the positive side of the degenerate root at 0
        damp = 0
        while xn <= 0.0 and damp < 60:
            step *= 0.5
            xn = x - step
            damp += 1
        if not math.isfinite(xn):
            raise AdmissionError("Newton diverged; outside the basin")
        if abs(xn - x) <= _NEWTON_TOL * max(1.0, abs(xn)):
            x = xn
            break
        x = xn
    else:
        raise AdmissionError(
            f"no convergence within {_NEWTON_MAXIT} iterations")
    if abs(h(x)) > 1e-8 * max(1.0, abs(b), a ** n):
        raise AdmissionError("Newton stalled away from a root; outside the basin")
    return x


@dataclass(frozen=True)
class AsymptoticPrediction:
    T_pred: float
    yprime_T_pred: float
    Tprime_pred: float


def predict_all(gamma: float, n: int, nl: Nonlinearity) -> AsymptoticPrediction:
    """Leading-order predictions for T, y'(T) and T'.

    T_pred = g - ((n-1)/n) gamma g' + (n-1) log(((n-1)/n) g')
             + alpha_n (n-1) gamma g''/g'
    yprime_T_pred = n/((n-1) g') + n^2 alpha_n g'' / ((n-1)(g')^3)
    Tprime_pred = (1/n)(g' - (n-1) gamma g'')

    The turning point prediction is GammaSnapshot.S_pred. The displayed
    (log g')^2/g' term of the T expansion is an order, not a computable
    coefficient, so it is excluded from T_pred and only used to normalize
    error-decay verdicts. The bounded correction A that appears
    when f(0) > 0 needs a computed trajectory and is not part of T_pred.
    """
    s = snapshot(nl, n, gamma)
    if s.gp <= 1.0:
        raise AdmissionError(
            f"predictions need g'(gamma) > 1, got {s.gp} at gamma={gamma}")
    t_lead = (s.g - (n - 1.0) / n * gamma * s.gp
              + (n - 1.0) * math.log((n - 1.0) / n * s.gp)
              + s.alpha_n * (n - 1.0) * gamma * s.gpp / s.gp)
    yprime = s.c + n * n * s.alpha_n * s.gpp \
        / ((n - 1.0) * checked_pow(s.gp, 3, gamma))
    tprime = (s.gp - (n - 1.0) * gamma * s.gpp) / n
    return AsymptoticPrediction(T_pred=t_lead, yprime_T_pred=yprime,
                                Tprime_pred=tprime)


@dataclass
class DecayReport:
    rows: list
    verdicts: dict
    span_ok: bool

    @property
    def bounded(self) -> bool:
        return all(v["bounded"] for v in self.verdicts.values())


# what error_decay_report judges, in report order
_JUDGED = ("T", "yprime_T", "Tprime")
# a verdict is "bounded" when its normalized errors stay within this factor
BOUND_FACTOR = 10.0


def error_decay_report(curve) -> DecayReport:
    """Raw and normalized prediction errors along a gamma ladder.

    Each solved row of the curve is compared with predict_all at its own
    gamma, n and nl. For each of T, y'(T) and T' (when the curve has it)
    the raw error is divided by the claimed error order (see predict_all);
    the verdict is "bounded" when the normalized errors over the upper
    half of the grid stay within BOUND_FACTOR of each other.
    Asymptotic claims say nothing at small gamma, so the lower half is
    reported but not judged.
    """
    nl, n = curve.nl, curve.n
    if nl.linear or exploratory(nl, n):
        raise ConfigError(
            "decay comparison refused: input outside the standing hypotheses")
    good = [o for o in curve.outcomes if o.T is not None]
    if len(good) < 4:
        raise ConfigError("need at least 4 gamma points for a decay verdict")
    gammas = [o.gamma for o in good]
    span_ok = max(gammas) / min(gammas) >= 10.0

    rows = []
    for i, out in enumerate(curve.outcomes):
        if out.T is None:
            continue
        gam = out.gamma
        pred = predict_all(gam, n, nl)
        gp = eval_g(nl, gam, 1)
        gpp = eval_g(nl, gam, 2)
        dlt = math.log(gp)
        claimed = {
            "T": dlt * dlt / gp,
            "yprime_T": dlt * dlt * gpp / gp ** 4 + math.exp(-gam * gp / n) / gp,
            "Tprime": gpp * dlt ** 4 / gp,
        }
        tp = curve.tprime_v1[i] if curve.tprime_v1 is not None else None
        computed = {"T": out.T, "yprime_T": out.yprime_T, "Tprime": tp}
        predicted = {"T": pred.T_pred, "yprime_T": pred.yprime_T_pred,
                     "Tprime": pred.Tprime_pred}
        for qn in _JUDGED:
            if computed[qn] is None:
                continue
            raw = abs(computed[qn] - predicted[qn])
            den = claimed[qn]
            rows.append({
                "gamma": gam, "gprime": gp, "Q": qn,
                "computed": computed[qn], "predicted": predicted[qn],
                "raw_err": raw,
                "normalized_err": raw / den if den > 0 else math.inf,
            })

    verdicts = {}
    for qn in _JUDGED:
        sub = [r for r in rows if r["Q"] == qn]
        if not sub:
            continue
        upper = sub[len(sub) // 2:]
        vals = [r["normalized_err"] for r in upper]
        ok = (all(math.isfinite(v) for v in vals) and min(vals) > 0.0
              and max(vals) / min(vals) <= BOUND_FACTOR)
        verdicts[qn] = {
            "bounded": ok,
            "max_over_min": (max(vals) / min(vals)
                             if vals and min(vals) > 0 else math.inf),
        }
    return DecayReport(rows=rows, verdicts=verdicts, span_ok=span_ok)
