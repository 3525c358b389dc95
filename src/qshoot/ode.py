"""Event-detecting integration of the radial problem in flux form.

One marching core (`_march`) serves both coordinate setups of the same
equation. It drives the in-repo DOPRI5(4) stepper (`_dopri`: the
Dormand-Prince pair with Shampine's dense output under RK45's control law),
which ends the march with a genuine step onto the stop level. It finds the
convexity floor crossing on the dense output, raises with the last accepted
state when the march fails or misses its stop, and assembles the
Trajectory. Each setup only supplies its start state, its span and one
right-hand side, which appends the linearization block (the derivative of
the flow with respect to gamma; see the linearization module) when asked:

  t-route   y' = psi^{1/(n-1)}, psi' = -f(y) e^{-t}, integrated backwards in
            the log-radius variable t from a tail start down to the first
            zero of y. The flux psi = (y')^{n-1} is the state variable, which
            removes the |y'|^{n-2} degeneracy. Channel: (V1, phi).

  r-route   w' from Phi = r^{n-1}|w'|^{n-2} w', Phi' = -f(w) r^{n-1-beta},
            marched outward from a series startup at r0. beta > 0 covers the
            singular-weight problem directly. Channel: (W, chi).

Both march until y (or w) lands on a plain stop level, 0 for the first
zero; the t-route gives up at a `floor` in t, the r-route at a radius
`r_end` (R_MAX unless given). Trajectory.stop_readout maps the stop of
either route to the log-radius variable, r = n e^{-t/n}. The dimension n is
each call's argument, checked by config.check_dimension.

Tolerance policy: scalar absolute tolerance on the solution value, but a
purely relative control on the flux. The flux spans many orders of magnitude
along the tail and an absolute floor there shows up as spurious wiggle in
the energy monitor at the 1e-8 level; relative control keeps the energy
monotone to better than 1e-11 of its natural scale.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .asymptotics import snapshot
from .config import ProblemConfig, check_dimension
from .errors import (AdmissionError, ConfigError, EventNotFoundError,
                     SolverError)
from .nonlinearity import (Nonlinearity, convexity_floor, eval_fprime_source,
                           eval_g, eval_source, g_is_linear, log_f)
# unused here: bound only so perfbench/tracer.py can wrap it as a span
from scipy.integrate import solve_ivp  # noqa: F401

# pure relative control on the flux component (see module docstring)
_PSI_ATOL = 1e-300
# abscissa tolerance of the located stop and floor crossings
EVENT_TOL = 1e-12
# radius where the outward march gives up looking for its stop
R_MAX = 1e5


# finite overflow sentinel: a capped slope or source blows up the trial
# step's error norm, so the stepper rejects and shrinks that step. The
# radius-route budget below is read off it, hence it stays at 1e100.
_SOURCE_CAP = 1e100
# largest log of a legitimate radius-route source or slope: both peak at the
# startup or stay below f(gamma), so the clamps then only cut trial steps
_LOG_CAP = math.log(_SOURCE_CAP) - 10.0


def _source_soft(nl, y, t):
    """Source term for integrator right-hand sides: an overflowing trial
    step reports a huge value so the stepper rejects and shrinks it."""
    try:
        return min(eval_source(nl, y, t), _SOURCE_CAP)
    except OverflowError:
        return _SOURCE_CAP


def _fprime_soft(nl, y, t):
    try:
        return _clamp(eval_fprime_source(nl, y, t))
    except OverflowError:
        return _SOURCE_CAP


def _clamp(v: float) -> float:
    return min(max(v, -_SOURCE_CAP), _SOURCE_CAP)


@dataclass(frozen=True)
class StateT:
    t: float
    y: float
    psi: float


# y' depends on n, so it cannot live on the state itself
def yprime_from_psi(psi: float, n: int) -> float:
    return psi ** (1.0 / (n - 1.0)) if psi > 0.0 else 0.0


def v1prime_from_phi(phi: float, psi: float, n: int) -> float:
    """V1' from the channel flux phi = (y')^{n-2} V1' and psi = (y')^{n-1}."""
    return phi if n == 2 else \
        phi / max(psi, _PSI_ATOL) ** ((n - 2.0) / (n - 1.0))


@dataclass(frozen=True)
class StateR:
    r: float
    w: float
    Phi: float


def _t_of_r(r: float, n: int) -> float:
    return -n * math.log(r / n)


def wprime_from_Phi(Phi: float, r: float, n: int) -> float:
    if r <= 0.0 or Phi == 0.0:
        return 0.0
    mag = (abs(Phi) / r ** (n - 1.0)) ** (1.0 / (n - 1.0))
    return math.copysign(mag, Phi)


@dataclass
class Trajectory:
    """Accepted samples of one integration plus its dense interpolant.

    For kind "t" the state columns are (y, psi) and, with the linearization
    channel, (y, psi, V1, phi). For kind "r" they are (w, Phi) or
    (w, Phi, W, chi). `ts` holds the abscissae in integration order:
    decreasing for the t-route, increasing for the r-route. `stop` is where
    the march landed on its level and `s0` where it crossed the tracked
    convexity floor (None without a crossing), both in the marching
    variable.
    """

    kind: str
    n: int
    nl: Nonlinearity
    ts: np.ndarray
    states: np.ndarray
    dense: Callable
    stop: float
    s0: Optional[float] = None
    lin: bool = False
    diagnostics: dict = field(default_factory=dict)

    def span(self) -> tuple:
        a, b = float(self.ts[0]), float(self.ts[-1])  # ts is monotone
        return (a, b) if a <= b else (b, a)

    def state_at(self, x: float) -> np.ndarray:
        lo, hi = self.span()
        return np.asarray(self.dense(min(max(x, lo), hi)), dtype=float)

    def yprime_at(self, t: float) -> float:
        s = self.state_at(t)
        if self.kind == "t":
            return yprime_from_psi(float(s[1]), self.n)
        return wprime_from_Phi(float(s[1]), t, self.n)

    def t_bounds(self) -> tuple:
        """Covered t-interval regardless of the marching variable."""
        lo, hi = self.span()
        if self.kind == "t":
            return lo, hi
        return _t_of_r(hi, self.n), _t_of_r(lo, self.n)

    def yprime_t(self, t: float) -> float:
        """dy/dt at t; for r-kind data this is -(r/n) dw/dr at r = n e^{-t/n}."""
        if self.kind == "t":
            return self.yprime_at(t)
        n = self.n
        lo, hi = self.span()
        r = min(max(n * math.exp(-t / n), lo), hi)
        return -(r / n) * self.yprime_at(r)

    def stop_readout(self) -> tuple:
        """(T, y'(T), Ttilde, state at the stop) in the log-radius variable,
        whichever route marched. Ttilde is None without a floor crossing."""
        x, xs0 = self.stop, self.s0
        if self.kind == "t":
            return x, self.yprime_at(x), xs0, self.state_at(x)
        n = self.n
        return (_t_of_r(x, n), -(x / n) * self.yprime_at(x),
                _t_of_r(xs0, n) if xs0 is not None else None,
                self.state_at(x))


def _tail_site(nl: Nonlinearity, n: int, gamma: float, c_tail: float,
               beta_weight: float, s0w: float | None = None):
    """Tail start state at t_start = T1 + c_tail (n-1) log g', and its
    snapshot. The one home of the t-route admission rules, each refusal an
    AdmissionError naming its reason; `s0w` is the floor if already known."""
    if nl.linear:
        raise AdmissionError("tail expansion needs the exponential form")
    if beta_weight != 0.0:
        raise AdmissionError("tail expansion needs the unweighted problem; "
                             "reduce the weighted one first")
    if s0w is None:
        s0w = convexity_floor(nl)
    if not math.isfinite(s0w):
        raise AdmissionError("no convexity floor; tail expansion inapplicable")
    if gamma <= s0w:
        raise AdmissionError(f"gamma={gamma} below the convexity floor {s0w:.3g}")
    s = snapshot(nl, n, gamma)
    exact = g_is_linear(nl)
    if exact:
        # comparison solution solves the full equation; any start works,
        # push it above T1 only as far as g' > 1 allows
        t_start = s.T1 + c_tail * (n - 1.0) * max(math.log(s.gp), 0.0)
    else:
        if s.gp <= 1.0:
            raise AdmissionError(
                f"tail start needs g'(gamma) > 1, got {s.gp:.3g}")
        if c_tail * math.log(s.gp) < 3.0:
            raise AdmissionError(
                "tail remainder too large: c_tail * log g' < 3")
        t_start = s.T1 + c_tail * (n - 1.0) * math.log(s.gp)
    z0, zp0, _ = s.z(t_start)
    if z0 <= max(s0w, 0.25 * gamma):
        raise AdmissionError(
            f"tail value z(t_start)={z0:.3g} too far below gamma={gamma}")
    return StateT(t=t_start, y=z0, psi=zp0 ** (n - 1.0)), s


def tail_start(nl: Nonlinearity, n: int, gamma: float,
               cfg: ProblemConfig = ProblemConfig()) -> StateT:
    """Initial state for the backward t-route march, read off the comparison
    solution at t_start = T1 + c_tail (n-1) log g'."""
    return _tail_site(nl, n, gamma, cfg.c_tail, cfg.beta_weight)[0]


def tail_admissible(nl: Nonlinearity, n: int, gamma: float,
                    cfg: ProblemConfig) -> bool:
    try:
        _tail_site(nl, n, gamma, cfg.c_tail, cfg.beta_weight)
        return True
    except ConfigError:
        return False


def tail_refinement_delta(nl: Nonlinearity, n: int, gamma: float,
                          cfg: ProblemConfig = ProblemConfig()) -> dict:
    """One Picard pass of the integral equation over the tail window,
    reported as a diagnostic of the start-state error.

    psi_1(t) = int_t^inf f(z) e^{-s} ds,  y_1 = gamma - int psi_1^{1/(n-1)}.
    The window is [t_start, t_start + 40(n-1)]; the remainder beyond it is
    taken from the closed forms.
    """
    st, s = _tail_site(nl, n, gamma, cfg.c_tail, cfg.beta_weight)
    t0, hi = st.t, st.t + 40.0 * (n - 1.0)

    def psi1(t):
        val, _ = quad(lambda u: eval_source(nl, s.z(u)[0], u), t, hi, limit=200)
        return val + math.exp(s.g - hi)  # source ~ f(gamma) e^{-s} past the window

    y_int, _ = quad(lambda u: psi1(u) ** (1.0 / (n - 1.0)), t0, hi, limit=100)
    y1 = s.z(hi)[0] - y_int  # z itself past the window
    return {"delta_y": abs(y1 - st.y), "delta_psi": abs(psi1(t0) - st.psi),
            "t_start": t0, "window": 40.0 * (n - 1.0)}


# weights of the stages in the last coefficient of Shampine's dense output
# (Hairer, Norsett & Wanner, II.6, as in their DOPRI5)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


def _dp_step(rhs, t, y, k1, h, rtol, atol):
    """One Dormand-Prince step of length h from (t, y), k1 = rhs(t, y): the
    new state, the seven stages (the last is rhs there) and the RMS error
    norm over atol + rtol max(|y|, |y_new|), inf or NaN to fail the step."""
    k2 = rhs(t + 0.2 * h, [u + h * (0.2 * a) for u, a in zip(y, k1)])
    k3 = rhs(t + 0.3 * h, [u + h * (3 / 40 * a + 9 / 40 * b)
                           for u, a, b in zip(y, k1, k2)])
    k4 = rhs(t + 0.8 * h, [u + h * (44 / 45 * a - 56 / 15 * b + 32 / 9 * c)
                           for u, a, b, c in zip(y, k1, k2, k3)])
    k5 = rhs(t + 8 / 9 * h, [
        u + h * (19372 / 6561 * a - 25360 / 2187 * b + 64448 / 6561 * c
                 - 212 / 729 * d)
        for u, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + h, [
        u + h * (9017 / 3168 * a - 355 / 33 * b + 46732 / 5247 * c
                 + 49 / 176 * d - 5103 / 18656 * e)
        for u, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [u + h * (35 / 384 * a + 500 / 1113 * c + 125 / 192 * d
                      - 2187 / 6784 * e + 11 / 84 * f)
             for u, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    k7 = rhs(t + h, y_new)
    err = math.hypot(*[h * (-71 / 57600 * a + 71 / 16695 * c - 71 / 1920 * d
                            + 17253 / 339200 * e - 22 / 525 * f + g / 40)
                       / (at + max(abs(u), abs(v)) * rtol)
                       for u, v, a, c, d, e, f, g, at
                       in zip(y, y_new, k1, k3, k4, k5, k6, k7, atol)])
    return y_new, (k1, k2, k3, k4, k5, k6, k7), err / math.sqrt(len(y))


def _at(c, x):
    """A `DenseOutput.quartics` entry at the fraction x of its step."""
    w = 1.0 - x
    return c[0] + x * (c[1] + w * (c[2] + x * (c[3] + w * c[4])))


def _crosses(g, g_new) -> bool:
    """A level met on a step whose ends sit g and g_new above it."""
    return g_new <= 0.0 if g > 0.0 else g_new >= 0.0


class DenseOutput:
    """Piecewise quartic interpolant over the accepted steps of one march.
    It keeps each step's ends and stages and builds the step's quartic when
    first evaluated. A node belongs to the step ending there."""

    def __init__(self, ts, ys, stages):
        self.ts, self.ys, self.stages = ts, ys, stages
        self._sign = 1.0 if ts[-1] >= ts[0] else -1.0
        self._keys = [self._sign * t for t in ts]
        self._quartics = {}

    def quartics(self, i):
        """Shampine's quartic per component of step i, as `_at` reads it."""
        if i not in self._quartics:
            K, h = self.stages[i], self.ts[i + 1] - self.ts[i]
            q = self._quartics[i] = []
            for c, (u0, u1) in enumerate(zip(self.ys[i], self.ys[i + 1])):
                dy = u1 - u0
                b = h * K[0][c] - dy
                q.append((u0, dy, b, dy - h * K[6][c] - b,
                          h * sum(d * k[c] for d, k in zip(_D, K))))
        return self._quartics[i]

    def __call__(self, x) -> np.ndarray:
        x, ts = float(x), self.ts
        i = min(max(bisect_left(self._keys, self._sign * x) - 1, 0),
                len(self.stages) - 1)
        frac = (x - ts[i]) / (ts[i + 1] - ts[i])
        return np.array([_at(c, frac) for c in self.quartics(i)])

    def crossing(self, level, xtol):
        """First abscissa where y[0] meets `level`, or None. An end of the
        crossing step that rounding leaves on the start's side is the root."""
        ts, ys = self.ts, self.ys
        for i in range(len(self.stages)):
            if _crosses(ys[i][0] - level, ys[i + 1][0] - level):
                c, h = self.quartics(i)[0], ts[i + 1] - ts[i]
                if not _crosses(c[0] - level, _at(c, 1.0) - level):
                    return ts[i + 1]
                return ts[i] + h * float(brentq(
                    lambda x: _at(c, x) - level, 0.0, 1.0, xtol=xtol / abs(h)))
        return None

    def land(self, rhs, level, xtol, tols, counts):
        """Where y[0] meets `level` on the last step, after replacing that
        step by one ending there: Newton on its length from the crossing on
        the quartic, kept inside the step. If Newton leaves it (y' vanishing)
        or a step fails the error test (a source exploding there), it stays."""
        stop = self.crossing(level, xtol)
        t, y, f = self.ts[-2], self.ys[-2], self.stages[-1][0]
        h, h_acc = stop - t, self.ts[-1] - t
        for _ in range(8):
            t_new = t + h
            h = t_new - t
            y_new, K, err = _dp_step(rhs, t, y, f, h, *tols)
            counts["nfev"] += 6
            counts["landing"] += 1
            miss = y_new[0] - level
            h_next = h - miss / K[6][0] if K[6][0] else math.nan
            if not (err < 1.0 and 0.0 < h_next / h_acc <= 1.0):
                break
            if abs(h_next - h) <= xtol:
                self.ts[-1], self.ys[-1], self.stages[-1] = t_new, y_new, K
                self._quartics.pop(len(self.stages) - 1, None)
                counts["landed"] = True
                return t_new
            h = h_next
        return stop


def _dopri(rhs, t, y, t_end, rtol, atol, level=None, xtol=0.0):
    """DOPRI5(4) march of y' = rhs(t, y) from t towards t_end under RK45's
    control law (initial step, safety 0.9, factors in [0.2, 10], none above
    1 after a rejection, failure below 10 ulp(t)): the dense output, where
    y[0] met `level` (None if not; see `land`), and the counters."""
    sign, span = (1.0 if t_end > t else -1.0), abs(t_end - t)
    f = rhs(t, y)
    # initial step (Hairer, Norsett & Wanner, II.4)
    scale = [a + abs(u) * rtol for u, a in zip(y, atol)]
    d0, d1 = (math.hypot(*[u / s for u, s in zip(v, scale)])
              / math.sqrt(len(y)) for v in (y, f))
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = rhs(t + sign * h0, [u + sign * h0 * v for u, v in zip(y, f)])
    d2 = math.hypot(*[(b - a) / s for a, b, s in zip(f, f1, scale)]) \
        / math.sqrt(len(y)) / h0 if h0 else math.inf
    h_abs = min(100.0 * h0, span, max(1e-6, h0 * 1e-3)
                if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.2)
    ts, ys, stages = [t], [y], []
    counts = dict(status=0, nfev=2, rejected=0, landing=0, landed=False)
    g = None if level is None else y[0] - level
    while sign * (t - t_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, sign * math.inf) - t)
        h_abs, retry = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a NaN step fails too
                counts["status"] = -1
                return DenseOutput(ts, ys, stages), None, counts
            t_new = t + sign * h_abs
            if sign * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new, K, err = _dp_step(rhs, t, y, f, h, rtol, atol)
            counts["nfev"] += 6
            factor = 10.0 if err == 0.0 else 0.9 * err ** -0.2
            if err < 1.0:
                h_abs *= min(1.0 if retry else 10.0, factor)
                break
            # an infinite norm makes factor 0, a NaN one NaN: both give 0.2
            h_abs *= factor if factor > 0.2 else 0.2
            retry = True
            counts["rejected"] += 1
        ts.append(t_new)
        ys.append(y_new)
        stages.append(K)
        t, y, f = t_new, y_new, K[6]
        if g is not None:
            g_old, g = g, y[0] - level
            if _crosses(g_old, g):
                counts["status"], counts["landed"] = 1, g == 0.0
                break
    dense = DenseOutput(ts, ys, stages)
    if counts["status"] == 1 and not counts["landed"]:
        t = dense.land(rhs, level, xtol, (rtol, atol), counts)
    return dense, t if counts["status"] == 1 else None, counts


def _march(kind: str, nl: Nonlinearity, n: int, cfg: ProblemConfig, rhs,
           span: tuple, y0: list, level: float, track_s0: float | None,
           where: str, **diag) -> Trajectory:
    """The marching core of both routes: integrate `rhs` over `span` until
    the first component lands on `level`, and find the crossing of
    track_s0 on the dense output. A 4-component `y0` carries the
    linearization channel; `where` ends the miss message."""
    level = float(level)
    track = track_s0 is not None and track_s0 > 0.0 and math.isfinite(track_s0)
    atol = [cfg.atol, _PSI_ATOL] + [cfg.atol] * (len(y0) - 2)
    xtol = 0.5 * EVENT_TOL
    try:
        dense, stop, counts = _dopri(rhs, span[0], [float(v) for v in y0],
                                     span[1], cfg.rtol, atol, level, xtol)
    except OverflowError as exc:
        raise SolverError(f"source overflow during integration: {exc}") from exc
    ts, ys = dense.ts, dense.ys
    last = (StateT if kind == "t" else StateR)(ts[-1], *ys[-1][:2])
    if counts["status"] == -1:
        raise SolverError("integrator failed: Required step size is less "
                          "than spacing between numbers.", last_state=last)
    if stop is None:
        var = "y" if kind == "t" else "w"
        raise EventNotFoundError(f"no crossing of {var}={level} {where}",
                                 last_state=last)
    diag = {"route": kind, "steps": len(ts) - 1, **counts, **diag}
    return Trajectory(kind=kind, n=n, nl=nl, ts=np.array(ts),
                      states=np.array(ys), dense=dense, stop=stop,
                      s0=dense.crossing(track_s0, xtol) if track else None,
                      lin=len(y0) == 4, diagnostics=diag)


def integrate_t(nl: Nonlinearity, n: int, start: StateT,
                cfg: ProblemConfig = ProblemConfig(), *, level: float = 0.0,
                floor: float | None = None, lin: bool = False,
                lin_init: tuple = (1.0, 0.0),
                track_s0: float | None = None) -> Trajectory:
    """March the flux system backwards in t from `start` until y lands on
    `level`, giving up at `floor` (far below the start unless given);
    `lin_init` seeds (V1, phi) when the channel is attached."""
    check_dimension(n, cfg.beta_weight)
    ex = 1.0 / (n - 1.0)
    exd = (n - 2.0) / (n - 1.0)

    def rhs(t, u):
        y, psi = u[0], u[1]
        yp = psi ** ex if psi > 0.0 else 0.0
        du = (min(yp, _SOURCE_CAP), -_source_soft(nl, y, t))
        if not lin:
            return du
        v1, phi = u[2], u[3]
        dv1 = phi if n == 2 else _clamp(phi / max(psi, _PSI_ATOL) ** exd)
        return du + (dv1, _clamp(-_fprime_soft(nl, y, t) * v1 / (n - 1.0)))

    if floor is None:
        floor = start.t - max(1000.0, 4.0 * abs(start.t) + 400.0 * (n - 1.0))
    if floor >= start.t:
        raise ConfigError(f"stop floor {floor} not below start {start.t}")
    y0 = [start.y, start.psi] + (list(lin_init) if lin else [])
    return _march("t", nl, n, cfg, rhs, (start.t, floor), y0, level,
                  track_s0, f"above the floor t={floor}", t_start=start.t)


def series_startup_radius(nl: Nonlinearity, n: int, gamma: float,
                          cfg: ProblemConfig) -> float:
    fg = _f_at(nl, gamma)
    return min(1e-3, (cfg.rtol * n / fg) ** ((n - 1.0) / n))


def _f_at(nl: Nonlinearity, gamma: float) -> float:
    lf = log_f(nl, gamma)
    if lf > _LOG_CAP:
        raise AdmissionError(
            f"log f(gamma) = {lf:.3g} exceeds the exponent budget "
            f"{_LOG_CAP:.3g}; the radius route cannot start")
    return math.exp(lf)


def integrate_r(nl: Nonlinearity, n: int, gamma: float,
                cfg: ProblemConfig = ProblemConfig(), *, level: float = 0.0,
                r_end: float = R_MAX, lin: bool = False,
                track_s0: float | None = None) -> Trajectory:
    """March the weighted flux system outward in r from a series startup
    until w lands on `level`, giving up at the radius `r_end`.

    The startup radius keeps the next series term below the step tolerance:
    w = gamma - ((n-1)/(n-b)) (f(gamma)/(n-b))^{1/(n-1)} r^{(n-b)/(n-1)},
    Phi = -f(gamma) r^{n-b}/(n-b), with b the singular weight exponent.
    """
    check_dimension(n, cfg.beta_weight)
    if gamma <= 0.0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    b = cfg.beta_weight
    if lin and b != 0.0:
        raise AdmissionError("linearized flow not wired for the weighted "
                             "problem; reduce it first")
    nb = n - b
    fg = _f_at(nl, gamma)
    r0 = series_startup_radius(nl, n, gamma, cfg)
    w0 = gamma - (n - 1.0) / nb * (fg / nb) ** (1.0 / (n - 1.0)) \
        * r0 ** (nb / (n - 1.0))
    Phi0 = -fg * r0 ** nb / nb
    y0 = [w0, Phi0]
    if lin:
        fp0 = eval_fprime_source(nl, gamma, 0.0)
        chi0 = -fp0 * r0 ** nb / (nb * (n - 1.0))
        # second series term of dw/dgamma; exact for the linear family
        W0 = 1.0 - fp0 / (n * nb) * (fg / nb) ** ((2.0 - n) / (n - 1.0)) \
            * r0 ** (nb / (n - 1.0))
        y0 += [W0, chi0]

    ex = 1.0 / (n - 1.0)
    exd = (n - 2.0) / (n - 1.0)

    def rhs(r, u):
        w, Phi = u[0], u[1]
        aPhi = max(-Phi, 0.0)
        wp = -((aPhi / r ** (n - 1.0)) ** ex) if aPhi > 0.0 else 0.0
        du = (max(wp, -_SOURCE_CAP),
              _clamp(-_source_soft(nl, w, 0.0) * r ** (nb - 1.0)))
        if not lin:
            return du
        W, chi = u[2], u[3]
        dW = _clamp(chi / r if n == 2
                    else chi / (r * max(aPhi, _PSI_ATOL) ** exd))
        return du + (dW, _clamp(-_fprime_soft(nl, w, 0.0) * W
                                * r ** (nb - 1.0) / (n - 1.0)))

    if max(map(abs, rhs(r0, y0))) > math.exp(_LOG_CAP):
        raise AdmissionError("radius-route startup slope or source beyond "
                             "the overflow sentinel's budget")
    if r_end <= r0:
        raise ConfigError(f"stop radius {r_end} not beyond startup {r0}")
    return _march("r", nl, n, cfg, rhs, (r0, r_end), y0, level, track_s0,
                  f"inside r <= {r_end}", r0=r0)


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    E: float
    scale: float


def energy_series(traj: Trajectory, nl: Nonlinearity | None = None) -> list:
    """E = psi - ((n-1)/n) psi^{n/(n-1)} g'(y) - e^{g(y)-t} at each accepted
    sample with y above the convexity floor. E decreases in t there; the
    returned records keep the trajectory's (decreasing-t) order, and `scale`
    is the natural comparison magnitude |E| + e^{g(y)-t}."""
    nl = nl if nl is not None else traj.nl
    n = traj.n
    if traj.kind != "t":
        raise ConfigError("the energy monitor runs in the log-radius variable")
    if nl.linear:
        raise ConfigError("energy monitor needs the exponential form")
    s0w = convexity_floor(nl)
    glam = math.log(nl.lam)
    out = []
    for t, row in zip(traj.ts, traj.states):
        y, psi = float(row[0]), float(row[1])
        if y <= 0.0 or y < s0w:
            continue
        ee = math.exp(glam + eval_g(nl, y, 0) - t)
        E = psi - (n - 1.0) / n * psi ** (n / (n - 1.0)) * eval_g(nl, y, 1) - ee
        out.append(EnergyRecord(t=float(t), E=E, scale=abs(E) + ee))
    return out


def energy_violations(records, tol: float = 1e-9):
    """Pairs of consecutive records violating monotone decrease in t beyond
    tol * scale. Records are in decreasing-t order, so E must not decrease
    along the list."""
    bad = []
    for r1, r2 in zip(records[:-1], records[1:]):
        drop = r1.E - r2.E
        if drop > tol * r1.scale:
            bad.append((r1.t, r2.t, drop / r1.scale))
    return bad


# 12-point Gauss-Legendre nodes and weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def quad_dense(traj: Trajectory, func, a: float, b: float) -> float:
    """Integral of func(x, state(x)) over [a, b] using fixed Gauss-Legendre
    panels split at the accepted steps, so the quadrature never crosses a
    dense-output patch boundary."""
    if a == b:
        return 0.0
    sign = 1.0
    lo, hi = a, b
    if lo > hi:
        lo, hi, sign = b, a, -1.0
    ts = np.sort(np.asarray(traj.ts, dtype=float))
    inner = ts[(ts > lo) & (ts < hi)]
    cuts = np.concatenate(([lo], inner, [hi]))
    total = 0.0
    for left, right in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (left + right)
        half = 0.5 * (right - left)
        for xi, wi in zip(_GL_NODES, _GL_WEIGHTS):
            x = mid + half * xi
            total += wi * half * func(x, traj.state_at(x))
    return sign * total
