"""Event-detecting integration of the radial problem in flux form.

One marching core (`_march`) serves both coordinate setups of the same
equation. It drives the in-repo DOP853 stepper (`_dopri`: the
Dormand-Prince 8(5,3) pair with its 7th-order dense output, under scipy
DOP853's control law until it aims its steps at the stop level), which
ends the march with a genuine step onto that level, rewinding a crossing
step that no such step can replace. It finds the convexity floor crossing
on the dense output, raises with the last accepted state when the march
fails or misses its stop, and assembles the Trajectory. Each setup only
supplies its start state, its span and one right-hand side, which appends
the linearization block (the derivative of the flow with respect to
gamma; see the linearization module) when asked:

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

Overflow policy: the closures of nonlinearity.source_terms saturate at the
sentinel nonlinearity.SOURCE_CAP, and the slope clamps here at the same
one, so a saturated value only rejects the trial step that met it.

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

from ._numeric import brentq, quad
from .asymptotics import snapshot
from .config import ProblemConfig, check_dimension
from .errors import (AdmissionError, ConfigError, EventNotFoundError,
                     SolverError)
from .nonlinearity import (SOURCE_CAP, Nonlinearity, convexity_floor,
                           eval_fprime_source, eval_g, eval_source,
                           g_is_linear, log_f, source_terms)

# pure relative control on the flux component (see module docstring)
_PSI_ATOL = 1e-300
# abscissa tolerance of the located stop and floor crossings
EVENT_TOL = 1e-12
# radius where the outward march gives up looking for its stop
R_MAX = 1e5
# largest log of a legitimate radius-route source or slope: both peak at the
# startup or stay below f(gamma), so the sentinel then only cuts trial steps
_LOG_CAP = math.log(SOURCE_CAP) - 10.0


def _clamp(v: float) -> float:
    return min(max(v, -SOURCE_CAP), SOURCE_CAP)


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


def _v2_seed(start: StateT, s, n: int) -> tuple:
    """The t-route channel's seed (V1, phi) at the tail start `start`: the
    closed-form V2 of the comparison solution in the snapshot `s`."""
    v2, v2p, _ = s.v2(start.t)
    return v2, yprime_from_psi(start.psi, n) ** (n - 2.0) * v2p


def tail_start(nl: Nonlinearity, n: int, gamma: float,
               cfg: ProblemConfig = ProblemConfig()) -> StateT:
    """Initial state for the backward t-route march, read off the comparison
    solution at t_start = T1 + c_tail (n-1) log g'."""
    return _tail_site(nl, n, gamma, cfg.c_tail, cfg.beta_weight)[0]


def tail_admissible(nl: Nonlinearity, n: int, gamma: float,
                    cfg: ProblemConfig) -> bool:
    """Whether the tail admits gamma; bad inputs raise, as in tail_start."""
    try:
        _tail_site(nl, n, gamma, cfg.c_tail, cfg.beta_weight)
        return True
    except AdmissionError:
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

    def source(us):
        return [eval_source(nl, z, u) for z, u in zip(s.z(us)[0], us)]

    def psi1(t):
        val, _ = quad(source, t, hi, limit=200)
        return val + math.exp(s.g - hi)  # source ~ f(gamma) e^{-s} past the window

    y_int, _ = quad(lambda us: [psi1(u) ** (1.0 / (n - 1.0)) for u in us],
                    t0, hi, limit=100)
    y1 = s.z(hi)[0] - y_int  # z itself past the window
    return {"delta_y": abs(y1 - st.y), "delta_psi": abs(psi1(t0) - st.psi),
            "t_start": t0, "window": 40.0 * (n - 1.0)}


def solve_ivp(*args, **kwargs):
    """scipy's solve_ivp, imported on the first call. The march does not
    use it: it is bound only so perfbench/tracer.py can wrap it as a span."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp
    return scipy_solve_ivp(*args, **kwargs)


# The DOP853 tableau (Hairer, Norsett & Wanner, II.5; the coefficients of
# their dop853.f), 0-based by stage: _A[s][j] weighs stage j into stage s.
# Stages 0-11 make the step, row 12 holds the 8th-order weights and stage
# 12 is the slope at the new point, stages 13-15 serve the dense output
# only. _E5 and _E3 weigh the stages into the 5th- and 3rd-order error
# estimates, _D into the dense output's four highest coefficients (II.6).
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


def _dp_step(rhs, t, y, k1, h, rtol, atol):
    """One DOP853 step of length h from (t, y), k1 = rhs(t, y): the new
    state, the thirteen stages (the last is rhs there) and the 3/5 error
    norm over atol + rtol max(|y|, |y_new|) (II.10), inf or NaN to fail
    the step. The stage sums are unrolled over the tableau's nonzeros, in
    Hairer's 1-based names: a loop over the tableau costs more than the
    right-hand side."""
    _, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _C[:11]
    (a21,), (a31, a32), (a41, _, a43), (a51, _, a53, a54) = _A[1:5]
    a61, _, _, a64, a65 = _A[5]
    a71, _, _, a74, a75, a76 = _A[6]
    a81, _, _, a84, a85, a86, a87 = _A[7]
    a91, _, _, a94, a95, a96, a97, a98 = _A[8]
    a101, _, _, a104, a105, a106, a107, a108, a109 = _A[9]
    a111, _, _, a114, a115, a116, a117, a118, a119, a1110 = _A[10]
    a121, _, _, a124, a125, a126, a127, a128, a129, a1210, a1211 = _A[11]
    b1, _, _, _, _, b6, b7, b8, b9, b10, b11, b12 = _A[12]
    # the error weights: er the 5th-order ones, eb = b - bhh the 3rd-order
    er1, _, _, _, _, er6, er7, er8, er9, er10, er11, er12, _ = _E5
    eb1, _, _, _, _, eb6, eb7, eb8, eb9, eb10, eb11, eb12, _ = _E3
    k2 = rhs(t + c2 * h, [u + h * (a21 * a) for u, a in zip(y, k1)])
    k3 = rhs(t + c3 * h, [u + h * (a31 * a + a32 * b)
                          for u, a, b in zip(y, k1, k2)])
    k4 = rhs(t + c4 * h, [u + h * (a41 * a + a43 * c)
                          for u, a, c in zip(y, k1, k3)])
    k5 = rhs(t + c5 * h, [u + h * (a51 * a + a53 * c + a54 * d)
                          for u, a, c, d in zip(y, k1, k3, k4)])
    k6 = rhs(t + c6 * h, [u + h * (a61 * a + a64 * d + a65 * e)
                          for u, a, d, e in zip(y, k1, k4, k5)])
    k7 = rhs(t + c7 * h, [u + h * (a71 * a + a74 * d + a75 * e + a76 * f)
                          for u, a, d, e, f in zip(y, k1, k4, k5, k6)])
    k8 = rhs(t + c8 * h, [
        u + h * (a81 * a + a84 * d + a85 * e + a86 * f + a87 * g)
        for u, a, d, e, f, g in zip(y, k1, k4, k5, k6, k7)])
    k9 = rhs(t + c9 * h, [
        u + h * (a91 * a + a94 * d + a95 * e + a96 * f + a97 * g + a98 * m)
        for u, a, d, e, f, g, m in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = rhs(t + c10 * h, [
        u + h * (a101 * a + a104 * d + a105 * e + a106 * f + a107 * g
                 + a108 * m + a109 * o)
        for u, a, d, e, f, g, m, o in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = rhs(t + c11 * h, [
        u + h * (a111 * a + a114 * d + a115 * e + a116 * f + a117 * g
                 + a118 * m + a119 * o + a1110 * p)
        for u, a, d, e, f, g, m, o, p
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = rhs(t + h, [
        u + h * (a121 * a + a124 * d + a125 * e + a126 * f + a127 * g
                 + a128 * m + a129 * o + a1210 * p + a1211 * r)
        for u, a, d, e, f, g, m, o, p, r
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    y_new = [u + h * (b1 * a + b6 * f + b7 * g + b8 * m + b9 * o + b10 * p
                      + b11 * r + b12 * s)
             for u, a, f, g, m, o, p, r, s
             in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
    k13 = rhs(t + h, y_new)
    e5 = e3 = 0.0
    for u, v, a, f, g, m, o, p, r, s, at in zip(y, y_new, k1, k6, k7, k8, k9,
                                                k10, k11, k12, atol):
        sc = at + max(abs(u), abs(v)) * rtol
        x5 = (er1 * a + er6 * f + er7 * g + er8 * m + er9 * o + er10 * p
              + er11 * r + er12 * s) / sc
        x3 = (eb1 * a + eb6 * f + eb7 * g + eb8 * m + eb9 * o + eb10 * p
              + eb11 * r + eb12 * s) / sc
        e5 += x5 * x5
        e3 += x3 * x3
    err = abs(h) * e5 / math.sqrt(len(y) * (e5 + 0.01 * e3)) if e5 else 0.0
    return y_new, (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12,
                   k13), err


def _poly(c, x):
    """A `DenseOutput.coefficients` entry at the fraction x of its step."""
    w = 1.0 - x
    return c[0] + x * (c[1] + w * (c[2] + x * (c[3] + w * (
        c[4] + x * (c[5] + w * (c[6] + x * c[7]))))))


def _crosses(g, g_new) -> bool:
    """A level met on a step whose ends sit g and g_new above it."""
    return g_new <= 0.0 if g > 0.0 else g_new >= 0.0


class DenseOutput:
    """Piecewise 7th-order interpolant over the accepted steps of one march
    (II.6, as in DOP853). It keeps each step's ends and stages, and on the
    first evaluation inside a step pays that step's three extra stages.
    A read at a node returns the stored sample."""

    def __init__(self, rhs, ts, ys, stages):
        self.rhs, self.ts, self.ys, self.stages = rhs, ts, ys, stages
        self._sign = 1.0 if ts[-1] >= ts[0] else -1.0
        self._keys = [self._sign * t for t in ts]
        self._coefficients = {}

    def coefficients(self, i):
        """The interpolant of step i per component, as `_poly` reads it."""
        if i not in self._coefficients:
            t, y, h = self.ts[i], self.ys[i], self.ts[i + 1] - self.ts[i]
            K = list(self.stages[i])
            for c, row in zip(_C[13:], _A[13:]):
                K.append(self.rhs(t + c * h, [
                    u + h * sum(a * k[j] for a, k in zip(row, K))
                    for j, u in enumerate(y)]))
            q = self._coefficients[i] = []
            for j, (u0, u1) in enumerate(zip(y, self.ys[i + 1])):
                dy, f0, f1 = u1 - u0, h * K[0][j], h * K[12][j]
                q.append((u0, dy, f0 - dy, 2.0 * dy - f1 - f0)
                         + tuple(h * sum(d * k[j] for d, k in zip(row, K))
                                 for row in _D))
        return self._coefficients[i]

    def __call__(self, x) -> np.ndarray:
        x, ts = float(x), self.ts
        i = min(max(bisect_left(self._keys, self._sign * x) - 1, 0),
                len(self.stages) - 1)
        for node in (i + 1, i):
            if x == ts[node]:
                return np.array(self.ys[node])
        frac = (x - ts[i]) / (ts[i + 1] - ts[i])
        return np.array([_poly(c, frac) for c in self.coefficients(i)])

    def crossing(self, level, xtol):
        """First abscissa where y[0] meets `level`, or None. An end of the
        crossing step that rounding leaves on the start's side is the root."""
        ts, ys = self.ts, self.ys
        for i in range(len(self.stages)):
            if _crosses(ys[i][0] - level, ys[i + 1][0] - level):
                c, h = self.coefficients(i)[0], ts[i + 1] - ts[i]
                if not _crosses(c[0] - level, _poly(c, 1.0) - level):
                    return ts[i + 1]
                return ts[i] + h * float(brentq(
                    lambda x: _poly(c, x) - level, 0.0, 1.0,
                    xtol=xtol / abs(h)))
        return None

    def land(self, level, xtol, tols, counts, stop=None):
        """Where y[0] meets `level` on the last step, after replacing that
        step by one ending there: Newton on its length from `stop`, else
        from the crossing on the interpolant, kept inside the step. If
        Newton leaves it (y' vanishing) or a step fails the error test, it
        stays and `counts["landed"]` stays False."""
        stop = self.crossing(level, xtol) if stop is None else stop
        t, y, f = self.ts[-2], self.ys[-2], self.stages[-1][0]
        h, h_acc = stop - t, self.ts[-1] - t
        for _ in range(8):
            t_new = t + h
            h = t_new - t
            y_new, K, err = _dp_step(self.rhs, t, y, f, h, *tols)
            counts["nfev"] += 12
            counts["landing"] += 1
            miss = y_new[0] - level
            h_next = h - miss / K[12][0] if K[12][0] else math.nan
            if not (err < 1.0 and 0.0 < h_next / h_acc <= 1.0):
                break
            # Newton cannot resolve a length below the float spacing at t_new
            if abs(h_next - h) <= xtol + 4.0 * math.ulp(t_new):
                self.ts[-1], self.ys[-1], self.stages[-1] = t_new, y_new, K
                self._coefficients.pop(len(self.stages) - 1, None)
                counts["landed"] = True
                return t_new
            h = h_next
        return stop


def _dopri(rhs, t, y, t_end, rtol, atol, level=None, xtol=0.0):
    """DOP853 march of y' = rhs(t, y) from t towards t_end under scipy
    DOP853's control law (initial step, safety 0.9, exponent 1/8, factors
    in [0.2, 10], none above 1 after a rejection, failure below 10
    ulp(t)), aimed at `level`: the dense output, where y[0] met the level
    (None if not), and the counters.

    The aim: while y[0]' points at the level, the tangent puts it a
    distance d ahead. A longer trial step is cut to 1.0001 d, to end just
    past the level, if d is within a third of it, and else to 2d/3, so
    that the step that crosses is short. That step is replaced by one
    ending on the level (`land`): past the level the source is frozen at
    f(0), and a step reaching there sees the kink in its error test and
    its last stage. A landing that fails rewinds the crossing step as a
    rejection, to retry at half its length, three times at most; then the
    stop is read off the step's interpolant. The first aimed trial
    that crosses and fails is offered to the landing too, from its chord.

    Counters: `aimed` trials cut by the aim, `rejected` trials in all,
    `rejected_stop` those whose end crossed the level (rewinds included;
    an offered trial that lands counts as the step it became), `landing`
    passes, and `nfev` the march's own evaluations, 2 + 12 per attempted
    or landing step; the dense output's extra stages are not in it."""
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
                if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.125)
    ts, ys, stages = [t], [y], []
    counts = dict(status=0, nfev=2, rejected=0, rejected_stop=0, aimed=0,
                  landing=0, landed=False)
    g = None if level is None else y[0] - level
    offered, rewinds = False, 0
    while sign * (t - t_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, sign * math.inf) - t)
        h_abs, retry = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a NaN step fails too
                counts["status"] = -1
                return DenseOutput(rhs, ts, ys, stages), None, counts
            # d: the tangent's distance to the level, when heading there
            d = g is not None and g * sign * f[0] < 0.0 and g / -(sign * f[0])
            aim = d and max(1.0001 * d if 3.0 * d <= h_abs else d / 1.5,
                            min_step)
            aimed = aim and aim < h_abs
            if aimed:
                h_abs = aim
                counts["aimed"] += 1
            t_new = t + sign * h_abs
            if sign * (t_new - t_end) > 0.0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new, K, err = _dp_step(rhs, t, y, f, h, rtol, atol)
            counts["nfev"] += 12
            factor = 10.0 if err == 0.0 else 0.9 * err ** -0.125
            crossed = g is not None and _crosses(g, y_new[0] - level)
            if crossed and y_new[0] != level and (
                    err < 1.0 or aimed and not offered):
                passed, offered = err < 1.0, offered or err >= 1.0
                dense = DenseOutput(rhs, ts + [t_new], ys + [y_new],
                                    stages + [K])
                chord = None if passed else t + h * g / (g + level - y_new[0])
                stop = dense.land(level, xtol, (rtol, atol), counts, chord)
                if counts["landed"] or passed and rewinds == 3:
                    counts["status"] = 1
                    return dense, stop, counts
                if passed:  # rewind: reject it, retry at half its length
                    rewinds += 1
                    err, factor = math.inf, 0.5
            if err < 1.0:
                h_abs *= min(1.0 if retry else 10.0, factor)
                break
            # an infinite norm makes factor 0, a NaN one NaN: both give 0.2
            h_abs *= factor if factor > 0.2 else 0.2
            retry = True
            counts["rejected"] += 1
            counts["rejected_stop"] += crossed
        ts.append(t_new)
        ys.append(y_new)
        stages.append(K)
        t, y, f = t_new, y_new, K[12]
        if g is not None:
            g = y[0] - level
            if crossed:  # the step ended on the level exactly
                counts["status"], counts["landed"] = 1, True
                return DenseOutput(rhs, ts, ys, stages), t, counts
    return DenseOutput(rhs, ts, ys, stages), None, counts


def _march(kind: str, nl: Nonlinearity, n: int, cfg: ProblemConfig, rhs,
           span: tuple, y0: list, level: float, track_s0: float | None,
           where: str, xtol: float = 0.5 * EVENT_TOL, **diag) -> Trajectory:
    """The marching core of both routes: integrate `rhs` over `span` until
    the first component lands on `level`, and find the crossing of
    track_s0 on the dense output, both to within `xtol`. A 4-component
    `y0` carries the linearization channel; `where` ends the miss message."""
    level = float(level)
    track = track_s0 is not None and track_s0 > 0.0 and math.isfinite(track_s0)
    atol = [cfg.atol, _PSI_ATOL] + [cfg.atol] * (len(y0) - 2)
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
                floor: float | None = None,
                lin_init: tuple | None = None,
                track_s0: float | None = None) -> Trajectory:
    """March the flux system backwards in t from `start` until y lands on
    `level`, giving up at `floor` (far below the start unless given). A
    seed (V1, phi) in `lin_init` attaches the linearization channel."""
    check_dimension(n, cfg.beta_weight)
    ex = 1.0 / (n - 1.0)
    exd = (n - 2.0) / (n - 1.0)
    lin = lin_init is not None
    src, fprime = source_terms(nl)

    def rhs(t, u):
        y, psi = u[0], u[1]
        yp = psi ** ex if psi > 0.0 else 0.0
        du = (min(yp, SOURCE_CAP), -src(y, t))
        if not lin:
            return du
        v1, phi = u[2], u[3]
        dv1 = phi if n == 2 else _clamp(phi / max(psi, _PSI_ATOL) ** exd)
        return du + (dv1, _clamp(-fprime(y, t) * v1 / (n - 1.0)))

    if floor is None:
        floor = start.t - max(1000.0, 4.0 * abs(start.t) + 400.0 * (n - 1.0))
    if floor >= start.t:
        raise ConfigError(f"stop floor {floor} not below start {start.t}")
    y0 = [start.y, start.psi] + (list(lin_init) if lin else [])
    return _march("t", nl, n, cfg, rhs, (start.t, floor), y0, level,
                  track_s0, f"above the floor t={floor}", t_start=start.t)


def series_startup_radius(fg: float, n: int, gamma: float,
                          cfg: ProblemConfig) -> float:
    """Startup radius r0 = min(1e-3, x0^{(n-1)/(n-b)}) of the outward march,
    with fg = f(gamma), b the weight exponent and x = r^{(n-b)/(n-1)} the
    origin's series variable (see integrate_r). x0 is rtol (n-b) / fg, for
    a next series term below the step tolerance, or where the series has
    taken half of gamma, if smaller: an amplitude of a few rtol then starts
    above zero."""
    nb = n - cfg.beta_weight
    x_tol = cfg.rtol * nb / fg
    x_half = 0.5 * gamma * nb / (n - 1.0) * (nb / fg) ** (1.0 / (n - 1.0))
    return min(1e-3, min(x_tol, x_half) ** ((n - 1.0) / nb))


def integrate_r(nl: Nonlinearity, n: int, gamma: float,
                cfg: ProblemConfig = ProblemConfig(), *, level: float = 0.0,
                r_end: float = R_MAX, lin: bool = False,
                track_s0: float | None = None) -> Trajectory:
    """March the weighted flux system outward in r from a series startup
    until w lands on `level`, giving up at the radius `r_end`.

    It starts at series_startup_radius on the origin's series:
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
    try:
        lf = log_f(nl, gamma)
    except OverflowError:
        lf = math.inf
    if lf > _LOG_CAP:
        raise AdmissionError(
            f"log f(gamma) = {lf:.3g} exceeds the exponent budget "
            f"{_LOG_CAP:.3g}; the radius route cannot start")
    fg = math.exp(lf)
    r0 = series_startup_radius(fg, n, gamma, cfg)
    # the amplitude bound cuts r0 below r0_tol (gamma of a few rtol); the
    # first zero shrinks with it, and so does the stop's tolerance
    r0_tol = series_startup_radius(fg, n, math.inf, cfg)  # unbounded
    xtol = 0.5 * EVENT_TOL * (r0 / r0_tol if r0 < r0_tol else 1.0)
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
    src, fprime = source_terms(nl)

    def rhs(r, u):
        w, Phi = u[0], u[1]
        aPhi = max(-Phi, 0.0)
        wp = -((aPhi / r ** (n - 1.0)) ** ex) if aPhi > 0.0 else 0.0
        du = (max(wp, -SOURCE_CAP), _clamp(-src(w, 0.0) * r ** (nb - 1.0)))
        if not lin:
            return du
        W, chi = u[2], u[3]
        dW = _clamp(chi / r if n == 2
                    else chi / (r * max(aPhi, _PSI_ATOL) ** exd))
        return du + (dW, _clamp(-fprime(w, 0.0) * W * r ** (nb - 1.0)
                                / (n - 1.0)))

    try:
        start_rate = max(map(abs, rhs(r0, y0)))
    except ZeroDivisionError:
        # r0, or r0^{n-1} under a nonzero startup flux, underflowed to 0
        raise AdmissionError(f"startup radius r0={r0:.3g} underflows; the "
                             "radius route cannot start") from None
    if start_rate > math.exp(_LOG_CAP):
        raise AdmissionError("radius-route startup slope or source beyond "
                             "the overflow sentinel's budget")
    if r_end <= r0:
        raise ConfigError(f"stop radius {r_end} not beyond startup {r0}")
    return _march("r", nl, n, cfg, rhs, (r0, r_end), y0, level, track_s0,
                  f"inside r <= {r_end}", xtol, r0=r0)


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    E: float
    scale: float


def energy_series(traj: Trajectory) -> list:
    """E = psi - ((n-1)/n) psi^{n/(n-1)} g'(y) - e^{g(y)-t} at each accepted
    sample with y above the convexity floor. E decreases in t there; the
    returned records keep the trajectory's (decreasing-t) order, and `scale`
    is the natural comparison magnitude |E| + e^{g(y)-t}."""
    nl, n = traj.nl, traj.n
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
