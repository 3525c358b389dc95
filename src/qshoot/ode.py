"""Event-detecting integration of the radial problem in flux form.

One marching core (`_march`) serves both coordinate setups of the same
equation. It drives the in-repo DOP853 stepper (`_dopri`: the
Dormand-Prince 8(5,3) pair with its 7th-order dense output, under scipy
DOP853's control law and Gustafsson's prediction, with a step bound on the
t-route, until it aims its steps at the stop level), which ends the march
with a genuine step onto that level, rewinding a crossing step that no such
step can replace. It finds the convexity floor crossing on the dense
output, raises with the last accepted state when the march fails or misses
its stop, and assembles the Trajectory. Each setup only supplies its start
state, its span and its right-hand side, stated once as text (`_t_rows`,
`_r_rows`) with the rows of the linearization block (the derivative of the
flow with respect to gamma; see the linearization module) appended when
asked. `_dp_kernel` splices that text and the family's source text into the
step and its dense output, straight-line code generated from the tableau on
first use, so that one step is one Python call:

  t-route   y' = e^{L/(n-1)}, L' = -f(y) e^{-t-L}, integrated backwards in
            the log-radius variable t from a tail start down to the first
            zero of y. L = log psi of the flux psi = (y')^{n-1} removes the
            |y'|^{n-2} degeneracy, and L' ~ -1 in the tail. Channel: (V1, phi).

  r-route   w' from Phi = r^{n-1}|w'|^{n-2} w', Phi' = -f(w) r^{n-1-beta},
            marched outward from a series startup at r0. beta > 0 covers the
            singular-weight problem directly. Channel: (W, chi).

Both march until y (or w) lands on 0, the first zero; the t-route gives
up at a floor far below its start in t, the r-route at the radius R_MAX.
The Trajectory keeps the march's right-hand side, and every slope read off
a march goes through it: Trajectory.stop_readout maps the stop of either
route to the log-radius variable, r = n e^{-t/n}, and the linearization
readouts take V1' and phi' from the same call. The dimension n is each
call's argument, checked by config.check_dimension.

Overflow policy: the source text (nonlinearity.SOURCE_TEXT) saturates at
the sentinel nonlinearity.SOURCE_CAP, and the routes clamp their slopes at
the same one, so a saturated value only rejects the trial step that met it.

Tolerance policy: rtol sets every tolerance, in _march alone. y (or w) and
the channel take the absolute tolerance rtol/100; the flux, which spans many
orders of magnitude along the tail, is under relative control (an absolute
floor shows up as spurious wiggle in the energy monitor): the t-route holds
L to the absolute tolerance rtol alone, psi to rtol relative; the r-route's
Phi keeps a floor of at most 1e-300 (_PSI_ATOL). The stop and the floor
crossing are found to rtol/200, shrunk with a tiny amplitude's startup.
"""

from __future__ import annotations

import functools
import math
import textwrap
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Optional

from ._numeric import brentq, quad
from ._stable import softplus
from .asymptotics import snapshot
from .config import ProblemConfig, check_dimension
from .errors import (AdmissionError, ConfigError, EventNotFoundError,
                     SolverError)
from .nonlinearity import (SOURCE_CAP, SOURCE_TEXT, Nonlinearity,
                           convexity_floor, eval_fprime_source, eval_g,
                           g_is_linear, log_f, source_constants)
# unused here: bound only so perfbench/tracer.py can wrap it as a span
from .nonlinearity import eval_source  # noqa: F401

# the r-route flux's absolute tolerance, capped at rtol |start flux| to keep
# its control relative (see module docstring); a smaller start flux is refused
_PSI_ATOL = 1e-300
# radius where the outward march gives up looking for its stop
R_MAX = 1e5
_PRED_CAP = 0.9 * 1e4 ** 0.125  # 0.9 err^{-1/8} at the prediction's floor
# largest log of a legitimate radius-route source or slope: both peak at the
# startup or stay below f(gamma), so the sentinel then only cuts trial steps
_LOG_CAP = math.log(SOURCE_CAP) - 10.0


@dataclass(frozen=True)
class StateT:
    t: float
    y: float
    L: float  # log of the flux psi = (y')^{n-1}


@dataclass(frozen=True)
class StateR:
    r: float
    w: float
    Phi: float


def _t_of_r(r: float, n: int) -> float:
    return -n * math.log(r / n)


@dataclass
class Trajectory:
    """Accepted samples of one integration plus its dense interpolant.

    For kind "t" the state columns are (y, L) and, with the linearization
    channel, (y, L, V1, phi), where L = log psi is the log of the flux
    psi = (y')^{n-1}; `flux` maps it back. For kind "r" they are (w, Phi) or
    (w, Phi, W, chi). `ts` and `states` are the stepper's own lists of
    floats, the very lists `dense` reads: the abscissae in integration order
    (decreasing for the t-route, increasing for the r-route) and one state
    list per abscissa. `state_at` returns a list too. `stop` is where
    the march landed on its level and `s0` where it crossed the tracked
    convexity floor (None without a crossing), both in the marching
    variable. `rhs(x, state)` is the march's own right-hand side, the
    slopes of the state columns, which every slope readout reads.
    """

    kind: str
    n: int
    nl: Nonlinearity
    ts: list
    states: list
    dense: DenseOutput
    rhs: Callable
    stop: float
    s0: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    def span(self) -> tuple:
        a, b = self.ts[0], self.ts[-1]  # ts is monotone
        return (a, b) if a <= b else (b, a)

    def state_at(self, x: float) -> list:
        lo, hi = self.span()
        return self.dense(min(max(x, lo), hi))

    def flux(self, x: float, state: list) -> tuple:
        """(psi, slopes) of a t-route state at x: psi = e^L, and the march's
        own slopes with psi' = L' psi for L'."""
        psi, (yp, lp, *rest) = math.exp(state[1]), self.rhs(x, state)
        return psi, (yp, lp * psi, *rest)

    def yprime_at(self, x: float) -> float:
        """dy/dt (dw/dr on the r-route) at x, from the march's own rhs."""
        return self.rhs(x, self.state_at(x))[0]

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
    # where the comparison solution solves the full equation (g linear) any
    # start works: it sits above T1 only as far as g' > 1 allows
    if not g_is_linear(nl):
        if s.gp <= 1.0:
            raise AdmissionError(
                f"tail start needs g'(gamma) > 1, got {s.gp:.3g}")
        if c_tail * math.log(s.gp) < 3.0:
            raise AdmissionError(
                "tail remainder too large: c_tail * log g' < 3")
    t_start = s.T1 + c_tail * (n - 1.0) * max(math.log(s.gp), 0.0)
    z0 = s.z(t_start)[0]
    if z0 <= max(s0w, 0.25 * gamma):
        raise AdmissionError(
            f"tail value z(t_start)={z0:.3g} too far below gamma={gamma}")
    # L0 = (n-1) log z' from log sigma(x) = -softplus(-x): no flux underflows
    L0 = (n - 1.0) * (math.log(s.c) - softplus(-s.x(t_start)))
    return StateT(t=t_start, y=z0, L=L0), s


def _v2_seed(start: StateT, s, n: int) -> tuple:
    """The t-route channel's seed (V1, phi) at the tail start `start`: the
    closed-form V2 of the comparison solution in the snapshot `s`."""
    v2, v2p, _ = s.v2(start.t)
    return v2, math.exp((n - 2.0) / (n - 1.0) * start.L) * v2p


def tail_start(nl: Nonlinearity, n: int, gamma: float,
               cfg: ProblemConfig) -> StateT:
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


def _sum(weights, j: int) -> str:
    """Source of the sum of w_s * ks_j (component j of stage s) over the
    nonzero weights, in stage order, each weight as its repr literal."""
    return " + ".join(f"{w!r} * k{s}_{j}" for s, w in enumerate(weights) if w)


def _names(prefix: str, count: int) -> str:
    return "".join(f"{prefix}{i}, " for i in range(count))


# Each route's right-hand side as text over t and u0..u3 that leaves the
# slopes in {k}0..{k}3: the flux rows, then the linearization channel's,
# with the family's source texts spliced in. The t-route's state is (y,
# L = log psi, V1, phi), its source read at t + L; the r-route's is (w,
# Phi, W, chi) over t = r, and it reads the source at t = 0. _CLAMP is
# min(max(v, -cap), cap), a NaN passing.
_CLAMP = "cap if cap < v else (-cap if -cap > v else v)"


def _t_rows(k: str, src: str, fprime: str) -> tuple:
    return f"""\
v = cap if u1 * ex > big else exp(u1 * ex)
{k}0 = cap if v > cap else v
{src.format(u="u0", t="(t + u1)", out="s")}
{k}1 = -s""", f"""\
v = u3 if n == 2 else u3 * (cap if -exd * u1 > big else exp(-exd * u1))
{k}2 = v if n == 2 else {_CLAMP}
{fprime.format(u="u0", t="t", out="fp")}
v = -fp * u2 / (n - 1.0)
{k}3 = {_CLAMP}"""


def _r_rows(k: str, src: str, fprime: str) -> tuple:
    return f"""\
aPhi = 0.0 if 0.0 > -u1 else -u1
wp = -((aPhi / t ** (n - 1.0)) ** ex) if aPhi > 0.0 else 0.0
{k}0 = -cap if -cap > wp else wp
{src.format(u="u0", t="0.0", out="s")}
v = -s * t ** (nb - 1.0)
{k}1 = {_CLAMP}""", f"""\
v = u3 / t if n == 2 else \\
    u3 / (t * ({_PSI_ATOL!r} if {_PSI_ATOL!r} > aPhi else aPhi) ** exd)
{k}2 = {_CLAMP}
{fprime.format(u="u0", t="0.0", out="fp")}
v = -fp * u2 * t ** (nb - 1.0) / (n - 1.0)
{k}3 = {_CLAMP}"""


def _stage(s: int, m: int, body: Callable, lead: str = "") -> list:
    """Source lines of stage s (a row of `_A`): its t, its u0.. and body."""
    return [f"    t = t0 + {_C[s]!r} * h", *(
        f"    u{j} = y{j} + h * ({lead}{_sum(_A[s], j)})" for j in range(m)),
        textwrap.indent(body(f"k{s}_"), "    ")]


def _compile_factory(filename: str, names: tuple, lines: list) -> Callable:
    """The function make(*names) whose body is the source `lines`, with
    exp, log, inf and math as globals: the names become closure cells."""
    text = "\n".join([f"def make({', '.join(names)}):",
                      *(textwrap.indent(line, "    ") for line in lines)])
    namespace = dict(math=math, exp=math.exp, log=math.log, inf=math.inf)
    exec(compile(text, filename, "exec"), namespace)
    return namespace["make"]


@functools.cache
def _dp_kernel(m: int, route: str | None = None, kind: str = "",
               names: tuple = ("f",)) -> Callable:
    """The DOP853 step and dense output for states of length m, straight-
    line code from the tableau's nonzeros built on first use, with `route`'s
    rows (the channel's too for m = 4) over the family `kind`'s source, or a
    call of f, spliced into each stage: make(**constants) -> (rhs, step,
    dense), each of `names` a closure cell, so one entry serves a shape.
    step(t0, y, k0, h, rtol, atol) gives the new state, the 13 stages and
    the 3/5 error norm (II.10), inf or NaN to fail the step, the end slope
    in it at weight 0.0 so a NaN there fails it too. dense(t0, h, y, y_end,
    K) pays the three extra stages and gives what `_poly` reads (II.6)."""
    def body(k):  # the right-hand side, leaving its slopes in k0..
        if route is None:
            return f"{_names(k, m)}= f(t, [{_names('u', m)}])"
        rows = {"t": _t_rows, "r": _r_rows}[route](k, *SOURCE_TEXT[kind])
        return "\n".join(rows[:m // 2])

    J = range(m)
    rhs = [f"    {_names('u', m)}= u", textwrap.indent(body("d"), "    "),
           f"    return ({_names('d', m)})"]
    step = [f"    {_names('y', m)}= y", f"    {_names('k0_', m)}= k0",
            *(line for s in range(1, 13) for line in _stage(s, m, body)),
            f"    {_names('a', m)}= atol"]  # u0.. now hold the new state
    for j in J:
        rel = "" if (route, j) == ("t", 1) else \
            f" + max(abs(y{j}), abs(u{j})) * rtol"  # L: atol alone
        step += [f"    sc = a{j}{rel}",
                 f"    x5_{j} = ({_sum(_E5, j)}) / sc",
                 f"    x3_{j} = ({_sum(_E3, j)}) / sc"]
    stages = ", ".join(f"({_names(f'k{s}_', m)})" for s in range(1, 13))
    step += [f"    e5 = {' + '.join(f'x5_{j} * x5_{j}' for j in J)}"
             f" + 0.0 * ({' + '.join(f'k12_{j}' for j in J)})",
             f"    e3 = {' + '.join(f'x3_{j} * x3_{j}' for j in J)}",
             f"    err = abs(h) * e5 / math.sqrt({m} * (e5 + 0.01 * e3))"
             " if e5 else 0.0",
             f"    return [{_names('u', m)}], (k0, {stages}), err"]
    dense = [f"    {_names('y', m)}= y", f"    {_names('n', m)}= y_end",
             f"    {_names('k', 13)}= K",
             *(f"    {_names(f'k{s}_', m)}= k{s}" for s in range(13)),
             *(line for s in range(13, 16)
               for line in _stage(s, m, body, "0.0 + "))]
    for j in J:
        d = (f"h * (0.0 + {_sum(row, j)})" for row in _D)
        dense += [f"    dy, f0, f1 = n{j} - y{j}, h * k0_{j}, h * k12_{j}",
                  f"    q{j} = (y{j}, dy, f0 - dy, 2.0 * dy - f1 - f0, "
                  f"{', '.join(d)})"]
    dense.append(f"    return [{_names('q', m)}]")
    # compiled apart: compiling takes memory in proportion to the source,
    # and the largest unit sets the process's peak
    makes = [_compile_factory(f"<dop853 {f}, m={m}, {route} {kind}>", names,
                              [f"def {f}({args}):", *lines, f"return {f}"])
             for f, args, lines in (("rhs", "t, u", rhs),
                                    ("step", "t0, y, k0, h, rtol, atol", step),
                                    ("dense", "t0, h, y, y_end, K", dense))]
    return lambda **constants: tuple(make(**constants) for make in makes)


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

    def __init__(self, kernels, ts, ys, stages):
        (self.step, self.dense), self.ts, self.ys = kernels, ts, ys
        self.stages = stages
        self._sign = 1.0 if ts[-1] >= ts[0] else -1.0
        self._keys = [self._sign * t for t in ts]
        self._coefficients = {}

    def coefficients(self, i):
        """The interpolant of step i per component, as `_poly` reads it."""
        if i not in self._coefficients:
            t, y = self.ts[i], self.ys[i]
            self._coefficients[i] = self.dense(
                t, self.ts[i + 1] - t, y, self.ys[i + 1], self.stages[i])
        return self._coefficients[i]

    def __call__(self, x) -> list:
        x, ts = float(x), self.ts
        i = min(max(bisect_left(self._keys, self._sign * x) - 1, 0),
                len(self.stages) - 1)
        for node in (i + 1, i):
            if x == ts[node]:
                return list(self.ys[node])
        frac = (x - ts[i]) / (ts[i + 1] - ts[i])
        return [_poly(c, frac) for c in self.coefficients(i)]

    def crossing(self, level, xtol, j=0):
        """First abscissa where component j meets `level`, or None: the
        one sign-change scan on a march, for the stop fallback, the floor
        crossing and the turning points. An end of the crossing step that
        rounding leaves on the start's side is the root."""
        ts, ys = self.ts, self.ys
        for i in range(len(self.stages)):
            if _crosses(ys[i][j] - level, ys[i + 1][j] - level):
                c, h = self.coefficients(i)[j], ts[i + 1] - ts[i]
                if not _crosses(c[0] - level, _poly(c, 1.0) - level):
                    return ts[i + 1]
                return ts[i] + h * brentq(lambda x: _poly(c, x) - level,
                                          0.0, 1.0, xtol=xtol / abs(h))
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
            y_new, K, err = self.step(t, y, f, h, *tols)
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


def _dopri(rhs, t, y, t_end, rtol, atol, level=None, xtol=0.0,
           kernels=None, reach=(math.inf, 0.0)):
    """DOP853 march of y' = rhs(t, y) by rhs's step and dense output
    (`kernels`, `_dp_kernel`'s generic ones unless given) from t towards
    t_end, no step longer than max(a, b |t|) for `reach` (a, b), under
    scipy DOP853's control law (initial step, safety 0.9, exponent 1/8,
    factors in [0.2, 10], none above 1 after a rejection, failure below 10
    ulp(t)) and Gustafsson's prediction (Hairer & Wanner II, IV.8), aimed at
    `level`: the dense output, where y[0] met the level (None if not), and
    the counters.

    The prediction: after an accepted step the aim did not cut, the factor
    is scaled by min(1, r/r_acc), held at 0.2 or above, with r = h 0.9
    max(err, 1e-4)^{-1/8} and r_acc that of the last such step: the smaller
    of the factor and 0.9 (h/h_acc) (err_acc/err^2)^{1/8}, which foresees a
    growing error. Aimed steps, cut to a third of the last, stay out of it.

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

    Counters: `aimed` trials cut by the aim, `predicted` accepted steps whose
    factor the prediction cut, `rejected` trials in all, `rejected_stop`
    those whose end crossed the level (rewinds included; an offered trial
    that lands counts as the step it became), `landing` passes, and `nfev`
    the march's own evaluations, 2 + 12 per attempted or landing step; the
    dense output's extra stages are not in it."""
    sign, span = (1.0 if t_end > t else -1.0), abs(t_end - t)
    kernels = kernels or _dp_kernel(len(y))(f=rhs)[1:]
    step = kernels[0]
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
                  predicted=0, landing=0, landed=False)
    g = None if level is None else y[0] - level
    offered, rewinds, r_acc = False, 0, 0.0
    while sign * (t - t_end) < 0.0:
        min_step = 10.0 * abs(math.nextafter(t, sign * math.inf) - t)
        if h_abs > reach[0]:
            h_abs = min(h_abs, max(reach[0], reach[1] * abs(t)))
        h_abs, retry = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a NaN step fails too
                counts["status"] = -1
                return DenseOutput(kernels, ts, ys, stages), None, counts
            # d: the tangent's distance to the level, when heading there, as
            # the signs tell: the product of a tiny g and y' underflows to 0
            d = g is not None and math.copysign(1.0, g) * sign * f[0] < 0.0 \
                and g / -(sign * f[0])
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
            y_new, K, err = step(t, y, f, h, rtol, atol)
            counts["nfev"] += 12
            factor = 10.0 if err == 0.0 else 0.9 * err ** -0.125
            crossed = g is not None and _crosses(g, y_new[0] - level)
            if crossed and y_new[0] != level and (
                    err < 1.0 or aimed and not offered):
                passed, offered = err < 1.0, offered or err >= 1.0
                dense = DenseOutput(kernels, ts + [t_new], ys + [y_new],
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
                if not aimed:  # the prediction: see the docstring
                    r = h_abs * (factor if factor < _PRED_CAP else _PRED_CAP)
                    if r < r_acc:
                        factor = max(0.2, factor * r / r_acc)
                        counts["predicted"] += 1
                    r_acc = r
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
                return DenseOutput(kernels, ts, ys, stages), t, counts
    return DenseOutput(kernels, ts, ys, stages), None, counts


def _march(kind: str, nl: Nonlinearity, n: int, cfg: ProblemConfig, rhs,
           span: tuple, y0: list, level: float, track_s0: float | None,
           where: str, shrink: float = 1.0, *, kernels,
           **diag) -> Trajectory:
    """The marching core of both routes: integrate `rhs` by its `kernels`
    over `span` until the first component lands on `level`, and find the
    crossing of track_s0 on the dense output, both to within rtol/200
    times `shrink`. A 4-component `y0` carries the linearization channel;
    `where` ends the miss message."""
    level = float(level)
    track = track_s0 is not None and track_s0 > 0.0 and math.isfinite(track_s0)
    rtol, xtol = cfg.rtol, cfg.rtol / 200.0 * shrink
    # L's atol is rtol; Phi's is at most rtol |Phi0|, unless that underflows
    atol = [rtol / 100.0, rtol if kind == "t" else
            min(_PSI_ATOL, rtol * abs(y0[1])) or _PSI_ATOL] \
        + [rtol / 100.0] * (len(y0) - 2)
    # t-route steps up to max(4, |t|/2): longer ones miss the returning e^{-t}
    reach = (4.0, 0.5) if kind == "t" else (math.inf, 0.0)
    try:
        dense, stop, counts = _dopri(rhs, span[0], [float(v) for v in y0],
                                     span[1], rtol, atol, level, xtol,
                                     kernels, reach)
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
    hs = [abs(b - a) for a, b in zip(ts, ts[1:])]
    diag = {"route": kind, "steps": len(hs), "h_min": min(hs),
            "h_max": max(hs), "h_land": hs[-1], **counts, **diag}
    return Trajectory(kind=kind, n=n, nl=nl, ts=ts, states=ys, dense=dense,
                      rhs=rhs, stop=stop,
                      s0=dense.crossing(track_s0, xtol) if track else None,
                      diagnostics=diag)


def _system(route: str, nl: Nonlinearity, n: int, lin: bool,
            **constants) -> tuple:
    """(rhs, (step, dense)) of `route` for nl in dimension n, the channel's
    rows too with `lin`; the route's and the source's constants are cells."""
    kind, source = source_constants(nl)
    constants.update(source, n=n, ex=1.0 / (n - 1.0),
                     exd=(n - 2.0) / (n - 1.0))
    rhs, *kernels = _dp_kernel(4 if lin else 2, route, kind,
                               tuple(constants))(**constants)
    return rhs, kernels


def integrate_t(nl: Nonlinearity, n: int, start: StateT,
                cfg: ProblemConfig = ProblemConfig(), *,
                lin_init: tuple | None = None,
                track_s0: float | None = None) -> Trajectory:
    """March the log-flux system backwards in t from `start` until y lands
    on 0, giving up at a floor far below the start. A seed (V1, phi) in
    `lin_init` attaches the linearization channel."""
    check_dimension(n, cfg.beta_weight)
    lin = lin_init is not None
    rhs, kernels = _system("t", nl, n, lin)
    floor = start.t - max(1000.0, 4.0 * abs(start.t) + 400.0 * (n - 1.0))
    y0 = [start.y, start.L] + (list(lin_init) if lin else [])
    return _march("t", nl, n, cfg, rhs, (start.t, floor), y0, 0.0, track_s0,
                  f"above the floor t={floor}", kernels=kernels,
                  t_start=start.t)


def series_startup_radius(fg: float, n: int, gamma: float,
                          cfg: ProblemConfig, share: float = 0.5) -> float:
    """Startup radius r0 = min(1e-3, x0^{(n-1)/(n-b)}) of the outward march,
    with fg = f(gamma), b the weight exponent and x = r^{(n-b)/(n-1)} the
    origin's series variable (see integrate_r). x0 is rtol (n-b) / fg, for
    a next series term below the step tolerance, or where the series has
    taken `share` of gamma, if smaller: an amplitude of a few rtol then
    starts above zero. An x0 of 1 or more saturates r0 at the cap."""
    nb = n - cfg.beta_weight
    x_tol = cfg.rtol * nb / fg
    x_amp = share * gamma * nb / (n - 1.0) * (nb / fg) ** (1.0 / (n - 1.0))
    return min(1e-3, min(x_tol, x_amp, 1.0) ** ((n - 1.0) / nb))


def integrate_r(nl: Nonlinearity, n: int, gamma: float,
                cfg: ProblemConfig = ProblemConfig(), *, lin: bool = False,
                track_s0: float | None = None) -> Trajectory:
    """March the weighted flux system outward in r from a series startup
    until w lands on 0, giving up at the radius R_MAX.

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
    if fg == 0.0:
        raise AdmissionError(f"f(gamma) = exp({lf:.3g}) underflows to 0; the "
                             "radius route cannot start")
    # f = lam u: the series' next term is its first one squared, over gamma
    share = math.sqrt(cfg.rtol) if nl.linear else 0.5
    r0 = series_startup_radius(fg, n, gamma, cfg, share)
    # the amplitude bound cuts r0 below r0_tol (gamma of a few rtol); the
    # first zero shrinks with it, and so does the stop's tolerance
    r0_tol = series_startup_radius(fg, n, math.inf, cfg)  # unbounded
    shrink = r0 / r0_tol if r0 < r0_tol else 1.0
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

    rhs, kernels = _system("r", nl, n, lin, nb=nb)
    try:
        start_rate = max(map(abs, rhs(r0, y0)))
    except ZeroDivisionError:
        # r0, or r0^{n-1} under a nonzero startup flux, underflowed to 0
        raise AdmissionError(f"startup radius r0={r0:.3g} underflows; the "
                             "radius route cannot start") from None
    if start_rate > math.exp(_LOG_CAP):
        raise AdmissionError("radius-route startup slope or source beyond "
                             "the overflow sentinel's budget")
    if -Phi0 < _PSI_ATOL:
        raise AdmissionError(f"startup flux {-Phi0:.3g} is below {_PSI_ATOL:g};"
                             " the radius route cannot start")
    return _march("r", nl, n, cfg, rhs, (r0, R_MAX), y0, 0.0, track_s0,
                  f"inside r <= {R_MAX}", shrink, kernels=kernels, r0=r0)


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
    out = []
    for t, row in zip(traj.ts, traj.states):
        y = row[0]
        if y <= 0.0 or y < s0w:
            continue
        psi, slopes = traj.flux(t, row)
        ee = -slopes[1]  # psi' = -f(y) e^{-t}
        E = psi - (n - 1.0) / n * psi ** (n / (n - 1.0)) * eval_g(nl, y, 1) - ee
        out.append(EnergyRecord(t=t, E=E, scale=abs(E) + ee))
    return out


# the relative drop of E that energy_violations tolerates
_ENERGY_TOL = 1e-9


def energy_violations(records):
    """Pairs of consecutive records violating monotone decrease in t beyond
    _ENERGY_TOL * scale. Records are in decreasing-t order, so E must not
    decrease along the list."""
    bad = []
    for r1, r2 in zip(records[:-1], records[1:]):
        drop = r1.E - r2.E
        if drop > _ENERGY_TOL * r1.scale:
            bad.append((r1.t, r2.t, drop / r1.scale))
    return bad


def quad_dense(traj: Trajectory, func, a: float, b: float) -> float:
    """Integral of func(x, state(x)) over [a, b]: one 21-point
    Gauss-Kronrod rule (`quad` held to one interval) on each accepted step,
    so no rule crosses a dense-output patch boundary."""
    lo, hi, sign = (a, b, 1.0) if a < b else (b, a, -1.0)
    cuts = [lo, *(t for t in sorted(traj.ts) if lo < t < hi), hi]

    def f(x):
        return func(x, traj.state_at(x))

    return sign * sum(quad(f, left, right, limit=1)[0]
                      for left, right in zip(cuts[:-1], cuts[1:]))
