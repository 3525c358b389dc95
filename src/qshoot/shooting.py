"""First-zero shooting map and the bifurcation data built on top of it.

shoot() picks a marching route per gamma: small amplitudes start the series
at r = 0 and march outward, large amplitudes start on the asymptotic tail
and march backward in the log-radius variable. Both land on the same first
zero; the cross-route agreement is one of the standing checks. One route
setup per amplitude makes the choice from one floor evaluation and holds
the tail start; choose_route reads it. A forced route="t" on a problem
the tail does not admit (linear, weighted, ...) raises AdmissionError.

Conventions tied together here:

    T        first zero in the log-radius variable
    R        = n e^{-T/n}, the radial first zero (held bitwise consistent
               with the stored T)
    lambda   = R^{n - beta}, the eigenvalue reading of the zero
    Ttilde   crossing of the convexity floor s0, when one exists
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

from ._numeric import geomspace
from .config import ProblemConfig, check_dimension
from .errors import AdmissionError, ConfigError, QShootError, SolverError
from .nonlinearity import (Nonlinearity, convexity_floor, log_f, with_lambda)
from .ode import Trajectory, _tail_site, _v2_seed, integrate_r, integrate_t
# unused here: bound only so perfbench/tracer.py can wrap them as spans
from .ode import tail_admissible, tail_start  # noqa: F401


@dataclass(frozen=True)
class ShootOutcome:
    """One solved amplitude, with V1(T) when solve_V1 marched it. Failed
    rows inside a sweep keep gamma and carry None everywhere else."""

    gamma: float
    T: Optional[float] = None
    yprime_T: Optional[float] = None
    R: Optional[float] = None
    lam: Optional[float] = None
    Ttilde: Optional[float] = None
    route: str = ""
    V1_T: Optional[float] = None
    diagnostics: dict = field(default_factory=dict, compare=False)
    traj: Optional[Trajectory] = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {"gamma": self.gamma, "T": self.T, "R": self.R,
                "lambda": self.lam, "yprime_T": self.yprime_T,
                "Ttilde": self.Ttilde, "route": self.route}

    def tprime(self) -> float:
        """T'(gamma) = -V1(T) / y'(T), refused when y'(T) is too small."""
        if self.V1_T is None:
            raise ConfigError("T' needs the linearization channel: solve_V1")
        if self.yprime_T < 1e-14:
            raise SolverError(f"boundary slope y'(T) = {self.yprime_T:.3g} "
                              "too small to divide")
        return -self.V1_T / self.yprime_T


# the tail route is preferred only above this amplitude (and twice the floor)
_GAMMA_SWITCH = 1.0


def _route_setup(nl: Nonlinearity, n: int, gamma: float, cfg: ProblemConfig,
                 route: str | None = None) -> tuple:
    """(route, tail start and its snapshot or None, floor level to track or
    None, why that route) from one floor evaluation and at most one tail
    site. The tail is preferred well above the floor; its refusal then
    means "r", its text the reason, or raises when "t" was forced."""
    check_dimension(n, cfg.beta_weight)
    if not math.isfinite(gamma):
        raise ConfigError(f"gamma must be finite, got {gamma}")
    if gamma <= 0.0:
        raise ConfigError(f"gamma must be positive, got {gamma}")
    if route not in (None, "t", "r"):
        raise ConfigError(f"unknown route {route!r}")
    s0w = convexity_floor(nl)
    track = s0w if (math.isfinite(s0w) and 0.0 < s0w < gamma) else None
    switch = max(2.0 * s0w, _GAMMA_SWITCH)
    reason = f"route {route} forced" if route else "tail admitted"
    if route is None and gamma <= switch:
        route, reason = "r", f"gamma={gamma} <= max(2 s0, 1) = {switch:.3g}"
    if route == "r":
        return "r", None, track, reason
    try:
        site = _tail_site(nl, n, gamma, cfg.c_tail, cfg.beta_weight, s0w)
    except AdmissionError as exc:
        if route == "t":
            raise
        return "r", None, track, f"tail refused: {exc}"
    return "t", site, track, reason


def choose_route(nl: Nonlinearity, n: int, gamma: float,
                 cfg: ProblemConfig) -> str:
    """Marching route for one amplitude: "r" (outward from the origin) or
    "t" (backward from the tail), exactly as `shoot` would march it."""
    return _route_setup(nl, n, gamma, cfg)[0]


# a subnormal x keeps about 53 - log2(min_normal / x) significant bits;
# below this, fewer than half of them
_TINY = sys.float_info.min * 2.0 ** -26


def _radius_and_lambda(T: float, n: int, beta: float) -> tuple:
    """R = n e^{-T/n} and lambda = R^{n - beta}, or SolverError naming T
    when either overflows or underflows below `_TINY`."""
    try:
        R = n * math.exp(-T / n)
        lam = R ** (n - beta)
    except OverflowError:
        raise SolverError(f"R or lambda overflows at T={T:.6g}") from None
    if min(R, lam) < _TINY:
        raise SolverError(f"R or lambda underflows at T={T:.6g}")
    return R, lam


def _solve(nl: Nonlinearity, n: int, gamma: float, cfg: ProblemConfig,
           route: str | None, keep_trajectory: bool,
           lin: bool = False) -> ShootOutcome:
    """March one amplitude to its first zero on `route` (chosen when None),
    tracking the convexity floor crossing, and read out its solve record.
    `lin` attaches the linearization channel and adds V1(T); the t-route
    seeds it from the closed-form V2 at the tail start, the r-route from
    its own series."""
    route, site, track, reason = _route_setup(nl, n, gamma, cfg, route)
    if route == "r":
        traj = integrate_r(nl, n, gamma, cfg, lin=lin, track_s0=track)
    else:
        traj = integrate_t(nl, n, site[0], cfg,
                           lin_init=_v2_seed(*site, n) if lin else None,
                           track_s0=track)
    T, yprime_T, Ttilde, state = traj.stop_readout()
    R, lam = _radius_and_lambda(T, n, cfg.beta_weight)
    return ShootOutcome(gamma=float(gamma), T=T, yprime_T=yprime_T, R=R,
                        lam=lam, Ttilde=Ttilde, route=traj.kind,
                        V1_T=state[2] if lin else None,
                        diagnostics={**traj.diagnostics,
                                     "route_reason": reason},
                        traj=traj if keep_trajectory else None)


def shoot(nl: Nonlinearity, n: int, gamma: float,
          cfg: ProblemConfig = ProblemConfig(), *,
          keep_trajectory: bool = False,
          route: str | None = None) -> ShootOutcome:
    """Solve one amplitude to its first zero."""
    return _solve(nl, n, gamma, cfg, route, keep_trajectory)


@dataclass
class BifurcationCurve:
    """Sweep results over a gamma grid, kept index-aligned with the grid.

    `tprime_v1` comes from the linearized flow, `tprime_fd` from a central
    difference at tighter tolerance; both are None unless the sweep was
    asked for derivatives. Rows that failed keep their slot (T is None) and
    the reason lands in `errors`."""

    nl: Nonlinearity
    n: int
    cfg: ProblemConfig
    outcomes: tuple
    tprime_v1: Optional[tuple] = None
    tprime_fd: Optional[tuple] = None
    errors: tuple = ()

    @property
    def gammas(self) -> tuple:
        return tuple(o.gamma for o in self.outcomes)


def sweep(nl: Nonlinearity, n: int, gammas,
          cfg: ProblemConfig = ProblemConfig(), *,
          with_derivative: bool = False) -> BifurcationCurve:
    """Shoot every amplitude in `gammas`, in order; a failed amplitude
    keeps its slot as a placeholder row. With derivatives, one channel
    march per amplitude gives the row and T'; a plain shoot stands in
    only when that march fails. An n or weight that no amplitude can
    take is refused up front."""
    from .linearization import solve_V1, t_prime_fd

    check_dimension(n, cfg.beta_weight)

    def one(g):
        try:
            if not with_derivative:
                return shoot(nl, n, g, cfg), None, None, None
            try:
                out = solve_V1(nl, n, g, cfg)
            except QShootError as exc:
                # the channel alone may fail (p < 1 at the zero): keep T
                return (shoot(nl, n, g, cfg), None, None,
                        f"derivative failed: {exc}")
        except QShootError as exc:
            return ShootOutcome(gamma=g), None, None, str(exc)
        tv1 = tfd = None
        try:
            tv1 = out.tprime()
            tfd = t_prime_fd(nl, n, g, cfg)
        except QShootError as exc:
            return (out, tv1, tfd, f"derivative failed: {exc}")
        return (out, tv1, tfd, None)

    results = [one(float(g)) for g in gammas]
    outcomes = tuple(r[0] for r in results)
    errs = tuple((r[0].gamma, r[3]) for r in results if r[3] is not None)
    tv1 = tuple(r[1] for r in results) if with_derivative else None
    tfd = tuple(r[2] for r in results) if with_derivative else None
    return BifurcationCurve(nl=nl, n=n, cfg=cfg, outcomes=outcomes,
                            tprime_v1=tv1, tprime_fd=tfd, errors=errs)


@dataclass(frozen=True)
class RegimeReport:
    verdict: str
    p_estimate: float
    gammas: tuple
    Ts: tuple
    spread: float

    def as_dict(self) -> dict:
        return {"verdict": self.verdict, "p_estimate": self.p_estimate,
                "spread": self.spread, "gammas": list(self.gammas),
                "T": list(self.Ts)}


def classify_small_gamma(nl: Nonlinearity, n: int,
                         gammas=(1e-1, 1e-2, 1e-3, 1e-4),
                         cfg: ProblemConfig = ProblemConfig()) -> RegimeReport:
    """Small-amplitude trend of the first zero.

    T is computed along a decreasing amplitude ladder. A total variation
    at or below 0.75 reads as "bounded"; otherwise a monotone climb is
    "diverges_up" (the eigenvalue collapses) and a monotone fall is
    "diverges_down". Mixed signs come back "inconclusive". The local power
    of f near zero is estimated alongside as a cross-reference.
    """
    gs = tuple(sorted({float(g) for g in gammas}, reverse=True))
    if len(gs) < 3:
        raise ConfigError("need at least three amplitudes to read a trend")
    Ts = tuple(shoot(nl, n, g, cfg).T for g in gs)
    spread = max(Ts) - min(Ts)
    diffs = [b - a for a, b in zip(Ts, Ts[1:])]
    if spread <= 0.75:
        verdict = "bounded"
    elif all(d > 0.0 for d in diffs):
        verdict = "diverges_up"
    elif all(d < 0.0 for d in diffs):
        verdict = "diverges_down"
    else:
        verdict = "inconclusive"

    # least-squares slope of log f against log u
    us = geomspace(1e-6, 1e-3, 24)
    xs, ys = [math.log(u) for u in us], [log_f(nl, u) for u in us]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) \
        / sum((x - xm) ** 2 for x in xs)
    return RegimeReport(verdict=verdict, p_estimate=slope, gammas=gs,
                        Ts=Ts, spread=spread)


def singular_reduce(nl: Nonlinearity, n: int, beta: float):
    """Map the weighted problem (weight r^{-beta}) onto an unweighted one.

    With a = 1 - beta/n the reduced problem uses f / (n^beta a^n); first
    zeros map back through T = T_reduced / a."""
    check_dimension(n, beta)
    a = 1.0 - beta / n
    scale = n ** beta * a ** n
    return with_lambda(nl, nl.lam / scale), a


def shoot_singular(nl: Nonlinearity, n: int, beta: float, gamma: float,
                   cfg: ProblemConfig = ProblemConfig()) -> ShootOutcome:
    """First zero of the weighted problem via the unweighted reduction."""
    nl_red, a = singular_reduce(nl, n, beta)
    out = shoot(nl_red, n, gamma, replace(cfg, beta_weight=0.0))
    T = out.T / a
    R, lam = _radius_and_lambda(T, n, beta)
    Ttilde = out.Ttilde / a if out.Ttilde is not None else None
    diag = {**out.diagnostics, "reduction_a": a, "T_reduced": out.T}
    return replace(out, T=float(T), yprime_T=a * out.yprime_T, R=float(R),
                   lam=float(lam), Ttilde=Ttilde, diagnostics=diag)


def shoot_weighted_direct(nl: Nonlinearity, n: int, beta: float,
                          gamma: float,
                          cfg: ProblemConfig = ProblemConfig()
                          ) -> ShootOutcome:
    """First zero of the weighted problem by direct outward marching; the
    independent cross-check for the reduction above."""
    return shoot(nl, n, gamma, replace(cfg, beta_weight=float(beta)))

