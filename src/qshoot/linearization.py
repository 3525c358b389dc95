"""Linearized flow in gamma: derivative of the first zero, turning points,
and the flux-form identity used to certify the computed derivative.

The linearization channel rides along the main integration as the pair
(V1, phi) with phi = (y')^{n-2} V1'. Its tail seed is the closed-form V2
of the comparison solution; by the time the state reaches the first zero,
V1(T) is the gamma-derivative of the profile there and

    T'(gamma) = -V1(T) / y'(T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._numeric import brentq
from .asymptotics import snapshot
from .config import ProblemConfig
from .nonlinearity import (Nonlinearity, eval_fprime_source, eval_g,
                           eval_source)
from .ode import quad_dense, tail_start, v1prime_from_phi, yprime_from_psi
from .shooting import ShootOutcome, _solve
# unused here: bound only so perfbench/tracer.py can wrap them as spans
from .nonlinearity import convexity_floor  # noqa: F401
from .ode import integrate_r, integrate_t  # noqa: F401
from .shooting import choose_route  # noqa: F401


def v2_eval(gamma: float, n: int, nl: Nonlinearity, t):
    """Closed-form tail derivative V2 and its first two t-derivatives; see
    GammaSnapshot.v2."""
    return snapshot(nl, n, gamma).v2(t)


def solve_V1(nl: Nonlinearity, n: int, gamma: float,
             cfg: ProblemConfig = ProblemConfig(), *,
             keep_trajectory: bool = False,
             route: str | None = None) -> ShootOutcome:
    """Integrate the linearization channel along the shooting trajectory:
    the solve record of `shoot` plus the boundary value V1(T), from one
    march. The t-route channel starts from the closed-form V2 of the
    comparison solution at the tail start."""
    return _solve(nl, n, gamma, cfg, route, keep_trajectory, lin=True)


def t_prime(nl: Nonlinearity, n: int, gamma: float,
            cfg: ProblemConfig = ProblemConfig()) -> float:
    """T'(gamma) through the linearized flow."""
    return solve_V1(nl, n, gamma, cfg).tprime()


def t_prime_fd(nl: Nonlinearity, n: int, gamma: float,
               cfg: ProblemConfig = ProblemConfig()) -> float:
    """Central difference of T, step 1e-3 gamma, at ten-times-tighter
    tolerance; the independent cross-check for t_prime."""
    from .shooting import shoot

    tight = cfg.tighter()
    h = 1e-3 * gamma
    Tp = shoot(nl, n, gamma + h, tight).T
    Tm = shoot(nl, n, gamma - h, tight).T
    return (Tp - Tm) / (2.0 * h)


def _largest_zero(ts_desc, f: Callable, lo_cut: float) -> Optional[float]:
    """Largest abscissa in (lo_cut, ts_desc[0]) where f changes sign,
    refined by bisection on the callable. None when never bracketed."""
    prev_t = None
    prev_v = None
    for t in ts_desc:
        t = float(t)
        if t < lo_cut:
            t = lo_cut
        v = f(t)
        if prev_t is not None and v == 0.0:
            return t
        if prev_t is not None and prev_v * v < 0.0:
            return float(brentq(f, t, prev_t, xtol=1e-13, rtol=1e-15))
        prev_t, prev_v = t, v
        if t == lo_cut:
            break
    return None


@dataclass(frozen=True)
class TurningReport:
    gamma: float
    n: int
    T: Optional[float]
    T1: float
    S1: Optional[float]
    S: Optional[float]
    S_predicted: Optional[float]
    V2prime_at_S: Optional[float]
    comparator: Optional[float]
    S6: Optional[float]

    def as_dict(self) -> dict:
        return {"S": self.S, "S1": self.S1, "S_predicted": self.S_predicted,
                "V2prime_at_S": self.V2prime_at_S}


def detect_turning(nl: Nonlinearity, n: int, gamma: float,
                   cfg: ProblemConfig = ProblemConfig(), *,
                   use_V2: bool = False) -> TurningReport:
    """Locate the sign structure of the linearized flow along the tail.

    S1 is the largest zero of V1 below the tail start, S the largest zero
    of phi = (y')^{n-2} V1'. Both come back None when no crossing is
    bracketed by the accepted steps; nothing is extrapolated. With use_V2
    the detector runs on the closed-form V2 instead of a computed V1, which
    pins S1 at the known S0 and exercises the machinery alone.
    """
    s = snapshot(nl, n, gamma)
    comparator = None
    if s.gpp > 0.0:
        comparator = n / (n - 1.0) * s.gpp / s.gp_squared()
    s6 = None
    if nl.q > 1.0:
        s6 = s.T1 - (4.0 * nl.q / (nl.q - 1.0) + 1.0) * (n - 1.0) \
            * math.log(s.gp)

    if use_V2:
        start = tail_start(nl, n, gamma, cfg)
        ts = np.linspace(start.t, s.T1 - 8.0 * (n - 1.0), 400)

        def v1f(t):
            return s.v2(t)[0]

        def phif(t):
            v2p = s.v2(t)[1]
            return v2p if n == 2 else s.z(t)[1] ** (n - 2.0) * v2p

        lo_cut = float(ts[-1])
        S1 = _largest_zero(ts, v1f, lo_cut)
        S = _largest_zero(ts, phif, lo_cut)
        T = None
    else:
        res = solve_V1(nl, n, gamma, cfg, keep_trajectory=True, route="t")
        traj = res.traj

        def v1f(t):
            return float(traj.state_at(t)[2])

        def phif(t):
            return float(traj.state_at(t)[3])

        S1 = _largest_zero(traj.ts, v1f, res.T)
        S = _largest_zero(traj.ts, phif, res.T)
        T = res.T
    v2p_at = s.v2(S)[1] if S is not None else None
    return TurningReport(gamma=float(gamma), n=n, T=T, T1=s.T1, S1=S1, S=S,
                         S_predicted=s.S_pred, V2prime_at_S=v2p_at,
                         comparator=comparator, S6=s6)


def flux_identity_residual(nl: Nonlinearity, n: int, gamma: float,
                           cfg: ProblemConfig = ProblemConfig()) -> dict:
    """Normalized residual of the integrated flux identity for phi.

    With J = (1 - y' (g'(y) + g''(y)/g'(y))) phi + phi' and phi' taken from
    the channel's own right-hand side, the identity reads

        J(a) = J(b) + int_a^b -(g''/g') f(y) e^{-t} V1' / (n-1) dt
                    + int_a^b (g'' + g'''/g' - (g''/g')^2) psi^{n/(n-1)} V1' dt

    on any [a, b] inside the integrated span; here a is the convexity
    crossing (the zero T without one) and b the tail start, which the tail
    admits only above the floor, so a < b. The residual is normalized by
    the largest magnitude among the four terms.
    """
    res = solve_V1(nl, n, gamma, cfg, keep_trajectory=True, route="t")
    traj = res.traj
    a = res.Ttilde if res.Ttilde is not None else res.T
    b = res.diagnostics["t_start"]

    def parts(t, s):
        y, psi, v1, phi = (float(v) for v in s[:4])
        gp, gpp, gppp = (eval_g(nl, y, k) for k in (1, 2, 3))
        return (y, psi, v1, phi, yprime_from_psi(psi, n), gp, gpp, gppp,
                v1prime_from_phi(phi, psi, n))

    def J(t):
        s = traj.state_at(t)
        y, psi, v1, phi, yp, gp, gpp, _, _ = parts(t, s)
        phip = -eval_fprime_source(nl, y, t) * v1 / (n - 1.0)
        return (1.0 - yp * (gp + gpp / gp)) * phi + phip

    def igrand1(t, s):
        y, psi, v1, phi, yp, gp, gpp, _, v1p = parts(t, s)
        return -(gpp / gp) * eval_source(nl, y, t) * v1p / (n - 1.0)

    def igrand2(t, s):
        y, psi, v1, phi, yp, gp, gpp, gppp, v1p = parts(t, s)
        return (gpp + gppp / gp - (gpp / gp) ** 2) \
            * psi ** (n / (n - 1.0)) * v1p

    Ja, Jb = J(a), J(b)
    I1 = quad_dense(traj, igrand1, a, b)
    I2 = quad_dense(traj, igrand2, a, b)
    scale = max(abs(Ja), abs(Jb), abs(I1), abs(I2), 1e-300)
    return {"residual": abs(Ja - Jb - I1 - I2) / scale, "J_a": Ja, "J_b": Jb,
            "I1": I1, "I2": I2, "a": a, "b": b, "scale": scale}


def nondegeneracy(nl: Nonlinearity, n: int, gamma: float,
                  cfg: ProblemConfig = ProblemConfig()) -> dict:
    """Whether V1(T) clears the numerical noise floor of its own channel.

    The floor is 1e-8 times the largest |V1| seen along the trajectory
    (never below 1e-8); the margin is |V1(T)| over that floor.
    """
    res = solve_V1(nl, n, gamma, cfg, keep_trajectory=True)
    vmax = float(np.max(np.abs(res.traj.states[:, 2])))
    floor = 1e-8 * max(1.0, vmax)
    return {"V1_T": res.V1_T, "floor": floor,
            "margin": abs(res.V1_T) / floor,
            "nondegenerate": abs(res.V1_T) > floor}
