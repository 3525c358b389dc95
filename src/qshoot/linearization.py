"""Linearized flow in gamma: derivative of the first zero, turning points,
and the flux-form identity used to certify the computed derivative.

The linearization channel rides along the main integration as the pair
(V1, phi) with phi = (y')^{n-2} V1'. Its tail seed is the closed-form V2
of the comparison solution; by the time the state reaches the first zero,
V1(T) is the gamma-derivative of the profile there and

    T'(gamma) = -V1(T) / y'(T).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .asymptotics import snapshot
from .config import ProblemConfig
from .errors import AdmissionError
from .nonlinearity import Nonlinearity, eval_g
from .ode import quad_dense
from .shooting import ShootOutcome, _solve
# unused here: bound only so perfbench/tracer.py can wrap them as spans
from .nonlinearity import convexity_floor  # noqa: F401
from .ode import integrate_r, integrate_t, tail_start  # noqa: F401
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


@dataclass(frozen=True)
class TurningReport:
    S1: Optional[float]
    S: Optional[float]
    S_predicted: Optional[float]
    V2prime_at_S: Optional[float]

    def as_dict(self) -> dict:
        return {"S": self.S, "S1": self.S1, "S_predicted": self.S_predicted,
                "V2prime_at_S": self.V2prime_at_S}


def detect_turning(nl: Nonlinearity, n: int, gamma: float,
                   cfg: ProblemConfig = ProblemConfig()) -> TurningReport:
    """Locate the sign structure of the linearized flow along the tail.

    S1 is the largest zero of V1 in (T, t_start], S the largest zero of
    phi = (y')^{n-2} V1'. Both are the march's first crossings of 0, found
    by the same scan as its stop, to 1e-13. They come back None when no
    accepted step brackets one before the stop; nothing is extrapolated.
    """
    snapshot(nl, n, gamma).S_pred  # refuses an overflowing (g')^2 first
    return _turning(solve_V1(nl, n, gamma, cfg, keep_trajectory=True,
                             route="t"))


def _turning(res: ShootOutcome) -> TurningReport:
    """The turning report of `detect_turning`, read off a t-route channel
    march `res` that kept its trajectory."""
    s = snapshot(res.traj.nl, res.traj.n, res.gamma)

    def zero(j):  # the first crossing of component j, unless past the stop
        x = res.traj.dense.crossing(0.0, 1e-13, j)
        return x if x is not None and x >= res.T else None

    S1, S = zero(2), zero(3)
    v2p_at = s.v2(S)[1] if S is not None else None
    return TurningReport(S1=S1, S=S, S_predicted=s.S_pred,
                         V2prime_at_S=v2p_at)


def flux_identity_residual(nl: Nonlinearity, n: int, gamma: float,
                           cfg: ProblemConfig = ProblemConfig()) -> dict:
    """Normalized residual of the integrated flux identity for phi.

    With J = (1 - y' (g'(y) + g''(y)/g'(y))) phi + phi', and y', V1', phi'
    and psi' = -f(y) e^{-t} read off the march (`Trajectory.flux`, which
    maps L = log psi back), the identity reads

        J(a) = J(b) + int_a^b -(g''/g') f(y) e^{-t} V1' / (n-1) dt
                    + int_a^b (g'' + g'''/g' - (g''/g')^2) psi^{n/(n-1)} V1' dt

    on any [a, b] inside the integrated span; here a is the convexity
    floor crossing and b the tail start, which the tail admits only above
    the floor, so a < b. A march that crosses no floor before its zero T
    is refused with AdmissionError: at T the u^2 family's g'(y) vanishes,
    and for exp every term does. The residual is normalized by the largest
    magnitude among the four terms.
    """
    res = solve_V1(nl, n, gamma, cfg, keep_trajectory=True, route="t")
    if res.Ttilde is None:
        raise AdmissionError(
            f"flux identity needs a convexity-floor crossing; the march at "
            f"gamma={gamma} crossed none before its zero T={res.T}")
    traj = res.traj
    a, b = res.Ttilde, res.diagnostics["t_start"]

    def parts(t, s):
        # psi, phi, g' g'' g''' at y, then the slopes y', psi', V1', phi'
        psi, slopes = traj.flux(t, s)
        return (psi, s[3], *(eval_g(nl, s[0], k) for k in (1, 2, 3)),
                *slopes)

    def J(t):
        _, phi, gp, gpp, _, yp, _, _, phip = parts(t, traj.state_at(t))
        return (1.0 - yp * (gp + gpp / gp)) * phi + phip

    def igrand1(t, s):
        _, _, gp, gpp, _, _, psip, v1p, _ = parts(t, s)
        return (gpp / gp) * psip * v1p / (n - 1.0)

    def igrand2(t, s):
        psi, _, gp, gpp, gppp, _, _, v1p, _ = parts(t, s)
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
    vmax = max(abs(s[2]) for s in res.traj.states)
    floor = 1e-8 * max(1.0, vmax)
    return {"V1_T": res.V1_T, "floor": floor,
            "margin": abs(res.V1_T) / floor,
            "nondegenerate": abs(res.V1_T) > floor}
