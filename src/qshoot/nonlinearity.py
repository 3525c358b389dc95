"""Source terms f(u) = lam * e^{g(u)} with g(u) = a*u^q + rho(u).

The lower-order part rho is a derivative family rather than a symbolic
expression: built-ins cover p*log(u) and b*u, and a user callable can be
attached for anything else. Derivatives up to order three are exact for the
built-ins, which the flux-identity checks rely on.

A `linear` flag covers the non-exponential special case f(u) = lam*u used as
an oracle (the radial problem then has a closed-form first zero for n = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from ._stable import EXP_ARG_MAX
from .config import check_dimension
from .errors import AdmissionError, ConfigError

DEFAULT_S0_SCAN = (1e-6, 1e3, 6000)
DEFAULT_HYPOTHESIS_GRID = tuple(float(2**j) for j in range(15))


@dataclass(frozen=True)
class Rho:
    """rho(u) = p*log(u) + b*u plus an optional user part.

    `custom`, when given, is called as custom(u, k) and must return the k-th
    derivative for k = 0..3.
    """

    p: float = 0.0
    b: float = 0.0
    custom: Optional[Callable[[float, int], float]] = None

    def __call__(self, u: float, k: int = 0) -> float:
        val = 0.0
        if self.p != 0.0:
            if u <= 0.0:
                raise ConfigError("log term in rho is singular at u <= 0")
            if k == 0:
                val += self.p * math.log(u)
            elif k == 1:
                val += self.p / u
            elif k == 2:
                val += -self.p / (u * u)
            else:
                val += 2.0 * self.p / (u * u * u)
        if self.b != 0.0:
            if k == 0:
                val += self.b * u
            elif k == 1:
                val += self.b
        if self.custom is not None:
            val += self.custom(u, k)
        return val

    @property
    def trivial(self) -> bool:
        return self.p == 0.0 and self.b == 0.0 and self.custom is None


@dataclass(frozen=True)
class Nonlinearity:
    lam: float = 1.0
    a: float = 1.0
    q: float = 2.0
    rho: Rho = field(default_factory=Rho)
    linear: bool = False
    f0: float = 1.0
    family: str = "pow_exp"
    exploratory: bool = False

    def describe(self) -> dict:
        """Flat parameter dict, used by config files and JSON meta blocks."""
        d = {"family": self.family, "lambda": self.lam}
        if not self.linear:
            d.update({"a": self.a, "q": self.q, "p": self.rho.p, "rho_beta": self.rho.b})
        if self.exploratory:
            d["exploratory"] = True
        return d


def _require_finite(*pairs) -> None:
    """ConfigError naming the first (name, value) pair that is not finite."""
    for name, v in pairs:
        if not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v}")


def make_nonlinearity(family: str, *, a: float = 1.0, q: float = 2.0,
                      p: float = 0.0, rho_beta: float = 0.0, lam: float = 1.0,
                      n: int | None = None,
                      custom_rho: Optional[Callable[[float, int], float]] = None,
                      ) -> Nonlinearity:
    """Build one of the named families.

    pow_exp  g(u) = a*u^q + p*log(u) + rho_beta*u
    exp      g(u) = a*u (q = 1, classical Gelfand-type source)
    linear   f(u) = lam*u, no exponential structure

    Parameters outside the standard window (q in (1, n/(n-1)], a > 0) are
    allowed but tagged exploratory so downstream reports can refuse or flag.
    The dimension n, when given, only places that window.
    """
    _require_finite(("lambda", lam), ("a", a), ("q", q), ("p", p),
                    ("rho_beta", rho_beta))
    if n is not None:
        check_dimension(n)
    if lam <= 0.0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    if family == "linear":
        return Nonlinearity(lam=lam, linear=True, f0=0.0, family="linear")
    if family == "exp":
        q, p, rho_beta, custom_rho = 1.0, 0.0, 0.0, None
    elif family != "pow_exp":
        raise ConfigError(f"unknown family {family!r}")
    if a <= 0.0 and custom_rho is None and rho_beta <= 0.0:
        raise ConfigError("need a positive leading coefficient in g")
    if p < 0.0:
        raise ConfigError(f"log coefficient p must be >= 0, got {p}")
    rho = Rho(p=p, b=rho_beta, custom=custom_rho)

    exploratory = q <= 1.0 and family != "exp"
    if family == "exp":
        exploratory = True  # q = 1 sits outside the standard exponent window
    if n is not None and q > n / (n - 1.0):
        exploratory = True
    if a <= 0.0 or rho_beta < 0.0:
        exploratory = True

    # f(0): a log term kills the source at 0, otherwise g(0+) is finite.
    if p > 0.0:
        f0 = 0.0
    elif custom_rho is not None:
        f0 = lam * math.exp(custom_rho(0.0, 0))
    else:
        f0 = lam
    return Nonlinearity(lam=lam, a=a, q=q, rho=rho, f0=f0, family=family,
                        exploratory=exploratory)


def with_lambda(nl: Nonlinearity, lam: float) -> Nonlinearity:
    """Same nonlinearity with the multiplier replaced (f0 rescales with it)."""
    _require_finite(("lambda", lam))
    if lam <= 0.0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    f0 = nl.f0 * (lam / nl.lam)
    return replace(nl, lam=lam, f0=f0)


def _falling(q: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= q - j
    return out


def eval_g(nl: Nonlinearity, u: float, k: int = 0) -> float:
    """g and its derivatives, exact for the built-in families."""
    if nl.linear:
        raise ConfigError("linear family has no exponent function g")
    if not 0 <= k <= 3:
        raise ConfigError(f"derivative order k={k} outside 0..3")
    if u < 0.0:
        raise ConfigError(f"g evaluated at negative u={u}")
    q = nl.q
    if u == 0.0:
        if nl.rho.p != 0.0 or (nl.rho.custom is not None and k > 0):
            raise ConfigError("g singular at u = 0 for this rho")
        e = q - k
        if e > 0 or nl.a == 0.0:
            power = 0.0
        elif e == 0:
            power = nl.a * _falling(q, k)
        else:
            raise ConfigError(f"u^{{q-k}} singular at 0 for q={q}, k={k}")
        rterm = nl.rho(u, k) if not nl.rho.trivial else 0.0
        return power + rterm
    return nl.a * _falling(q, k) * u ** (q - k) + nl.rho(u, k)


def log_f(nl: Nonlinearity, u: float) -> float:
    """log f(u) for u > 0; the admission budget checks run through this."""
    if nl.linear:
        if u <= 0.0:
            raise ConfigError("log f undefined at u <= 0 for the linear family")
        return math.log(nl.lam) + math.log(u)
    return math.log(nl.lam) + eval_g(nl, u, 0)


def eval_source(nl: Nonlinearity, u: float, t: float) -> float:
    """f(u) e^{-t} as a single exponentiation of log(lam) + g(u) - t.

    For u <= 0 (transient event overshoot) the f(0) branch applies: zero when
    the source vanishes at the origin, otherwise the u -> 0+ limit.
    """
    if nl.linear:
        if -t > EXP_ARG_MAX:
            raise OverflowError(f"exponent {-t:.3g} exceeds representable range")
        return nl.lam * u * math.exp(-t)
    if u <= 0.0:
        if nl.f0 == 0.0:
            return 0.0
        arg = math.log(nl.f0) - t
    else:
        arg = math.log(nl.lam) + eval_g(nl, u, 0) - t
    if arg > EXP_ARG_MAX:
        raise OverflowError(f"exponent {arg:.6g} exceeds representable range")
    return math.exp(arg)


def eval_fprime_source(nl: Nonlinearity, u: float, t: float) -> float:
    """f'(u) e^{-t}, the coefficient in the variational equation."""
    if nl.linear:
        if -t > EXP_ARG_MAX:
            raise OverflowError(f"exponent {-t:.3g} exceeds representable range")
        return nl.lam * math.exp(-t)
    if u <= 0.0:
        if nl.f0 == 0.0:
            return 0.0
        # f'(0+) = f(0) * g'(0+); only the linear part of g survives at 0
        gp0 = nl.rho.b if nl.q > 1.0 else (nl.a + nl.rho.b if nl.q == 1.0 else 0.0)
        arg = math.log(nl.f0) - t
        if arg > EXP_ARG_MAX:
            raise OverflowError(f"exponent {arg:.6g} exceeds representable range")
        return gp0 * math.exp(arg)
    gp = eval_g(nl, u, 1)
    arg = math.log(nl.lam) + eval_g(nl, u, 0) - t
    if gp > 0.0:
        arg2 = arg + math.log(gp)
        if arg2 > EXP_ARG_MAX:
            raise OverflowError(f"exponent {arg2:.6g} exceeds representable range")
        return math.exp(arg2)
    if arg > EXP_ARG_MAX:
        raise OverflowError(f"exponent {arg:.6g} exceeds representable range")
    return gp * math.exp(arg)


@dataclass(frozen=True)
class ConvexityThreshold:
    """Last sample of the `DEFAULT_S0_SCAN` grid failing the test, or 0.0."""

    s0: float


def find_s0(nl: Nonlinearity, *, strict: bool = True) -> ConvexityThreshold:
    """Convexity threshold s0 read off a geometric scan: the last sample
    failing g' > 0 and g'' > 0, so the test still fails just above it and
    s0 lies up to one grid ratio below the true threshold.

    With strict=False the curvature test is g'' >= 0, which admits the pure
    exponential family (g'' identically zero); the solvers use that weaker
    floor for monotonicity gating.
    """
    if nl.linear:
        raise ConfigError("linear family has no convexity threshold")
    us = np.geomspace(*DEFAULT_S0_SCAN)
    ok = np.empty(len(us), dtype=bool)
    for i, u in enumerate(us):
        gp = eval_g(nl, float(u), 1)
        gpp = eval_g(nl, float(u), 2)
        ok[i] = gp > 0.0 and (gpp > 0.0 if strict else gpp >= 0.0)
    if not ok[-1]:
        raise AdmissionError("no convexity threshold found within the scan range")
    bad = np.flatnonzero(~ok)
    return ConvexityThreshold(s0=float(us[bad[-1]]) if len(bad) else 0.0)


def convexity_floor(nl: Nonlinearity) -> float:
    """s0 for route switching and energy gating; inf when weak convexity
    never holds (then only the radius-variable route applies). Exact for the
    built-in rho with a > 0, q >= 1 and p, b >= 0: the smallest double with
    g'' >= 0, a few ulps from the root (p / (a q (q-1)))^{1/q}. The scan
    serves other inputs and roots outside 1e+-150 (s^2 must stay normal)."""
    if nl.linear:
        return math.inf
    a, q, p = nl.a, nl.q, nl.rho.p
    if nl.rho.custom is None and a > 0.0 and q >= 1.0 and min(p, nl.rho.b) >= 0:
        if p == 0.0 or q == 1.0:
            return 0.0 if p == 0.0 else math.inf
        s = (p / (a * q * (q - 1.0))) ** (1.0 / q)
        for _ in range(16 if 1e-150 < s < 1e150 else 0):
            if eval_g(nl, s, 2) < 0.0:
                s = math.nextafter(s, math.inf)
            elif eval_g(nl, below := math.nextafter(s, 0.0), 2) >= 0.0:
                s = below
            else:
                return s
    try:
        return find_s0(nl, strict=False).s0
    except AdmissionError:
        return math.inf


def g_is_linear(nl: Nonlinearity) -> bool:
    """True when g(u) is exactly linear in u, so the tail comparison solution
    solves the full equation rather than an approximation of it."""
    if nl.linear:
        return False
    if nl.rho.p != 0.0 or nl.rho.custom is not None:
        return False
    return nl.q == 1.0 or nl.a == 0.0


@dataclass(frozen=True)
class HypothesisReport:
    gamma_grid: tuple
    h1_ratios: dict
    h2_values: tuple
    h3_values: tuple
    h1_trends: dict
    h2_trend: str
    h3_trend: str
    h1_holds: bool
    h2_holds: bool
    h3_holds: bool

    def rows(self):
        for name, trend, holds in (("H1", self.h1_trends, self.h1_holds),
                                   ("H2", self.h2_trend, self.h2_holds),
                                   ("H3", self.h3_trend, self.h3_holds)):
            yield name, trend, "holds" if holds else "fails"


def _trend(values, grid) -> str:
    """Finite-sample trend label over the upper half of a geometric grid."""
    v = np.asarray(values, dtype=float)
    g = np.asarray(grid, dtype=float)
    m = len(v) // 2
    tail, gt = v[m:], g[m:]
    finite = np.isfinite(tail)
    if not np.all(finite):
        return "inconclusive"
    av = np.abs(tail)
    if np.max(av) < 1e-12:
        return "to_zero"
    if np.min(av) <= 0.0:
        return "inconclusive"
    slope = float(np.polyfit(np.log(gt), np.log(av), 1)[0])
    if slope < -0.1:
        return "to_zero"
    if slope > 0.1:
        return "to_infinity"
    return "bounded_below" if np.min(tail) > 0.0 else "inconclusive"


def check_hypotheses(nl: Nonlinearity, n: int, gamma_grid=None) -> HypothesisReport:
    """Sampled trend report for the three standing growth assumptions.

    These are limits; the verdicts are trend labels on a finite grid, not
    proofs. The default grid is geometric, 2^0 .. 2^14.
    """
    if nl.linear:
        raise ConfigError("hypothesis probes need the exponential form")
    grid = tuple(float(x) for x in (gamma_grid if gamma_grid is not None
                                    else DEFAULT_HYPOTHESIS_GRID))
    if len(grid) == 0 or any(x <= 0 for x in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("gamma grid must be positive and increasing")

    h1 = {k: [] for k in range(4)}
    h2, h3 = [], []
    for gam in grid:
        gv = eval_g(nl, gam, 0)
        gp = eval_g(nl, gam, 1)
        gpp = eval_g(nl, gam, 2)
        for k in range(4):
            rk = nl.rho(gam, k) if not nl.rho.trivial else 0.0
            h1[k].append(rk / gam ** (nl.q - k))
        h2.append(gv - (n - 1.0) / n * gam * gp)
        second = gp - (n - 1.0) * gam * gpp
        if gpp <= 0.0 or gp <= 1.0:
            h3.append(math.nan if gpp < 0.0 or gp <= 1.0 else
                      (math.inf if second > 0 else 0.0))
        else:
            h3.append(gp / (gpp * math.log(gp) ** 4) * second)

    h1_trends = {k: _trend(h1[k], grid) for k in range(4)}
    h2_trend = _trend(h2, grid)
    h3_trend = _trend(h3, grid)
    return HypothesisReport(
        gamma_grid=grid,
        h1_ratios={k: tuple(v) for k, v in h1.items()},
        h2_values=tuple(h2),
        h3_values=tuple(h3),
        h1_trends=h1_trends,
        h2_trend=h2_trend,
        h3_trend=h3_trend,
        h1_holds=all(tr == "to_zero" for tr in h1_trends.values()),
        h2_holds=h2_trend == "to_infinity",
        h3_holds=h3_trend in ("bounded_below", "to_infinity"),
    )
