"""Source terms f(u) = lam * e^{g(u)} with g(u) = a*u^q + p*log(u) + b*u.

The lower-order part rho(u) = p*log(u) + b*u is carried as the two
coefficients p and b of the Nonlinearity; `_rho` is its derivative table.
Derivatives of g up to order three are exact, which the flux-identity
checks rely on.

A `linear` flag covers the non-exponential special case f(u) = lam*u used as
an oracle (the radial problem then has a closed-form first zero for n = 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._stable import EXP_ARG_MAX
from .config import check_dimension
from .errors import AdmissionError, ConfigError

DEFAULT_S0_SCAN = (1e-6, 1e3, 6000)


@dataclass(frozen=True)
class Nonlinearity:
    """f(u) = lam e^{a u^q + p log(u) + b u}, or lam*u when `linear`."""

    lam: float = 1.0
    a: float = 1.0
    q: float = 2.0
    p: float = 0.0
    b: float = 0.0
    linear: bool = False
    f0: float = 1.0
    family: str = "pow_exp"
    exploratory: bool = False

    def describe(self) -> dict:
        """Flat parameter dict, used by config files and JSON meta blocks."""
        d = {"family": self.family, "lambda": self.lam}
        if not self.linear:
            d.update({"a": self.a, "q": self.q, "p": self.p, "rho_beta": self.b})
        if self.exploratory:
            d["exploratory"] = True
        return d


def _rho(nl: Nonlinearity, u: float, k: int) -> float:
    """k-th derivative of rho(u) = p*log(u) + b*u."""
    val = 0.0
    if nl.p != 0.0:
        if u <= 0.0:
            raise ConfigError("log term in rho is singular at u <= 0")
        if k == 0:
            val += nl.p * math.log(u)
        elif k == 1:
            val += nl.p / u
        elif k == 2:
            val += -nl.p / (u * u)
        else:
            val += 2.0 * nl.p / (u * u * u)
    if nl.b != 0.0:
        if k == 0:
            val += nl.b * u
        elif k == 1:
            val += nl.b
    return val


def _require_finite(*pairs) -> None:
    """ConfigError naming the first (name, value) pair that is not finite."""
    for name, v in pairs:
        if not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v}")


def make_nonlinearity(family: str, *, a: float = 1.0, q: float = 2.0,
                      p: float = 0.0, rho_beta: float = 0.0, lam: float = 1.0,
                      n: int | None = None) -> Nonlinearity:
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
        q, p, rho_beta = 1.0, 0.0, 0.0
    elif family != "pow_exp":
        raise ConfigError(f"unknown family {family!r}")
    if a <= 0.0 and rho_beta <= 0.0:
        raise ConfigError("need a positive leading coefficient in g")
    if p < 0.0:
        raise ConfigError(f"log coefficient p must be >= 0, got {p}")

    exploratory = q <= 1.0 and family != "exp"
    if family == "exp":
        exploratory = True  # q = 1 sits outside the standard exponent window
    if n is not None and q > n / (n - 1.0):
        exploratory = True
    if a <= 0.0 or rho_beta < 0.0:
        exploratory = True

    # f(0): a log term kills the source at 0, otherwise g(0+) = 0
    f0 = 0.0 if p > 0.0 else lam
    return Nonlinearity(lam=lam, a=a, q=q, p=p, b=rho_beta, f0=f0,
                        family=family, exploratory=exploratory)


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
        if nl.p != 0.0:
            raise ConfigError("g singular at u = 0 for this rho")
        e = q - k
        if e > 0 or nl.a == 0.0:
            power = 0.0
        elif e == 0:
            power = nl.a * _falling(q, k)
        else:
            raise ConfigError(f"u^{{q-k}} singular at 0 for q={q}, k={k}")
        return power + _rho(nl, u, k)
    return nl.a * _falling(q, k) * u ** (q - k) + _rho(nl, u, k)


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
        gp0 = nl.b if nl.q > 1.0 else (nl.a + nl.b if nl.q == 1.0 else 0.0)
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


# The march's overflow sentinel: source_terms saturates at it, ode clamps
# its slopes there and reads its radius-route budget off it. A saturated
# value blows up the trial step's error norm, so the step is retried shorter.
SOURCE_CAP = 1e100


def source_terms(nl: Nonlinearity) -> tuple:
    """(src, fprime): eval_source and eval_fprime_source as closures over
    the family's constants for the integrator's right-hand sides, saturated
    at SOURCE_CAP. Bitwise, src is min(eval_source, SOURCE_CAP) and fprime
    eval_fprime_source clamped to +-SOURCE_CAP; either is SOURCE_CAP where
    the reference raises OverflowError (u**q included), and a NaN passes.
    A saturated value only rejects the trial step that met it. g keeps
    eval_g's grouping a u^q + (p log u + b u), each rho term present exactly
    when _rho adds it. The cap is compared after exp: exp(log(cap)) > cap."""
    big, cap, exp, log = EXP_ARG_MAX, SOURCE_CAP, math.exp, math.log
    if nl.linear:
        lam = nl.lam

        def src(u, t):
            v = cap if -t > big else lam * u * exp(-t)
            return cap if v > cap else v

        return src, lambda u, t: src(1.0, t)  # f' = lam = f(1)

    llam, a, q, p, b = math.log(nl.lam), nl.a, nl.q, nl.p, nl.b
    aq, qm1, hp, hb = a * q, q - 1, p != 0.0, b != 0.0
    lf0 = math.log(nl.f0) if nl.f0 != 0.0 else None
    gp0 = b if q > 1.0 else (a + b if q == 1.0 else 0.0)  # g'(0+)

    def src(u, t):
        if u <= 0.0:
            if lf0 is None:
                return 0.0
            arg = lf0 - t
        else:
            rho = (p * log(u) if hp else 0.0) + (b * u if hb else 0.0)
            try:
                arg = llam + (a * u ** q + rho) - t
            except OverflowError:
                return cap
        v = cap if arg > big else exp(arg)
        return cap if v > cap else v

    def fprime(u, t):
        if u <= 0.0:
            if lf0 is None:
                return 0.0
            gp, arg = gp0, lf0 - t
        else:
            rho = (p * log(u) if hp else 0.0) + (b * u if hb else 0.0)
            try:
                # p/u + b is _rho's rho' also with p or b zero: 0/u is +0.0
                gp = aq * u ** qm1 + (p / u + b)
                arg = llam + (a * u ** q + rho) - t
            except OverflowError:
                return cap
            if gp > 0.0:
                arg += log(gp)
                v = cap if arg > big else exp(arg)
                return cap if v > cap else v
        v = cap if arg > big else gp * exp(arg)
        return cap if v > cap else (-cap if v < -cap else v)

    return src, fprime


def find_s0(nl: Nonlinearity) -> float:
    """Convexity threshold s0 read off a geometric scan: the last sample
    failing g' > 0 and g'' >= 0 (0.0 when none does), so the test still
    fails just above it and s0 lies up to one grid ratio below the true
    threshold. g'' >= 0 admits the pure exponential family (g'' identically
    zero); a sample where g' or g'' overflows fails the test."""
    if nl.linear:
        raise ConfigError("linear family has no convexity threshold")
    us = np.geomspace(*DEFAULT_S0_SCAN)
    ok = np.empty(len(us), dtype=bool)
    for i, u in enumerate(us):
        try:
            gp = eval_g(nl, float(u), 1)
            gpp = eval_g(nl, float(u), 2)
        except OverflowError:
            gp = gpp = math.nan
        ok[i] = gp > 0.0 and gpp >= 0.0
    if not ok[-1]:
        raise AdmissionError("no convexity threshold found within the scan range")
    bad = np.flatnonzero(~ok)
    return float(us[bad[-1]]) if len(bad) else 0.0


def convexity_floor(nl: Nonlinearity) -> float:
    """s0 for route switching and energy gating; inf when weak convexity
    never holds (then only the radius-variable route applies). Exact for
    a > 0, q >= 1 and p, b >= 0: the smallest double with g'' >= 0, a few
    ulps from the root (p / (a q (q-1)))^{1/q}. The scan serves other
    inputs and roots outside 1e+-150 (s^2 must stay normal)."""
    if nl.linear:
        return math.inf
    a, q, p = nl.a, nl.q, nl.p
    if a > 0.0 and q >= 1.0 and min(p, nl.b) >= 0:
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
        return find_s0(nl)
    except AdmissionError:
        return math.inf


def g_is_linear(nl: Nonlinearity) -> bool:
    """True when g(u) is exactly linear in u, so the tail comparison solution
    solves the full equation rather than an approximation of it."""
    if nl.linear:
        return False
    if nl.p != 0.0:
        return False
    return nl.q == 1.0 or nl.a == 0.0

