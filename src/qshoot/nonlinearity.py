"""Source terms f(u) = lam * e^{g(u)} with g(u) = a*u^q + p*log(u) + b*u.

The lower-order part rho(u) = p*log(u) + b*u is carried as the two
coefficients p and b of the Nonlinearity; `_rho` is its derivative table.
Derivatives of g up to order three are exact, which the flux-identity
checks rely on.

The linear family covers the non-exponential special case f(u) = lam*u used
as an oracle (the radial problem then has a closed-form first zero for n = 2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from ._stable import EXP_ARG_MAX
from .config import check_dimension
from .errors import AdmissionError, ConfigError


@dataclass(frozen=True)
class Nonlinearity:
    """Parameters of f = lam e^{a u^q + p log u + b u}, or lam u if linear."""

    lam: float = 1.0
    a: float = 1.0
    q: float = 2.0
    p: float = 0.0
    b: float = 0.0
    family: str = "pow_exp"

    @property
    def linear(self) -> bool:
        return self.family == "linear"

    @property
    def f0(self) -> float:
        """f(0+): a log term kills the source at 0, otherwise g(0+) = 0."""
        return 0.0 if self.linear or self.p > 0.0 else self.lam

    def describe(self, n: int) -> dict:
        """JSON meta parameter dict, tagged when exploratory(self, n) holds."""
        d = {"family": self.family, "lambda": self.lam}
        if not self.linear:
            d.update({"a": self.a, "q": self.q, "p": self.p, "rho_beta": self.b})
        if exploratory(self, n):
            d["exploratory"] = True
        return d


def exploratory(nl: Nonlinearity, n: int) -> bool:
    """Whether an exponential nl breaks a standing hypothesis in dimension
    n: q in (1, n/(n-1)] (exp's q = 1 is out), a > 0 or rho_beta >= 0."""
    check_dimension(n)
    return not nl.linear and (nl.q <= 1.0 or nl.q > n / (n - 1.0)
                              or nl.a <= 0.0 or nl.b < 0.0)


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
                      p: float = 0.0, rho_beta: float = 0.0,
                      lam: float = 1.0) -> Nonlinearity:
    """Build one of the named families.

    pow_exp  g(u) = a*u^q + p*log(u) + rho_beta*u
    exp      g(u) = a*u (q = 1, classical Gelfand-type source)
    linear   f(u) = lam*u, no exponential structure

    Parameters outside the standard window are allowed; `exploratory(nl, n)`
    tells them apart in a given dimension n.
    """
    _require_finite(("lambda", lam), ("a", a), ("q", q), ("p", p),
                    ("rho_beta", rho_beta))
    if lam <= 0.0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    if family == "linear":
        return Nonlinearity(lam=lam, family="linear")
    if family == "exp":
        q, p, rho_beta = 1.0, 0.0, 0.0
    elif family != "pow_exp":
        raise ConfigError(f"unknown family {family!r}")
    if a <= 0.0 and rho_beta <= 0.0:
        raise ConfigError("need a positive leading coefficient in g")
    if p < 0.0:
        raise ConfigError(f"log coefficient p must be >= 0, got {p}")
    return Nonlinearity(lam=lam, a=a, q=q, p=p, b=rho_beta, family=family)


def with_lambda(nl: Nonlinearity, lam: float) -> Nonlinearity:
    """Same nonlinearity with the multiplier replaced."""
    _require_finite(("lambda", lam))
    if lam <= 0.0:
        raise ConfigError(f"lambda must be positive, got {lam}")
    return replace(nl, lam=lam)


def eval_g(nl: Nonlinearity, u: float, k: int = 0) -> float:
    """g and its derivatives, exact for the built-in families."""
    if nl.linear:
        raise ConfigError("linear family has no exponent function g")
    if not 0 <= k <= 3:
        raise ConfigError(f"derivative order k={k} outside 0..3")
    if u < 0.0:
        raise ConfigError(f"g evaluated at negative u={u}")
    q = nl.q
    # a zero coefficient a q (q-1)...(q-k+1) leaves the rho part alone
    coef = nl.a * math.prod(q - j for j in range(k))
    if u == 0.0:
        if nl.p != 0.0:
            raise ConfigError("g singular at u = 0 for this rho")
        if q < k and coef != 0.0:
            raise ConfigError(f"u^{{q-k}} singular at 0 for q={q}, k={k}")
    try:
        power = coef * u ** (q - k) if coef != 0.0 else 0.0
        return power + _rho(nl, u, k)
    except ZeroDivisionError:  # p / u^k with u^k underflowing to 0
        raise AdmissionError(f"g^({k}) has no double value at u={u}: "
                             f"u^{k} underflows to 0") from None


def log_f(nl: Nonlinearity, u: float) -> float:
    """log f(u) for u > 0; the admission budget checks run through this."""
    if nl.linear:
        if u <= 0.0:
            raise ConfigError("log f undefined at u <= 0 for the linear family")
        return math.log(nl.lam) + math.log(u)
    return math.log(nl.lam) + eval_g(nl, u, 0)


def _exp(arg: float) -> float:
    """e^arg, raising OverflowError where it leaves the double range."""
    if arg > EXP_ARG_MAX:
        raise OverflowError(f"exponent {arg:.6g} exceeds representable range")
    return math.exp(arg)


def eval_source(nl: Nonlinearity, u: float, t: float) -> float:
    """f(u) e^{-t} as a single exponentiation of log(lam) + g(u) - t.

    For u <= 0 (transient event overshoot) the f(0) branch applies: zero when
    the source vanishes at the origin, otherwise the u -> 0+ limit.
    """
    if nl.linear:
        return nl.lam * u * _exp(-t)
    if u <= 0.0:
        return 0.0 if nl.f0 == 0.0 else _exp(math.log(nl.f0) - t)
    return _exp(math.log(nl.lam) + eval_g(nl, u, 0) - t)


def eval_fprime_source(nl: Nonlinearity, u: float, t: float) -> float:
    """f'(u) e^{-t}, the coefficient in the variational equation."""
    if nl.linear:
        return nl.lam * _exp(-t)
    if u <= 0.0:
        if nl.f0 == 0.0:
            return 0.0
        # f'(0+) = f(0) * g'(0+); only the linear part of g survives at 0
        gp0 = nl.b if nl.q > 1.0 else (nl.a + nl.b if nl.q == 1.0 else 0.0)
        return gp0 * _exp(math.log(nl.f0) - t)
    gp = eval_g(nl, u, 1)
    arg = math.log(nl.lam) + eval_g(nl, u, 0) - t
    return _exp(arg + math.log(gp)) if gp > 0.0 else gp * _exp(arg)


# The march's overflow sentinel: SOURCE_TEXT saturates at it, ode clamps
# its slopes there and reads its radius-route budget off it. A saturated
# value blows up the trial step's error norm, so the step is retried shorter.
SOURCE_CAP = 1e100

# f(u) e^{-t} and f'(u) e^{-t} of each family kind as text over {u} and {t}
# leaving the value, saturated at cap, in {out}, its other free names those
# of source_constants. ode splices the pair into its right-hand sides, the
# only place it is compiled, f' after f in one scope: the exp-form f' reads
# log f(u), `lg`, that f leaves, and takes its own {t}. Bitwise, f is
# min(eval_source, cap) and f' eval_fprime_source clamped to +-cap; either
# is cap where the reference raises OverflowError (u**q included), and a
# NaN passes, in {t} too. g keeps eval_g's grouping a u^q + (p log u +
# b u), each rho term present when _rho adds it; p/u + b is _rho's rho'
# also with p or b zero (0/u is +0.0). The cap is compared after exp:
# exp(log(cap)) > cap.
_LINEAR_SOURCE = ("v = cap if -{t} > big else lam * {u} * exp(-{t})\n"
                  "{out} = cap if v > cap else v")
SOURCE_TEXT = {
    # f' = lam = f(1)
    "linear": (_LINEAR_SOURCE, _LINEAR_SOURCE.replace("{u}", "1.0")),
    "exp": ("""\
if {u} <= 0.0:
    lg = -inf if lf0 is None else lf0
else:
    try:
        lg = llam + (a * {u} ** q + ((p * log({u}) if hp else 0.0)
                                     + (b * {u} if hb else 0.0)))
    except OverflowError:
        lg = inf
arg = lg - {t}
v = cap if arg > big else exp(arg)
{out} = cap if v > cap else v""", """\
arg = lg - {t}
if {u} <= 0.0:
    v = 0.0 if lf0 is None else cap if arg > big else gp0 * exp(arg)
else:
    try:
        gp = aq * {u} ** qm1 + (p / {u} + b)
        if gp > 0.0:
            arg += log(gp)
        v = cap if arg > big else exp(arg) if gp > 0.0 else gp * exp(arg)
    except OverflowError:
        v = cap
{out} = cap if v > cap else (-cap if v < -cap else v)"""),
}


def source_constants(nl: Nonlinearity) -> tuple:
    """(kind, constants): the SOURCE_TEXT key of nl's family and the values
    of that text's free names; gp0 is g'(0+)."""
    out = {"cap": SOURCE_CAP, "big": EXP_ARG_MAX}
    if nl.linear:
        return "linear", dict(out, lam=nl.lam)
    a, q, p, b = nl.a, nl.q, nl.p, nl.b
    return "exp", dict(out, llam=math.log(nl.lam), a=a, q=q, p=p, b=b,
                       hp=p != 0.0, hb=b != 0.0, aq=a * q, qm1=q - 1,
                       lf0=math.log(nl.f0) if nl.f0 != 0.0 else None,
                       gp0=b if q > 1.0 else (a + b if q == 1.0 else 0.0))


def _first_holding(test, s: float, lo: float, hi: float) -> float:
    """The first double at which `test` holds: walked by up to 16 ulps from
    s (unless NaN), or else bisected down to adjacent doubles between lo,
    where it fails, and hi, where it holds; inf when they do not."""
    for _ in range(16 if s == s else 0):
        if not test(s):
            s = math.nextafter(s, math.inf)
        elif test(below := math.nextafter(s, 0.0)):
            s = below
        else:
            return s
    if test(lo) or not test(hi):
        return math.inf
    while (m := lo + (hi - lo) / 2.0) not in (lo, hi):
        lo, hi = (lo, m) if test(m) else (m, hi)
    return hi


def convexity_floor(nl: Nonlinearity) -> float:
    """s0 for route switching and energy gating: the smallest double from
    which g' > 0 and g'' >= 0 hold; inf when they hold on no tail (then only
    the radius-variable route applies). With c = a q (q-1), u^2 g'' =
    c u^q - p: g'' >= 0 everywhere when p = 0 <= c, from s = (p/c)^{1/q} on
    when p, c, q > 0, and on no tail otherwise. Past s g' increases; when it
    is not positive at s, s0 is its root: r = (-b/(a q))^{1/(q-1)} when
    p = 0, else within [s, 2r]. Each threshold is the first double passing
    the computed test, walked to from its closed form (s only from
    sqrt(float min) ~ 1.5e-154 to 1e150, where s^2 is normal) or bisected
    on [s/2, 2s], [r/2, 2r] or [s, 2r]; an overflowing one, or one not so
    bracketed, is inf."""
    if nl.linear:
        return math.inf
    a, q, p, b = nl.a, nl.q, nl.p, nl.b
    c = a * q * (q - 1.0)

    def rising(u):
        try:
            return eval_g(nl, u, 1) > 0.0
        except OverflowError:  # g' is past the double range: no certificate
            return False
    try:
        if p == 0.0 and c >= 0.0:
            s = 0.0
        elif min(p, c, q) > 0.0:  # g is singular at 0: s is at least 5e-324
            s = max((p / c) ** (1.0 / q) if p / c >= sys.float_info.min else
                    math.exp((math.log(p) - math.log(c)) / q), math.ulp(0.0))
            if math.sqrt(sys.float_info.min) < s < 1e150:
                s = _first_holding(lambda u: eval_g(nl, u, 2) >= 0.0, s,
                                   s / 2.0, 2.0 * s)
            if rising(s):
                return s
        else:
            return math.inf
        x = -b / (a * q) if q != 1.0 and a * q != 0.0 else -1.0
        if not x > 0.0:  # with p = 0, g' = a q u^{q-1} + b keeps one sign
            return 0.0 if p == 0.0 and rising(1.0) else math.inf
        r = x ** (1.0 / (q - 1.0))
        lo, start = (s, math.nan) if p > 0.0 else (r / 2.0, r)
        if not 0.0 < lo < 2.0 * r < math.inf:  # r/2 = 0: all doubles pass
            return math.inf if lo else 0.0
        return _first_holding(rising, start, lo, 2.0 * r)
    except OverflowError:
        return math.inf


def g_is_linear(nl: Nonlinearity) -> bool:
    """True when g(u) is exactly linear in u, so the tail comparison solution
    solves the full equation rather than an approximation of it."""
    return not nl.linear and nl.p == 0.0 and (nl.q == 1.0 or nl.a == 0.0)

