"""Scalar root finding, adaptive quadrature and sample grids, in plain
Python floats.

brentq is Brent's method (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4): inverse quadratic interpolation or the
secant step while it shrinks the bracket fast enough, bisection otherwise.
It keeps only floats, so a call leaves no garbage for the cycle collector.

quad is globally adaptive Gauss-Kronrod quadrature with the 10-point Gauss
and 21-point Kronrod pair and QUADPACK's error estimate (Piessens, de
Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*, 1983, routines QAG and
QK21). The integrand is called on one float node at a time.

linspace and geomspace build the sample grids the package scans, by the
usual formulas: evenly spaced, and evenly spaced in log10.
"""

from __future__ import annotations

import heapq
import math
import sys

from .errors import SolverError

_EPS = sys.float_info.epsilon
_BRENT_MAXITER = 100

# QK21 abscissae in (0, 1] (largest first) with their Kronrod weights; the
# odd-indexed ones are the 10-point Gauss nodes, weighted by _WG
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077208643474069, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WK0 = 0.149445554002916905664936468389821
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def brentq(f, a: float, b: float, xtol: float = 2e-12) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + 4 eps |x|, as scipy's default. SolverError when the ends do not
    bracket a root, f returns NaN, or 100 iterations do not converge."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if not (fpre < 0.0 < fcur or fcur < 0.0 < fpre):  # NaN fails too
        raise SolverError(f"root not bracketed: f({a})={fpre}, f({b})={fcur}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 4.0 * _EPS * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a denominator underflowed to 0 (|f| below about 1e-103)
                # bisects, as the infinite trial step does in scipy's C code
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den \
                    else math.inf
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise SolverError(f"root search met NaN at x={xcur}")
    raise SolverError(f"root search did not converge in {_BRENT_MAXITER} "
                      f"iterations (last x={xcur})")


def linspace(start: float, stop: float, num: int) -> list:
    """num evenly spaced floats from start to stop: start + i (stop -
    start)/(num - 1), the last of two or more stop itself."""
    if num < 2:
        return [start] * num
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def geomspace(start: float, stop: float, num: int) -> list:
    """num floats from start > 0 to stop, evenly spaced in log10, the ends
    exact. The inner points are C pow's 10 ** e, so another power routine
    may round some of them an ulp apart."""
    ends = linspace(math.log10(start), math.log10(stop), num)
    return [start, *(10.0 ** e for e in ends[1:-1]), stop][:num]


def _qk21(f, a: float, b: float) -> tuple:
    """QK21 on [a, b]: the Kronrod value and QUADPACK's error estimate."""
    centr, hlgth = (a + b) / 2.0, (b - a) / 2.0
    fc = f(centr)
    fv = [(w, f(centr - hlgth * x), f(centr + hlgth * x))
          for x, w in zip(_XK, _WK)]
    resk = _WK0 * fc + sum(w * (f1 + f2) for w, f1, f2 in fv)
    resg = sum(w * (f1 + f2) for w, (_, f1, f2) in zip(_WG, fv[1::2]))
    reskh, absh = resk / 2.0, abs(hlgth)
    resabs = absh * (_WK0 * abs(fc) + sum(
        w * (abs(f1) + abs(f2)) for w, f1, f2 in fv))
    resasc = absh * (_WK0 * abs(fc - reskh) + sum(
        w * (abs(f1 - reskh) + abs(f2 - reskh)) for w, f1, f2 in fv))
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, 200.0 * err / resasc) ** 1.5
    if resabs > sys.float_info.min / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * hlgth, err


def quad(f, a: float, b: float, epsabs: float = 1.49e-8,
         epsrel: float = 1.49e-8, limit: int = 50) -> tuple:
    """Integral of f over [a, b] and its error estimate: bisect the
    interval of largest error until the summed estimate meets
    max(epsabs, epsrel |integral|) or `limit` intervals exist."""
    a, b = float(a), float(b)
    val, err = _qk21(f, a, b)
    # heap of (-error, lo, hi, value): the worst interval is popped first
    parts = [(-err, a, b, val)]
    total, err_sum = val, err
    while err_sum > max(epsabs, epsrel * abs(total)) and len(parts) < limit:
        e, lo, hi, v = heapq.heappop(parts)
        mid = (lo + hi) / 2.0
        (v1, e1), (v2, e2) = _qk21(f, lo, mid), _qk21(f, mid, hi)
        heapq.heappush(parts, (-e1, lo, mid, v1))
        heapq.heappush(parts, (-e2, mid, hi, v2))
        total += (v1 + v2) - v
        err_sum += (e1 + e2) + e
    return math.fsum(p[3] for p in parts), math.fsum(-p[0] for p in parts)
