"""Scalar root finding and adaptive quadrature, in plain Python and numpy.

brentq is Brent's method (R. P. Brent, *Algorithms for Minimization
without Derivatives*, 1973, ch. 4): inverse quadratic interpolation or the
secant step while it shrinks the bracket fast enough, bisection otherwise.
It keeps only floats, so a call leaves no garbage for the cycle collector.

quad is globally adaptive Gauss-Kronrod quadrature with the 10-point Gauss
and 21-point Kronrod pair and QUADPACK's error estimate (Piessens, de
Doncker-Kapenga, Ueberhuber & Kahaner, *QUADPACK*, 1983, routines QAG and
QK21). The integrand is called on a whole array of nodes: the 21 of the
first interval, then the 42 of each bisected pair.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .errors import SolverError

_EPS = np.finfo(float).eps
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

# the 21 nodes on [-1, 1] in ascending order, and the rows (Kronrod, Gauss)
# of weights over them
_NODES = np.array([-x for x in _XK] + [0.0] + list(reversed(_XK)))
_W = np.zeros((2, 21))
_W[0] = list(_WK) + [_WK0] + list(reversed(_WK))
_W[1, 1:10:2] = _WG
_W[1, 11:20:2] = tuple(reversed(_WG))


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = 4.0 * _EPS) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + rtol |x|. SolverError when the ends do not bracket a root, f
    returns NaN, or 100 iterations do not converge."""
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
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
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


def _qk21(f, lo: np.ndarray, hi: np.ndarray):
    """QK21 on each interval [lo[i], hi[i]] from one call of f on all their
    nodes: the Kronrod values and QUADPACK's error estimates."""
    centr, hlgth = (lo + hi) / 2.0, (hi - lo) / 2.0
    fv = np.asarray(f((centr[:, None] + hlgth[:, None] * _NODES).ravel()),
                    dtype=float).reshape(len(lo), 21)
    resk, resg = (fv @ _W.T).T
    absh = np.abs(hlgth)
    resabs = np.abs(fv) @ _W[0] * absh
    resasc = np.abs(fv - resk[:, None] / 2.0) @ _W[0] * absh
    err = np.abs((resk - resg) * hlgth)
    scaled = resasc * np.minimum(1.0, 200.0 * err / np.where(
        resasc > 0.0, resasc, 1.0)) ** 1.5
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    err = np.where(resabs > np.finfo(float).tiny / (50.0 * _EPS),
                   np.maximum(50.0 * _EPS * resabs, err), err)
    return resk * hlgth, err


def quad(f, a: float, b: float, epsabs: float = 1.49e-8,
         epsrel: float = 1.49e-8, limit: int = 50) -> tuple:
    """Integral of the vectorized f over [a, b] and its error estimate:
    bisect the interval of largest error until the summed estimate meets
    max(epsabs, epsrel |integral|) or `limit` intervals exist."""
    a, b = float(a), float(b)
    val, err = _qk21(f, np.array([a]), np.array([b]))
    # heap of (-error, lo, hi, value): the worst interval is popped first
    parts = [(-float(err[0]), a, b, float(val[0]))]
    total, err_sum = float(val[0]), float(err[0])
    while err_sum > max(epsabs, epsrel * abs(total)) and len(parts) < limit:
        e, lo, hi, v = heapq.heappop(parts)
        mid = (lo + hi) / 2.0
        vals, errs = _qk21(f, np.array([lo, mid]), np.array([mid, hi]))
        heapq.heappush(parts, (-float(errs[0]), lo, mid, float(vals[0])))
        heapq.heappush(parts, (-float(errs[1]), mid, hi, float(vals[1])))
        total += float(vals[0] + vals[1]) - v
        err_sum += float(errs[0] + errs[1]) + e
    return math.fsum(p[3] for p in parts), math.fsum(-p[0] for p in parts)
