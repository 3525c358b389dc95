"""Overflow-safe scalar helpers shared by the solvers and the closed forms.

Everything that involves e^{(T1-t)/(n-1)} runs through these: T1 grows like
g(gamma), so the exponent can reach thousands and the naive exponential is
useless. All identities are therefore written in terms of the exponent x
itself, softplus(x) = log(1+e^x) and sigma(x) = e^x/(1+e^x). Both take a
float and exponentiate only -|x|, so math.exp never overflows in them.
"""

from __future__ import annotations

import math

# math.exp raises OverflowError past ~709.78; more is an error upstream.
EXP_ARG_MAX = 709.0


def softplus(x: float) -> float:
    """log(1 + e^x), valid for any magnitude of x."""
    return (x if x > 0.0 else 0.0) + math.log1p(math.exp(-abs(x)))


def sigma(x: float) -> float:
    """Logistic function e^x / (1 + e^x), from e^{-|x|} so that no
    exponential overflows."""
    e = math.exp(-abs(x))
    return 1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e)
