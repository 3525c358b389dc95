"""Overflow-safe scalar helpers shared by the solvers and the closed forms.

Everything that involves e^{(T1-t)/(n-1)} runs through these: T1 grows like
g(gamma), so the exponent can reach thousands and the naive exponential is
useless. All identities are therefore written in terms of the exponent x
itself, softplus(x) = log(1+e^x) and sigma(x) = e^x/(1+e^x). Both give
the same bits on an array as on each of its elements, so the closed forms
may be evaluated on a whole grid at once.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

# np.exp overflows past ~709.78; anything above this is an error upstream.
EXP_ARG_MAX = 709.0


def softplus(x):
    """log(1 + e^x), valid for any magnitude of x."""
    return np.logaddexp(0.0, x)


def sigma(x):
    """Logistic function e^x / (1 + e^x)."""
    return expit(x)

