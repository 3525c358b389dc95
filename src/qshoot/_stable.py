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

# np.exp overflows past ~709.78; anything above this is an error upstream.
EXP_ARG_MAX = 709.0


def softplus(x):
    """log(1 + e^x), valid for any magnitude of x."""
    return np.logaddexp(0.0, x)


def sigma(x):
    """Logistic function e^x / (1 + e^x), from e^{-|x|} so that no
    exponential overflows."""
    if isinstance(x, float):
        # the same numpy exp, without the array machinery's cost per call
        e = np.exp(-abs(x))
        return 1.0 / (1.0 + e) if x >= 0.0 else e / (1.0 + e)
    e = np.exp(-np.abs(x))
    # [()] turns the 0-d result of a scalar x into a numpy float
    return np.where(np.greater_equal(x, 0.0), 1.0 / (1.0 + e),
                    e / (1.0 + e))[()]

