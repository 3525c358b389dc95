import math
import warnings

import numpy as np
import pytest
from hypothesis import settings

from qshoot._numeric import brentq
from qshoot.config import ProblemConfig
from qshoot.nonlinearity import (SOURCE_CAP, eval_fprime_source, eval_source,
                                 make_nonlinearity)

# Hypothesis imports its patch writer, and libcst with it, only when a
# property fails. libcst then warns a DeprecationWarning, which the pytest
# warning filters turn into an INTERNALERROR that ends the whole run.
# Importing it here once, with only that warning ignored, keeps a failing
# property an ordinary test failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst absent: Hypothesis writes no patches
        pass


# every property draws the same examples on every run, so a tree passes or
# fails the suite the same way each time
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def cfg2():
    """The default solver settings; the dimension is each call's argument."""
    return ProblemConfig()


@pytest.fixture(scope="session")
def nl_linear():
    return make_nonlinearity("linear")


@pytest.fixture(scope="session")
def nl_exp():
    return make_nonlinearity("exp")


@pytest.fixture(scope="session")
def nl_square():
    """f = lambda e^{u^2}"""
    return make_nonlinearity("pow_exp", q=2.0)


@pytest.fixture(scope="session")
def nl_three_halves():
    """f = lambda e^{u^{3/2}}"""
    return make_nonlinearity("pow_exp", q=1.5)


@pytest.fixture(scope="session")
def nl_family_ii():
    """f = lambda u e^{u^{3/2} + u}; log term plus linear drift."""
    return make_nonlinearity("pow_exp", q=1.5, p=1.0, rho_beta=1.0)


def _saturated(ref, lower):
    """The march's overflow policy over a reference term: SOURCE_CAP where
    it raises OverflowError, else min(value, SOURCE_CAP), clamped from
    below at -SOURCE_CAP too when `lower`; min and max let a NaN through."""
    def term(*args):
        try:
            v = ref(*args)
        except OverflowError:
            return SOURCE_CAP
        return min(max(v, -SOURCE_CAP) if lower else v, SOURCE_CAP)
    return term


# what the source text spliced into the march gives, bit for bit
saturated_source = _saturated(eval_source, lower=False)
saturated_fprime = _saturated(eval_fprime_source, lower=True)


def bessel_j0(x, terms=60):
    """Series J0(x) = sum (-x^2/4)^k / (k!)^2, independent of the solver."""
    acc = 0.0
    term = 1.0
    for k in range(terms):
        acc += term
        term *= -(x * x) / 4.0 / ((k + 1.0) ** 2)
        if abs(term) < 1e-18 * max(1.0, abs(acc)):
            break
    return acc


def bessel_first_zero(lo=2.0, hi=3.0):
    """First positive zero of J0 by bisection on the series."""
    flo, fhi = bessel_j0(lo), bessel_j0(hi)
    assert flo > 0.0 > fhi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if bessel_j0(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def v2_largest_zero(s, t_hi, t_lo, count=400):
    """Largest zero of the closed-form V2 of snapshot `s` in [t_lo, t_hi]:
    the first sign change over `count` even samples down from t_hi, refined
    by brentq to 1e-13. None when no pair of samples brackets one."""
    ts = np.linspace(t_hi, t_lo, count).tolist()
    v2 = [s.v2(t)[0] for t in ts]
    for i in range(count - 1):
        if v2[i] * v2[i + 1] < 0.0:
            return brentq(lambda t: s.v2(t)[0], ts[i + 1], ts[i], xtol=1e-13)
    return None
