import math
import warnings

import numpy as np
import pytest

from qshoot.config import ProblemConfig
from qshoot.nonlinearity import make_nonlinearity

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
    return make_nonlinearity("pow_exp", q=1.5, p=1.0, rho_beta=1.0, n=2)


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
