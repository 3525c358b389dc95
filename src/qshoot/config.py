"""Problem-level configuration shared by the integrators and the sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError

# a few eps: below it a march's steps and their stages grow without bound
RTOL_FLOOR = 1e-15


def check_dimension(n, beta: float = 0.0) -> None:
    """Refuse a dimension n that is not an integer >= 2, or a weight
    exponent beta outside [0, n). n is each call's own argument, so every
    entry point that reads it checks it here."""
    if not (n >= 2 and float(n).is_integer()):
        raise ConfigError(f"dimension n must be an integer >= 2, got {n}")
    if not 0.0 <= beta < n:
        raise ConfigError(
            f"singular weight exponent beta_weight must lie in [0, n) "
            f"for n={n}, got {beta}")


@dataclass(frozen=True)
class ProblemConfig:
    """Singular weight exponent and solver policy: the step tolerance rtol,
    RTOL_FLOOR or above, and the tail start depth c_tail. rtol sets every
    tolerance of a march, the absolute ones and the stop's too (see
    ode._march). The dimension is each call's argument (see
    check_dimension); the outward march's reach and the overflow budget are
    constants of ode.py. Frozen, so a shared default instance is safe."""

    beta_weight: float = 0.0
    rtol: float = 1e-10
    c_tail: float = 6.0

    def __post_init__(self):
        if not 0.0 <= self.beta_weight < math.inf:
            raise ConfigError(
                f"singular weight exponent beta_weight must be a finite "
                f"number >= 0, got {self.beta_weight}")
        for name in ("rtol", "c_tail"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive, got {v}")
        if self.rtol < RTOL_FLOOR:
            raise ConfigError(f"rtol must be at least RTOL_FLOOR = "
                              f"{RTOL_FLOOR:g}, got {self.rtol:g}")

    def tighter(self) -> "ProblemConfig":
        """Copy with a ten-times-tighter step tolerance, for the
        finite-difference cross-checks."""
        return replace(self, rtol=self.rtol * 0.1)
