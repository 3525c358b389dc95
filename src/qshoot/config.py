"""Problem-level configuration shared by the integrators and the sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError


@dataclass(frozen=True)
class ProblemConfig:
    """Dimension, singular weight and solver policy: step and event
    tolerances, the tail start depth c_tail and the outward march's reach
    r_max. The overflow budget of the radius route is fixed in ode.py."""

    n: int = 2
    beta_weight: float = 0.0
    rtol: float = 1e-10
    atol: float = 1e-12
    event_tol: float = 1e-12
    c_tail: float = 6.0
    r_max: float = 1e5

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise ConfigError(f"dimension n must be an integer >= 2, got {self.n}")
        if not 0.0 <= self.beta_weight < self.n:
            raise ConfigError(
                f"singular exponent must lie in [0, n), got {self.beta_weight}")
        for name in ("rtol", "atol", "event_tol", "c_tail", "r_max"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ConfigError(f"{name} must be positive, got {v}")

    def tighter(self, factor: float = 0.1) -> "ProblemConfig":
        """Copy with scaled step tolerances, for finite-difference cross-checks."""
        return replace(self, rtol=self.rtol * factor, atol=self.atol * factor)
