"""Problem-level configuration shared by the integrators and the sweeps."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError


@dataclass(frozen=True)
class ProblemConfig:
    """Dimension, singular weight and solver policy.

    exponent_cap guards the radius-variable route, where f(gamma) itself is
    formed (ode.py's overflow sentinel caps it near 220); the log-radius
    route only forms g(y) - t, bounded along admissible trajectories.
    """

    n: int = 2
    beta_weight: float = 0.0
    rtol: float = 1e-10
    atol: float = 1e-12
    event_tol: float = 1e-12
    exponent_cap: float = 600.0
    c_tail: float = 6.0
    gamma_switch: float = 1.0
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
        if self.exponent_cap <= 0 or self.exponent_cap > 700.0:
            raise ConfigError(
                f"exponent cap must lie in (0, 700], got {self.exponent_cap}")

    def tighter(self, factor: float = 0.1) -> "ProblemConfig":
        """Copy with scaled step tolerances, for finite-difference cross-checks."""
        return replace(self, rtol=self.rtol * factor, atol=self.atol * factor)
