"""Noise schedules and their discretization into sampling grids.

Time is normalized to [0, 1]; the log-linear schedule interpolates
geometrically between sigma_min at t = 0 and sigma_max at t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_integer

__all__ = ["NoiseSchedule", "TimeGrid", "make_grid"]

# every sigma lies below this, so that sigma^2, which the scores add to the
# prior variances, is finite
MAX_SIGMA = float(np.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True)
class NoiseSchedule:
    sigma_min: float = 0.01
    sigma_max: float = 10.0

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max < MAX_SIGMA):
            raise ConfigurationError(
                "need 0 < sigma_min < sigma_max with a finite sigma_max^2, "
                f"got {self.sigma_min}, {self.sigma_max}"
            )


@dataclass(frozen=True)
class TimeGrid:
    """Strictly descending noise levels sigma_0 > ... > sigma_steps."""

    sigmas: np.ndarray

    def __post_init__(self):
        sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if sigmas.ndim != 1 or sigmas.size < 2:
            raise ConfigurationError("grid must be 1-D with at least 2 nodes")
        # written so that a NaN difference fails
        if not np.all(np.diff(sigmas) < 0):
            raise ConfigurationError("grid must be strictly descending")
        object.__setattr__(self, "sigmas", sigmas)

    @property
    def steps(self) -> int:
        return self.sigmas.size - 1


def make_grid(schedule: NoiseSchedule, steps: int) -> TimeGrid:
    """Uniform time grid from t = 1 down to t = 0 (steps + 1 nodes), with
    sigma(t) = sigma_min^(1-t) * sigma_max^t at each node."""
    check_integer("steps", steps, 1)
    times = np.linspace(1.0, 0.0, steps + 1)
    sigmas = schedule.sigma_min ** (1.0 - times) * schedule.sigma_max**times
    # pin the endpoints exactly
    sigmas[0] = schedule.sigma_max
    sigmas[-1] = schedule.sigma_min
    return TimeGrid(sigmas)
