"""Noise schedules and their discretization into sampling grids.

Time is normalized to [0, 1]; the log-linear schedule interpolates
geometrically between sigma_min at t = 0 and sigma_max at t = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["NoiseSchedule", "TimeGrid", "sigma_at", "make_grid"]


@dataclass(frozen=True)
class NoiseSchedule:
    sigma_min: float = 0.01
    sigma_max: float = 10.0

    def __post_init__(self):
        if not (0 < self.sigma_min < self.sigma_max):
            raise ConfigurationError(
                f"need 0 < sigma_min < sigma_max, got {self.sigma_min}, {self.sigma_max}"
            )


@dataclass(frozen=True)
class TimeGrid:
    """Descending times t_0 = 1 > ... > t_steps = 0 with matching sigmas."""

    steps: int
    times: np.ndarray
    sigmas: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        sigmas = np.asarray(self.sigmas, dtype=np.float64)
        if times.shape != (self.steps + 1,) or sigmas.shape != (self.steps + 1,):
            raise ConfigurationError("grid arrays must have steps+1 nodes")
        if np.any(np.diff(times) >= 0) or np.any(np.diff(sigmas) >= 0):
            raise ConfigurationError("grid must be strictly descending")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "sigmas", sigmas)


def _sigma(schedule: NoiseSchedule, t):
    """sigma_min^(1-t) * sigma_max^t, for a float or an array of times."""
    return schedule.sigma_min ** (1.0 - t) * schedule.sigma_max**t


def sigma_at(schedule: NoiseSchedule, t: float) -> float:
    """Evaluate sigma(t) for t in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return float(_sigma(schedule, t))


def make_grid(schedule: NoiseSchedule, steps: int) -> TimeGrid:
    """Uniform time grid from t = 1 down to t = 0 (steps + 1 nodes)."""
    if steps < 1:
        raise ConfigurationError(f"steps must be >= 1, got {steps}")
    times = np.linspace(1.0, 0.0, steps + 1)
    sigmas = _sigma(schedule, times)
    # pin the endpoints exactly
    sigmas[0] = schedule.sigma_max
    sigmas[-1] = schedule.sigma_min
    return TimeGrid(steps=steps, times=times, sigmas=sigmas)
