"""Probability-flow integration and mixture-conditioned posterior sampling.

The ODE is integrated in the sigma domain, dx/dsigma = -sigma * score(x, sigma),
stepping along the grid's descending sigmas from sigma_max to sigma_min with
Heun's second-order step (an Euler predictor and a trapezoidal corrector).

Separation conditions the flow of the N-1 free sources, held as the rows of
one array, on the observed mixture via the weakly-supervised posterior
gradient, and optionally clamps a known region after every step (inpainting).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core_signal import MixtureProblem
from .errors import ConfigurationError, NumericalDivergenceError, ShapeError
from .schedule import TimeGrid
from .score_models import ScoreModel

__all__ = [
    "Integrator",
    "SamplerConfig",
    "InpaintCondition",
    "sample_prior",
    "posterior_score",
    "sample_posterior",
    "apply_inpaint",
]


class Integrator(Enum):
    """Heun is the only rule; the enum and the configs' `integrator` fields stay
    because the acceptance tests, perfbench and diagnostics.json name them."""
    HEUN = "heun"


@dataclass(frozen=True)
class SamplerConfig:
    grid: TimeGrid
    integrator: Integrator = Integrator.HEUN
    seed: int = 0


@dataclass(frozen=True)
class InpaintCondition:
    """Clamp `values` onto the masked positions (plus matched noise) after each step.

    The values may be the previous segment's estimate (ar) or the reference
    (ar-tf, teacher forcing); the clamp treats both alike.
    """

    mask: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        mask = np.asarray(self.mask, dtype=bool)
        values = np.asarray(self.values, dtype=np.float64)
        if mask.shape != values.shape:
            raise ShapeError("mask and values must share shape")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "values", values)


def apply_inpaint(
    state: np.ndarray,
    condition: InpaintCondition,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Overwrite masked positions with values + sigma * eps; rest untouched."""
    state = np.asarray(state, dtype=np.float64)
    if condition.mask.shape != state.shape:
        raise ShapeError("condition does not match state length")
    out = state.copy()
    m = condition.mask
    noise = rng.standard_normal(int(m.sum())) if sigma > 0 else 0.0
    out[m] = condition.values[m] + sigma * noise
    return out


def _check_finite(x: np.ndarray, step: int, sigma: float) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalDivergenceError(step, float(sigma))


def _integrate(
    x: np.ndarray,
    velocity: Callable[[np.ndarray, float], np.ndarray],
    config: SamplerConfig,
    after_step: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
) -> np.ndarray:
    """Heun-step dx/dsigma = velocity(x, sigma) down config.grid's sigmas.

    `after_step(x, sigma)`, when given, maps each new state to the one kept.
    """
    sig = config.grid.sigmas
    for k in range(config.grid.steps):
        s0, s1 = sig[k], sig[k + 1]
        d0 = velocity(x, s0)
        d1 = velocity(x + (s1 - s0) * d0, s1)
        x = x + (s1 - s0) * 0.5 * (d0 + d1)
        _check_finite(x, k, s1)
        if after_step is not None:
            x = after_step(x, s1)
    return x


def sample_prior(model: ScoreModel, config: SamplerConfig) -> np.ndarray:
    """Integrate the flow from Gaussian noise at sigma_max down to sigma_min,
    at the model's native_length. Deterministic given config.seed.
    """
    if model.native_length is None:
        raise ConfigurationError("sample_prior needs a model with a native_length")
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal(model.native_length) * config.grid.sigmas[0]
    return _integrate(x, lambda x, s: -s * model.score(x, s), config)


def posterior_score(
    models: Sequence[ScoreModel],
    states: np.ndarray | Sequence[np.ndarray],
    mixture: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """Weakly-supervised conditional gradient for the free sources s_2..s_N.

    models[0] is the constrained source's prior; `states` holds the N-1 free
    sources as rows, and so does the returned gradient. For each free source i
    the gradient is score_i(s_i) - score_1(mixture - sum_j s_j): the second
    term picks up a minus sign from differentiating through the residual, and
    the result matches the gradient of log[prod_i p_i(s_i) * p_1(residual)].
    """
    n = len(models)
    if n < 2:
        raise ConfigurationError("need at least 2 sources (models)")
    if len(states) != n - 1:
        raise ConfigurationError(f"expected {n - 1} free states, got {len(states)}")
    mixture = np.asarray(mixture, dtype=np.float64)
    if any(np.shape(s) != mixture.shape for s in states):
        raise ShapeError("states must share the mixture's shape")
    states = np.asarray(states, dtype=np.float64)
    constrained = models[0].score(mixture - np.sum(states, axis=0), sigma)
    out = np.empty_like(states)
    for i in range(n - 1):
        np.subtract(models[i + 1].score(states[i], sigma), constrained, out=out[i])
    return out


def sample_posterior(
    problem: MixtureProblem,
    models: Sequence[ScoreModel],
    config: SamplerConfig,
    conditions: Optional[Sequence[InpaintCondition]] = None,
) -> np.ndarray:
    """Sample all N sources given the mixture, as the rows of one (N, L) array.

    The N-1 free sources (rows 1..N-1) are integrated under the posterior
    gradient; the constrained source, row 0, is mixture minus the free
    sources, so the rows always sum exactly to the mixture. `conditions`, when
    given, holds one InpaintCondition per free source (s_2..s_N), stacked into
    one (N-1, L) clamp applied with matched noise after every integrator step.
    """
    n = len(models)
    if n != problem.sources:
        raise ConfigurationError(f"problem declares {problem.sources} sources, got {n} models")
    mixture = problem.mixture.samples
    length = mixture.shape[0]
    for m in models:
        if m.native_length is not None and m.native_length != length:
            raise ShapeError(
                f"model native_length {m.native_length} != mixture length {length}"
            )

    rng = np.random.default_rng(config.seed)
    sigma_max = config.grid.sigmas[0]
    states = rng.standard_normal((n - 1, length)) * sigma_max
    clamp = None
    if conditions is not None:
        if len(conditions) != n - 1:
            raise ConfigurationError(
                f"expected {n - 1} conditions (one per free source), got {len(conditions)}"
            )
        if any(c.mask.shape != (length,) for c in conditions):
            raise ShapeError("condition mask length does not match the mixture")
        # one draw over the stack is, row-major, the per-row draws in turn
        stacked = InpaintCondition(
            np.stack([c.mask for c in conditions]), np.stack([c.values for c in conditions])
        )

        def clamp(states: np.ndarray, sigma: float) -> np.ndarray:
            return apply_inpaint(states, stacked, sigma, rng)

        states = clamp(states, sigma_max)
    states = _integrate(
        states,
        lambda x, s: -s * posterior_score(models, x, mixture, s),
        config,
        clamp,
    )
    return np.concatenate([[mixture - np.sum(states, axis=0)], states])
