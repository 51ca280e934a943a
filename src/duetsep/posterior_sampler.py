"""Probability-flow integration and mixture-conditioned posterior sampling.

The ODE is integrated in the sigma domain, dx/dsigma = -sigma * score(x, sigma),
stepping along the grid's descending sigmas from sigma_max to sigma_min. Euler
and Heun (trapezoidal corrector) discretizations are provided; Heun is the
default everywhere.

Separation conditions the flow of the N-1 free sources on the observed mixture
via the weakly-supervised posterior gradient, and optionally clamps a known
region after every step (inpainting).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence

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
    EULER = "euler"
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
    rng: int | np.random.Generator,
) -> np.ndarray:
    """Overwrite masked positions with values + sigma * eps; rest untouched."""
    state = np.asarray(state, dtype=np.float64)
    if condition.mask.shape != state.shape:
        raise ShapeError("condition does not match state length")
    if not np.any(condition.mask):
        return state.copy()
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    out = state.copy()
    m = condition.mask
    noise = gen.standard_normal(int(m.sum())) if sigma > 0 else 0.0
    out[m] = condition.values[m] + sigma * noise
    return out


def _check_finite(x: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalDivergenceError(
            f"non-finite state at integrator step {step}", step=step
        )


def sample_prior(model: ScoreModel, config: SamplerConfig, length: Optional[int] = None) -> np.ndarray:
    """Integrate the flow from Gaussian noise at sigma_max down to sigma_min.

    Deterministic given config.seed. `length` is required only when the model
    has no native_length.
    """
    n = model.native_length if model.native_length is not None else length
    if n is None:
        raise ConfigurationError("model has no native_length; pass length explicitly")
    sig = config.grid.sigmas
    rng = np.random.default_rng(config.seed)
    x = rng.standard_normal(n) * sig[0]
    for k in range(config.grid.steps):
        s0, s1 = sig[k], sig[k + 1]
        d0 = -s0 * model.score(x, s0)
        x_euler = x + (s1 - s0) * d0
        if config.integrator is Integrator.HEUN:
            d1 = -s1 * model.score(x_euler, s1)
            x = x + (s1 - s0) * 0.5 * (d0 + d1)
        else:
            x = x_euler
        _check_finite(x, k)
    return x


def posterior_score(
    models: Sequence[ScoreModel],
    states: Sequence[np.ndarray],
    mixture: np.ndarray,
    sigma: float,
) -> List[np.ndarray]:
    """Weakly-supervised conditional gradient for the free sources s_2..s_N.

    models[0] is the constrained source's prior. For each free source i the
    gradient is score_i(s_i) - score_1(mixture - sum_j s_j): the second term
    picks up a minus sign from differentiating through the residual, and the
    result matches the gradient of log[prod_i p_i(s_i) * p_1(residual)].
    """
    n = len(models)
    if n < 2:
        raise ConfigurationError("need at least 2 sources (models)")
    if len(states) != n - 1:
        raise ConfigurationError(f"expected {n - 1} free states, got {len(states)}")
    mixture = np.asarray(mixture, dtype=np.float64)
    states = [np.asarray(s, dtype=np.float64) for s in states]
    for s in states:
        if s.shape != mixture.shape:
            raise ShapeError("states must share the mixture's shape")
    residual = mixture - np.sum(states, axis=0)
    constrained = models[0].score(residual, sigma)
    return [
        models[i + 1].score(states[i], sigma) - constrained
        for i in range(n - 1)
    ]


def sample_posterior(
    problem: MixtureProblem,
    models: Sequence[ScoreModel],
    config: SamplerConfig,
    conditions: Optional[Sequence[Optional[InpaintCondition]]] = None,
) -> List[np.ndarray]:
    """Sample all N sources given the mixture.

    The N-1 free sources are integrated under the posterior gradient; the
    constrained source is emitted as mixture minus the free sources, so the
    outputs always sum exactly to the mixture. `conditions`, when given, holds
    one optional InpaintCondition per free source (s_2..s_N); masked positions
    are re-clamped with matched noise after every integrator step.
    """
    n = len(models)
    if n != problem.mixing.sources:
        raise ConfigurationError(
            f"problem declares {problem.mixing.sources} sources, got {n} models"
        )
    mixture = problem.mixture.samples
    length = mixture.shape[0]
    for m in models:
        if m.native_length is not None and m.native_length != length:
            raise ShapeError(
                f"model native_length {m.native_length} != mixture length {length}"
            )
    if conditions is not None:
        if len(conditions) != n - 1:
            raise ConfigurationError(
                f"expected {n - 1} conditions (one per free source), got {len(conditions)}"
            )
        for c in conditions:
            if c is not None and c.mask.shape[0] != length:
                raise ShapeError("condition mask length does not match the mixture")
    else:
        conditions = [None] * (n - 1)

    sig = config.grid.sigmas
    rng = np.random.default_rng(config.seed)
    states = [rng.standard_normal(length) * sig[0] for _ in range(n - 1)]
    states = [
        apply_inpaint(s, c, sig[0], rng) if c is not None else s
        for s, c in zip(states, conditions)
    ]
    for k in range(config.grid.steps):
        s0, s1 = sig[k], sig[k + 1]
        g0 = posterior_score(models, states, mixture, s0)
        d0 = [-s0 * g for g in g0]
        euler = [s + (s1 - s0) * d for s, d in zip(states, d0)]
        if config.integrator is Integrator.HEUN:
            g1 = posterior_score(models, euler, mixture, s1)
            d1 = [-s1 * g for g in g1]
            states = [
                s + (s1 - s0) * 0.5 * (a + b) for s, a, b in zip(states, d0, d1)
            ]
        else:
            states = euler
        for s in states:
            _check_finite(s, k)
        states = [
            apply_inpaint(s, c, s1, rng) if c is not None else s
            for s, c in zip(states, conditions)
        ]
    constrained = mixture - np.sum(states, axis=0)
    return [constrained, *states]
