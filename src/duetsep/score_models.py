"""Closed-form score functions for noise-smoothed priors.

These analytic models replace a trained denoiser network: every model exposes
score(x, sigma) = grad_x log p_sigma(x) where p_sigma is the prior convolved
with isotropic Gaussian noise of scale sigma. The Gaussian and mixture priors
also expose log_density, for oracle checks by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence, Tuple

import numpy as np

from .core_signal import read_wav
from .errors import ConfigurationError, DomainError, ShapeError
from .schedule import MAX_SIGMA

__all__ = [
    "ScoreModel",
    "GaussianPrior",
    "MixturePrior",
    "TiledScoreModel",
    "mixture_score",
    "kde_prior_from_exemplars",
    "default_kde_bandwidth",
    "load_exemplar_bank",
]


# the smallest normal double: a mixture weight below it counts as zero
_TINY = np.finfo(np.float64).tiny


def _check_sigma(sigma: float) -> None:
    # written so that NaN fails; the scores add sigma^2 to the variances
    if not 0 <= sigma < MAX_SIGMA:
        raise DomainError(f"sigma must lie in [0, {MAX_SIGMA:.4g}), got {sigma}")


class ScoreModel(Protocol):
    native_length: Optional[int]

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray: ...


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic Gaussian prior; mean is a 1-D array or a scalar (broadcasts to
    any length)."""

    mean: np.ndarray | float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if not 0 < self.variance < np.inf:  # NaN fails too
            raise ConfigurationError(f"variance must be positive and finite, got {self.variance}")
        if np.ndim(self.mean) > 0:
            if np.ndim(self.mean) > 1:
                raise ShapeError(f"mean must be a scalar or 1-D, got shape {np.shape(self.mean)}")
            if np.size(self.mean) == 0:
                raise ShapeError("mean must have length >= 1")
            object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))

    @property
    def native_length(self) -> Optional[int]:
        return None if np.ndim(self.mean) == 0 else int(np.shape(self.mean)[0])

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Exact score of the sigma-smoothed Gaussian: -(x - mean) / (variance + sigma^2)."""
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        return -(x - self.mean) / (self.variance + sigma**2)

    def log_density(self, x: np.ndarray, sigma: float) -> float:
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        v = self.variance + sigma**2
        d = x.size
        resid = x - self.mean
        return float(-0.5 * d * np.log(2 * np.pi * v) - 0.5 * np.dot(resid, resid) / v)


@dataclass(frozen=True)
class MixturePrior:
    """Gaussian mixture with isotropic components; doubles as a KDE prior.

    The parameters are stored as read-only views, and log w and |mu|^2 are
    computed once here, so that a score call reads the (K, d) bank only in its
    two matmuls, the second often over the live components alone. The
    first pass puts the bank on the left, and a weight below the smallest
    normal double counts as zero in the second (see mixture_score). The
    per-sigma terms v_k + sigma^2 and the log-normaliser are kept for the last
    sigma seen, since an integrator step scores each sigma several times. A
    float64 array passed in is not copied: the prior shares its memory with
    the caller's array, which stays writable. The caller must not edit that
    array after the prior is built; nothing detects it, and the cached |mu|^2
    would no longer match the means.
    """

    weights: np.ndarray
    means: np.ndarray  # (K, d)
    variances: np.ndarray  # (K,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        m = np.asarray(self.means, dtype=np.float64)
        v = np.asarray(self.variances, dtype=np.float64)
        if w.size == 0:
            raise ConfigurationError("mixture needs at least one component")
        if m.ndim != 2 or m.shape[0] != w.size or v.shape != (w.size,):
            raise ShapeError("inconsistent mixture component shapes")
        if m.shape[1] == 0:
            raise ShapeError("components must have length >= 1")
        # written so that NaN fails; the (K,) norms |mu|^2 stand in for the
        # (K, d) means, which are not read a second time
        if not (np.all((0 < w) & (w < np.inf)) and np.all((0 < v) & (v < np.inf))):
            raise ConfigurationError("weights and variances must be positive and finite")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ConfigurationError("weights must sum to 1 within 1e-12")
        means_sq = np.einsum("kd,kd->k", m, m)
        if not np.all(np.isfinite(means_sq)):
            raise ConfigurationError("means must be finite, with finite squared norms")
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        object.__setattr__(self, "_log_weights", np.log(w))
        object.__setattr__(self, "_means_sq", means_sq)
        object.__setattr__(self, "_sigma_cache", (None, None, None))

    @property
    def native_length(self) -> Optional[int]:
        return int(self.means.shape[1])

    def _sigma_terms(self, sigma: float) -> Tuple[np.ndarray, np.ndarray]:
        """(v, log w - d/2 log 2 pi v) with v = variances + sigma^2, both (K,).

        Kept for the last sigma seen, as read-only arrays. The cache is one
        tuple, swapped whole, so a reader never pairs one sigma's terms with
        another's.
        """
        cached_sigma, v, const = self._sigma_cache
        if cached_sigma != sigma:
            v = self.variances + sigma**2
            const = self._log_weights - 0.5 * self.means.shape[1] * np.log(2 * np.pi * v)
            v.flags.writeable = const.flags.writeable = False
            object.__setattr__(self, "_sigma_cache", (sigma, v, const))
        return v, const

    def _component_logliks(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """log w_k + log N(x; mu_k, (v_k + sigma^2) I), x shaped (..., d).

        Squared distances expand as |x|^2 - 2 x.mu + |mu|^2 so the heavy part
        is a single matmul rather than a (K, d) difference tensor. Returns a
        fresh array that the caller may overwrite.
        """
        v, const = self._sigma_terms(sigma)
        x_sq = np.einsum("...d,...d->...", x, x)  # (...,)
        # (..., K), reused in place below. The bank goes on the left: with the
        # OpenBLAS 0.3.31 of numpy's wheel, means @ rows.T ran faster than
        # rows @ means.T for a few rows against a wide bank
        rows = x.reshape(-1, x.shape[-1])
        ll = np.ascontiguousarray((self.means @ rows.T).T)
        ll = ll.reshape(x.shape[:-1] + (self.means.shape[0],))
        ll *= -2.0
        ll += x_sq[..., None]
        ll += self._means_sq
        np.maximum(ll, 0.0, out=ll)
        ll *= 0.5
        ll /= v
        return np.subtract(const, ll, out=ll)

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        return mixture_score(self, x, sigma)

    def log_density(self, x: np.ndarray, sigma: float) -> float:
        """log p_sigma(x) for one vector x of shape (d,)."""
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1:
            raise ShapeError("log_density takes one vector of shape (d,)")
        ll = self._component_logliks(x, sigma)
        top = _exp_shifted(ll)
        return float(top[0] + np.log(ll.sum()))


def _exp_shifted(ll: np.ndarray) -> np.ndarray:
    """Subtract each row's max from ll and exponentiate, in place.

    The max-subtraction keeps the largest term at exp(0) = 1, so the row sum
    neither overflows nor underflows to zero. Returns the row maxima.
    """
    top = ll.max(axis=-1, keepdims=True)
    ll -= top
    np.exp(ll, out=ll)
    return top


def mixture_score(prior: MixturePrior, x: np.ndarray, sigma: float) -> np.ndarray:
    """Exact score of the smoothed mixture, softmax stabilized by the row max.

    Accepts x of shape (d,) or a batch (..., d); the score is computed
    independently per row. The first pass puts the bank on the left
    (means @ rows.T, over the rows flattened to (n, d)). A normalised weight
    r_k / v_k below the smallest normal double counts as zero, so the score
    may differ from the exact one by at most K * tiny * max|x - mu_k| per
    element.
    """
    _check_sigma(sigma)
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != prior.means.shape[1]:
        raise ShapeError(
            f"x has length {x.shape[-1]}, prior expects {prior.means.shape[1]}"
        )
    rv = prior._component_logliks(x, sigma)  # (..., K), turned into r_k / v_k
    v, _ = prior._sigma_terms(sigma)
    _exp_shifted(rv)
    rv /= rv.sum(axis=-1, keepdims=True)
    rv /= v
    # score = -sum_k r_k (x - mu_k) / v_k, without forming the (K, d) tensor.
    # A weight whose exp underflowed is exactly 0 and adds exactly nothing,
    # so the second pass may read only the live components: those with a
    # nonzero weight in some row. The weights are nonnegative, so a column
    # sum is 0 only where every row's weight is 0.
    k = rv.shape[-1]
    live = np.flatnonzero(rv if rv.ndim == 1 else rv.reshape(-1, k).sum(axis=0))
    # A subnormal weight would put every product with its exemplar on the
    # CPU's slow path. Zeroed only now, after the live set is taken, so the
    # gather and the shape of the product are what they were with it kept.
    rv[rv < _TINY] = 0.0
    if 3 * live.size > k:
        # gathering m live rows reads and writes them before the product
        # reads them again, 3m rows of traffic against K for the dense
        # product: it pays only while 3m <= K
        out = rv @ prior.means
    else:
        # np.dot, not @: with one live component @ would skip BLAS
        out = np.dot(rv[..., live], prior.means[live])
    out -= x * rv.sum(axis=-1)[..., None]
    return out


def default_kde_bandwidth(exemplars: np.ndarray) -> float:
    """0.1 times the RMS of the exemplar bank."""
    exemplars = np.asarray(exemplars, dtype=np.float64)
    return 0.1 * float(np.sqrt(np.mean(exemplars**2)))


def kde_prior_from_exemplars(
    exemplars: Sequence[np.ndarray] | np.ndarray, bandwidth: float
) -> MixturePrior:
    """Uniform-weight mixture with one component per exemplar, variance
    bandwidth^2. The exemplars are the rows of a (count, length) array, or a
    list of 1-D arrays of one length."""
    try:
        arr = np.asarray(exemplars, dtype=np.float64)
    except ValueError as exc:  # numpy's message for ragged rows
        raise ShapeError(f"exemplars must form a (count, length) array: {exc}") from None
    if arr.size == 0:
        raise ConfigurationError("exemplar list must be nonempty")
    if arr.ndim != 2:
        raise ShapeError(f"exemplars must form a (count, length) array, got shape {arr.shape}")
    with np.errstate(over="ignore"):
        variance = np.float64(bandwidth) ** 2
    if not (bandwidth > 0 and variance < np.inf):  # NaN fails too
        raise ConfigurationError(
            f"bandwidth must be positive with a finite square, got {bandwidth}"
        )
    k = arr.shape[0]
    return MixturePrior(
        weights=np.full(k, 1.0 / k),
        means=arr,
        variances=np.full(k, variance),
    )


class TiledScoreModel:
    """Applies a fixed-length model blockwise to any multiple of its length.

    The implied prior factorizes over consecutive blocks, which is how a
    segment-level prior extends to a full-length signal.
    """

    native_length: Optional[int] = None

    def __init__(self, base: ScoreModel):
        if base.native_length is None:
            raise ConfigurationError("base model must have a fixed native_length")
        self.base = base
        self.block = int(base.native_length)

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] % self.block != 0:
            raise ShapeError(
                f"length {x.shape[-1]} is not a multiple of block {self.block}"
            )
        blocks = x.reshape(-1, self.block)
        out = self.base.score(blocks, sigma)
        return np.asarray(out).reshape(x.shape)


def load_exemplar_bank(path) -> Tuple[np.ndarray, int]:
    """Load exemplars from a directory of mono WAV segments of one length and
    one rate. Returns (exemplars, sample_rate)."""
    p = Path(path)
    if not p.is_dir():
        raise ConfigurationError(f"exemplar bank {p} is not a directory")
    wavs = sorted(p.glob("*.wav"))
    if not wavs:
        raise ConfigurationError(f"no WAV files in {p}")
    waves = [read_wav(w) for w in wavs]
    rates = sorted({w.sample_rate for w in waves})
    if len(rates) != 1:
        raise ConfigurationError(f"bank WAV files in {p} mix sample rates {rates}")
    segs = [w.samples for w in waves]
    lengths = {len(s) for s in segs}
    if len(lengths) != 1:
        raise ShapeError("bank WAV segments must share length")
    return np.stack(segs), rates[0]
