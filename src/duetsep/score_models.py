"""Closed-form score functions for noise-smoothed priors.

These analytic models replace a trained denoiser network: every model exposes
score(x, sigma) = grad_x log p_sigma(x) where p_sigma is the prior convolved
with isotropic Gaussian noise of scale sigma, plus log_density for oracle
checks by finite differences.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol, Sequence, runtime_checkable

import numpy as np

from .core_signal import Waveform, read_wav
from .errors import ConfigurationError, DomainError, ShapeError

__all__ = [
    "ScoreModel",
    "GaussianPrior",
    "MixturePrior",
    "TiledScoreModel",
    "gaussian_score",
    "mixture_score",
    "kde_prior_from_exemplars",
    "default_kde_bandwidth",
    "denoiser_to_score",
    "load_exemplar_bank",
    "save_exemplar_bank",
]

_BANK_MAGIC = b"XBNK"


@runtime_checkable
class ScoreModel(Protocol):
    native_length: Optional[int]

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray: ...


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic Gaussian prior; mean may be a scalar (broadcasts to any length)."""

    mean: np.ndarray | float = 0.0
    variance: float = 1.0

    def __post_init__(self):
        if self.variance <= 0:
            raise ConfigurationError("variance must be positive")
        if np.ndim(self.mean) > 0:
            object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))

    @property
    def native_length(self) -> Optional[int]:
        return None if np.ndim(self.mean) == 0 else int(np.shape(self.mean)[0])

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        return gaussian_score(self, x, sigma)

    def log_density(self, x: np.ndarray, sigma: float) -> float:
        x = np.asarray(x, dtype=np.float64)
        v = self.variance + sigma**2
        d = x.size
        resid = x - self.mean
        return float(-0.5 * d * np.log(2 * np.pi * v) - 0.5 * np.dot(resid, resid) / v)


def gaussian_score(prior: GaussianPrior, x: np.ndarray, sigma: float) -> np.ndarray:
    """Exact score of the sigma-smoothed Gaussian: -(x - mean) / (variance + sigma^2)."""
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    return -(x - prior.mean) / (prior.variance + sigma**2)


@dataclass(frozen=True)
class MixturePrior:
    """Gaussian mixture with isotropic components; doubles as a KDE prior.

    The parameters are stored as read-only views, and log w and |mu|^2 are
    computed once here, so that a score call makes only the two (K, d) passes
    of its matmuls. A float64 array passed in is not copied: the prior shares
    its memory with the caller's array, which stays writable. The caller must
    not edit that array after the prior is built; nothing detects it, and the
    cached |mu|^2 would no longer match the means.
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
        if np.any(w <= 0) or np.any(v <= 0):
            raise ConfigurationError("weights and variances must be positive")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ConfigurationError("weights must sum to 1 within 1e-12")
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            view = arr.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        object.__setattr__(self, "_log_weights", np.log(w))
        object.__setattr__(self, "_means_sq", np.einsum("kd,kd->k", m, m))

    @property
    def native_length(self) -> Optional[int]:
        return int(self.means.shape[1])

    def _component_logliks(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """log w_k + log N(x; mu_k, (v_k + sigma^2) I), x shaped (..., d).

        Squared distances expand as |x|^2 - 2 x.mu + |mu|^2 so the heavy part
        is a single matmul rather than a (K, d) difference tensor. Returns a
        fresh array that the caller may overwrite.
        """
        v = self.variances + sigma**2  # (K,)
        d = self.means.shape[1]
        x_sq = np.einsum("...d,...d->...", x, x)  # (...,)
        ll = x @ self.means.T  # (..., K), reused in place below
        ll *= -2.0
        ll += x_sq[..., None]
        ll += self._means_sq
        np.maximum(ll, 0.0, out=ll)
        ll *= 0.5
        ll /= v
        const = self._log_weights - 0.5 * d * np.log(2 * np.pi * v)
        return np.subtract(const, ll, out=ll)

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        return mixture_score(self, x, sigma)

    def log_density(self, x: np.ndarray, sigma: float) -> float:
        """log p_sigma(x) for one vector x of shape (d,)."""
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
    independently per row.
    """
    if sigma < 0:
        raise DomainError("sigma must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != prior.means.shape[1]:
        raise ShapeError(
            f"x has length {x.shape[-1]}, prior expects {prior.means.shape[1]}"
        )
    v = prior.variances + sigma**2  # (K,)
    rv = prior._component_logliks(x, sigma)  # (..., K), turned into r_k / v_k
    _exp_shifted(rv)
    rv /= rv.sum(axis=-1, keepdims=True)
    rv /= v
    # score = -sum_k r_k (x - mu_k) / v_k, without forming the (K, d) tensor
    out = rv @ prior.means
    out -= x * rv.sum(axis=-1)[..., None]
    return out


def default_kde_bandwidth(exemplars: np.ndarray) -> float:
    """0.1 times the RMS of the exemplar bank."""
    exemplars = np.asarray(exemplars, dtype=np.float64)
    return 0.1 * float(np.sqrt(np.mean(exemplars**2)))


def kde_prior_from_exemplars(
    exemplars: Sequence[np.ndarray] | np.ndarray, bandwidth: float
) -> MixturePrior:
    """Uniform-weight mixture with one component per exemplar, variance bandwidth^2."""
    arr = np.asarray(exemplars, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("exemplar list must be nonempty")
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ShapeError("exemplars must share a uniform length")
    if bandwidth <= 0:
        raise ConfigurationError("bandwidth must be positive")
    k = arr.shape[0]
    return MixturePrior(
        weights=np.full(k, 1.0 / k),
        means=arr,
        variances=np.full(k, bandwidth**2),
    )


def denoiser_to_score(denoised: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    """Tweedie conversion: score = (denoised - x) / sigma^2. Requires sigma > 0."""
    if sigma <= 0:
        raise DomainError("sigma must be positive for denoiser conversion")
    denoised = np.asarray(denoised, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if denoised.shape != x.shape:
        raise ShapeError("denoised and x must share shape")
    return (denoised - x) / sigma**2


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

    def log_density(self, x: np.ndarray, sigma: float) -> float:
        x = np.asarray(x, dtype=np.float64)
        blocks = x.reshape(-1, self.block)
        return float(sum(self.base.log_density(b, sigma) for b in blocks))


def save_exemplar_bank(path, exemplars: np.ndarray) -> None:
    """Binary bank: magic, uint32 count, uint32 length, float32 data."""
    arr = np.asarray(exemplars, dtype=np.float32)
    if arr.ndim != 2:
        raise ShapeError("bank must be a (count, length) array")
    with open(os.fspath(path), "wb") as fh:
        fh.write(_BANK_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def load_exemplar_bank(path) -> np.ndarray:
    """Load exemplars from a bank binary or a directory of mono WAV segments."""
    p = Path(path)
    if p.is_dir():
        wavs = sorted(p.glob("*.wav"))
        if not wavs:
            raise ConfigurationError(f"no WAV files in {p}")
        segs = [read_wav(w).samples for w in wavs]
        lengths = {len(s) for s in segs}
        if len(lengths) != 1:
            raise ShapeError("bank WAV segments must share length")
        return np.stack(segs)
    with open(os.fspath(p), "rb") as fh:
        magic = fh.read(4)
        if magic != _BANK_MAGIC:
            raise ConfigurationError(f"{p} is not an exemplar bank file")
        header = fh.read(8)
        if len(header) != 8:
            raise ConfigurationError(f"{p}: exemplar bank header cut short")
        count, length = struct.unpack("<II", header)
        data = np.frombuffer(fh.read(count * length * 4), dtype=np.float32)
        if data.size != count * length:
            raise ConfigurationError(f"{p}: truncated exemplar bank")
        if fh.read(1):
            raise ConfigurationError(f"{p}: trailing bytes after the exemplar bank")
    return data.astype(np.float64).reshape(count, length)
