"""Closed-form score functions for noise-smoothed priors.

These analytic models replace a trained denoiser network: every model exposes
score(x, sigma) = grad_x log p_sigma(x) where p_sigma is the prior convolved
with isotropic Gaussian noise of scale sigma. The Gaussian and mixture priors
also expose log_density, for oracle checks by finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence, Tuple

import numpy as np

from .core_signal import read_wav
from .errors import ConfigurationError, DomainError, ShapeError, check_integer
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


# the unit roundoff of a double, 2^-53, and the smallest normal double: the
# second pass drops a responsibility below u/K, or one whose weight r_k / v_k
# would fall below tiny
_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny
# 2 pi v is finite for every v below this
_SAFE_VARIANCE = np.finfo(np.float64).max / 8


def _log_2pi(v: np.ndarray) -> np.ndarray:
    """log(2 pi v) for finite v > 0, an array or a numpy scalar. Where 2 pi v
    overflows, which sigma near MAX_SIGMA reaches, it is log v + log 2 pi;
    elsewhere it keeps the bits of log(2 pi v). The first branch keeps the common
    case, run once per new sigma, to one product and one log."""
    if v.max() < _SAFE_VARIANCE:
        return np.log(2 * np.pi * v)
    with np.errstate(over="ignore"):
        two_pi_v = 2 * np.pi * v
    return np.where(two_pi_v < np.inf, np.log(two_pi_v), np.log(v) + np.log(2 * np.pi))


def _check_sigma(sigma: float) -> None:
    # written so that NaN fails; the scores add sigma^2 to the variances
    if not 0 <= sigma < MAX_SIGMA:
        raise DomainError(f"sigma must lie in [0, {MAX_SIGMA:.4g}), got {sigma}")


class ScoreModel(Protocol):
    """A model of one signal length, native_length, which is every input's
    last axis; a whole-signal model is built for its span (TiledScoreModel)."""

    native_length: int

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray: ...


def _check_length(x: np.ndarray, length: int, batch: bool = True) -> None:
    """x is one row of the model's length or, if batch, a batch of them."""
    if (x.shape[-1:] if batch else x.shape) != (length,):
        raise ShapeError(f"x has shape {x.shape}, expected rows of length {length}")


@dataclass(frozen=True)
class GaussianPrior:
    """Isotropic Gaussian prior with a 1-D mean, whose length is the model's."""

    mean: np.ndarray
    variance: float = 1.0

    def __post_init__(self):
        if not 0 < self.variance < np.inf:  # NaN fails too
            raise ConfigurationError(f"variance must be positive and finite, got {self.variance}")
        mean = np.asarray(self.mean, dtype=np.float64)
        if mean.ndim != 1 or mean.size == 0:
            raise ShapeError(f"mean must be 1-D with length >= 1, got shape {mean.shape}")
        object.__setattr__(self, "mean", mean)

    @property
    def native_length(self) -> int:
        return self.mean.shape[0]

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        """Exact score of the sigma-smoothed Gaussian: -(x - mean) / (variance + sigma^2)."""
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        _check_length(x, self.native_length)
        return -(x - self.mean) / (self.variance + sigma**2)

    def log_density(self, x: np.ndarray, sigma: float) -> float:
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        _check_length(x, self.native_length, batch=False)
        v = self.variance + sigma**2
        d = x.size
        resid = x - self.mean
        return float(-0.5 * d * _log_2pi(np.float64(v)) - 0.5 * np.dot(resid, resid) / v)


@dataclass(frozen=True)
class MixturePrior:
    """Gaussian mixture with isotropic components; doubles as a KDE prior.

    The parameters are stored as read-only views, and log w and |mu|^2 are
    computed once here, so that a score call reads the (K, d) bank only in its
    two matmuls, the second often over the live components alone. The
    first pass puts the bank on the left. The second reads only the
    components that carry mass: a responsibility below u/K (u = 2^-53, the
    unit roundoff) counts as zero, and so does one whose weight r_k / v_k
    would be subnormal (see mixture_score for the error bound). The per-sigma
    terms v_k + sigma^2, the log-normaliser and the responsibility floor are
    kept for the last sigma seen, since an integrator step scores each sigma
    several times. A float64 array passed in is not copied: the prior shares
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
        object.__setattr__(self, "_sigma_cache", (None, None, None, None))

    @property
    def native_length(self) -> int:
        return self.means.shape[1]

    def _sigma_terms(self, sigma: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(v, log w - d/2 log 2 pi v, floor) with v = variances + sigma^2, all (K,).

        floor_k = max(u/K, 2 tiny v_k) is the smallest responsibility that
        mixture_score keeps: any r_k >= 2 tiny v_k gives r_k / v_k >= tiny,
        with a factor 2 for the roundings of both products. Kept for the last
        sigma seen, as read-only arrays. The cache is one tuple, swapped whole,
        so a reader never pairs one sigma's terms with another's.
        """
        cached_sigma, v, const, floor = self._sigma_cache
        if cached_sigma != sigma:
            v = self.variances + sigma**2
            const = self._log_weights - 0.5 * self.means.shape[1] * _log_2pi(v)
            floor = np.maximum(_ROUNDOFF / v.size, 2 * _TINY * v)
            v.flags.writeable = const.flags.writeable = floor.flags.writeable = False
            object.__setattr__(self, "_sigma_cache", (sigma, v, const, floor))
        return v, const, floor

    def _component_logliks(
        self, x: np.ndarray, sigma: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ll, v, floor): ll = log w_k + log N(x; mu_k, (v_k + sigma^2) I) for x
        shaped (..., d), and the sigma terms v and floor it read.

        Squared distances expand as |x|^2 - 2 x.mu + |mu|^2 so the heavy part
        is a single matmul rather than a (K, d) difference tensor. ll is a
        fresh array that the caller may overwrite.
        """
        v, const, floor = self._sigma_terms(sigma)
        x_sq = np.einsum("...d,...d->...", x, x)  # (...,)
        # (..., K), reused in place below. The bank goes on the left: with the
        # OpenBLAS 0.3.31 of numpy's wheel, means @ rows.T ran faster than
        # rows @ means.T for a few rows against a wide bank
        if x.ndim == 1:
            ll = self.means @ x
        else:
            rows = x.reshape(-1, x.shape[-1])
            ll = np.ascontiguousarray((self.means @ rows.T).T)
            ll = ll.reshape(x.shape[:-1] + (self.means.shape[0],))
            x_sq = x_sq[..., None]
        ll *= -2.0
        ll += x_sq
        ll += self._means_sq
        np.maximum(ll, 0.0, out=ll)
        ll *= 0.5
        ll /= v
        return np.subtract(const, ll, out=ll), v, floor

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        return mixture_score(self, x, sigma)

    def log_density(self, x: np.ndarray, sigma: float) -> float:
        """log p_sigma(x) for one vector x of shape (d,)."""
        _check_sigma(sigma)
        x = np.asarray(x, dtype=np.float64)
        _check_length(x, self.native_length, batch=False)
        ll, _, _ = self._component_logliks(x, sigma)
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
    (means @ x, or means @ rows.T over the rows flattened to (n, d)). The
    sigma terms are looked up once per call. The second pass reads
    only the components that carry mass: a responsibility r_k below u/K
    (u = 2^-53, the unit roundoff) counts as zero, and so does one whose
    weight r_k / v_k would be below the smallest normal double, tiny, so no
    subnormal weight reaches the second matmul, dense or gathered. The
    dropped weights of a row sum to less than u * mean_k(1 / v_k) + 2 K tiny,
    so the score differs from the exact one by at most
    (u * mean_k(1 / v_k) + 2 K tiny) * max_k |x - mu_k| per element. For a
    KDE (one variance v) the first term is u / v = u * sum_k r_k / v_k: one
    rounding of the second pass; the tiny term matters only for sigma near
    MAX_SIGMA. A 1-D call whose one live component is j returns
    mu_j w_j - x w_j, the bits of the gathered product; a 1-D call and the
    same row scored as a (1, d) batch agree bit for bit.
    """
    _check_sigma(sigma)
    x = np.asarray(x, dtype=np.float64)
    _check_length(x, prior.means.shape[1])
    rv, v, floor = prior._component_logliks(x, sigma)  # (..., K), turned into r_k / v_k
    _exp_shifted(rv)
    rv /= rv.sum(axis=-1, keepdims=True)
    # score = -sum_k r_k (x - mu_k) / v_k, without forming the (K, d) tensor.
    # A zero weight adds exactly nothing, so the second pass may read only the
    # live components: those kept in some row. Zeroed before the live set is
    # taken, so a weight that carries less than one rounding of its row costs
    # nothing. The weights are nonnegative, so a column sum is 0 only where
    # every row's weight is 0.
    rv[rv < floor] = 0.0
    rv /= v
    k = rv.shape[-1]
    if rv.ndim == 1:
        live = rv.nonzero()[0]
        if live.size == 1:
            # the gathered product below makes one product per element here,
            # and the weight sum is that one weight: the same bits, without
            # the gather or a call into BLAS
            w = rv[live[0]]
            out = prior.means[live[0]] * w
            out -= x * w
            return out
    else:
        live = np.flatnonzero(rv.reshape(-1, k).sum(axis=0))
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
    """A fixed-length model applied blockwise over a span of `length`, a
    multiple of the base's length; the span is the tiled model's one length.

    The implied prior factorizes over consecutive blocks, which is how naive
    extends a segment-level prior to its one padded span.
    """

    def __init__(self, base: ScoreModel, length: int):
        check_integer("length", length, 1)
        if length % base.native_length != 0:
            raise ShapeError(f"span {length} is no positive multiple of {base.native_length}")
        self.base = base
        self.native_length = length

    def score(self, x: np.ndarray, sigma: float) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        _check_length(x, self.native_length)
        blocks = x.reshape(-1, self.base.native_length)
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
