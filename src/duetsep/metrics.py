"""Separation metrics: SI-SDR, SDR, permutation-invariant evaluation, and the
identity-switch diagnostic based on spectral-envelope frame assignment."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import List, Sequence, Tuple

import numpy as np

from .core_signal import Waveform
from .errors import DomainError, ShapeError

__all__ = [
    "SDR_CAP_DB",
    "EvalReport",
    "SourceMetrics",
    "si_sdr",
    "sdr",
    "best_assignment",
    "evaluate",
    "envelope_features",
    "identity_switch_rate",
]

SDR_CAP_DB = 100.0

ENVELOPE_FFT = 1024
ENVELOPE_BANDS = 24


def _as_samples(x) -> np.ndarray:
    if isinstance(x, Waveform):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def _check_pair(estimate: np.ndarray, reference: np.ndarray) -> None:
    if estimate.shape != reference.shape:
        raise ShapeError("estimate and reference must share length")
    if not np.any(reference != 0):
        raise DomainError("reference is identically zero")


def _capped_db(num: float, den: float) -> float:
    """10 log10(num / den) clamped to [-SDR_CAP_DB, SDR_CAP_DB].

    A zero numerator reads as the floor without a log10(0) warning. For
    SI-SDR that is an estimate orthogonal to the reference, and also an
    all-zero estimate, whose 0 / 0 is not the perfect match that den == 0
    alone would suggest.
    """
    cap = 10 ** (SDR_CAP_DB / 10)
    if num * cap <= den:
        return -SDR_CAP_DB
    if num >= den * cap:
        return SDR_CAP_DB
    return float(10 * np.log10(num / den))


def si_sdr(estimate, reference) -> float:
    """Scale-invariant SDR in dB, clamped to +-100; a silent estimate reads -100."""
    est = _as_samples(estimate)
    ref = _as_samples(reference)
    _check_pair(est, ref)
    alpha = np.dot(est, ref) / np.dot(ref, ref)
    target = alpha * ref
    num = np.dot(target, target)
    den = np.sum((target - est) ** 2)
    return _capped_db(num, den)


def sdr(estimate, reference) -> float:
    """Plain SDR in dB (no scale projection), same clamp; a silent estimate reads 0."""
    est = _as_samples(estimate)
    ref = _as_samples(reference)
    _check_pair(est, ref)
    num = np.dot(ref, ref)
    den = np.sum((ref - est) ** 2)
    return _capped_db(num, den)


@dataclass(frozen=True)
class SourceMetrics:
    si_sdr: float
    sdr: float
    si_sdri: float
    sdri: float


@dataclass(frozen=True)
class EvalReport:
    per_source: List[SourceMetrics]
    permutation: Tuple[int, ...]

    @property
    def mean_si_sdri(self) -> float:
        return float(np.mean([m.si_sdri for m in self.per_source]))

    @property
    def mean_sdri(self) -> float:
        return float(np.mean([m.sdri for m in self.per_source]))

    def to_dict(self) -> dict:
        return {
            "permutation": list(self.permutation),
            "per_source": [
                {
                    "si_sdr": m.si_sdr,
                    "sdr": m.sdr,
                    "si_sdri": m.si_sdri,
                    "sdri": m.sdri,
                }
                for m in self.per_source
            ],
            "mean_si_sdri": self.mean_si_sdri,
            "mean_sdri": self.mean_sdri,
        }


def best_assignment(scores) -> Tuple[Tuple[int, ...], float]:
    """The assignment of estimates to references with the highest mean score.

    `scores[i][j]` scores estimate j against reference i. Returns (perm, mean)
    with perm[i] the estimate given to reference i; of equal means, the first
    permutation in itertools order wins.
    """
    n = len(scores)
    best_perm: Tuple[int, ...] = tuple(range(n))
    best_mean = -np.inf
    for perm in permutations(range(n)):
        mean = np.mean([scores[i][p] for i, p in enumerate(perm)])
        if mean > best_mean:
            best_mean = mean
            best_perm = perm
    return best_perm, float(best_mean)


def evaluate(estimates: Sequence, references: Sequence, mixture) -> EvalReport:
    """Permutation-invariant evaluation with improvements over the mixture.

    Searches all assignments of estimates to references, keeps the one with
    the highest mean SI-SDR, and reports per-source SI-SDR/SDR plus their
    improvement over scoring the mixture itself as every source's estimate.
    """
    if len(estimates) != len(references):
        raise ShapeError("estimate and reference counts differ")
    rates = {x.sample_rate for x in (*estimates, *references, mixture) if isinstance(x, Waveform)}
    if len(rates) > 1:
        raise ShapeError(f"signals have different sample rates: {sorted(rates)}")
    ests = [_as_samples(e) for e in estimates]
    refs = [_as_samples(r) for r in references]
    mix = _as_samples(mixture)
    table = [[si_sdr(est, ref) for est in ests] for ref in refs]
    perm, _ = best_assignment(table)
    per_source = []
    for i, p in enumerate(perm):
        s = table[i][p]
        d = sdr(ests[p], refs[i])
        base_s = si_sdr(mix, refs[i])
        base_d = sdr(mix, refs[i])
        per_source.append(SourceMetrics(s, d, s - base_s, d - base_d))
    return EvalReport(per_source=per_source, permutation=perm)


def envelope_features(samples, frame: int) -> np.ndarray:
    """Per-frame spectral-envelope features: log magnitudes of an FFT of
    max(frame, 1024) points, so that no sample of a frame is dropped, pooled
    into 24 triangular bands. Returns (n_frames, 24).

    Band logs are floored relative to the frame's own energy and mean-centered
    per frame, so the feature tracks the envelope shape (timbre), not level
    or whether a particular band happens to hold a partial.
    """
    x = _as_samples(samples)
    if frame < 1:
        raise DomainError("frame must be positive")
    n_frames = len(x) // frame
    if n_frames < 1:
        raise DomainError("signal shorter than one frame")
    frames = x[: n_frames * frame].reshape(n_frames, frame)
    window = np.hanning(frame)
    spec = np.abs(np.fft.rfft(frames * window, n=max(frame, ENVELOPE_FFT), axis=1))
    n_bins = spec.shape[1]
    centers = np.linspace(0, n_bins - 1, ENVELOPE_BANDS + 2)
    bands = np.empty((n_frames, ENVELOPE_BANDS))
    bins = np.arange(n_bins)
    for b in range(ENVELOPE_BANDS):
        lo, mid, hi = centers[b], centers[b + 1], centers[b + 2]
        tri = np.clip(
            np.minimum((bins - lo) / max(mid - lo, 1e-9), (hi - bins) / max(hi - mid, 1e-9)),
            0.0,
            None,
        )
        bands[:, b] = spec @ tri
    floor = 1e-3 * np.mean(bands, axis=1, keepdims=True) + 1e-12
    feats = np.log(bands + floor)
    return feats - np.mean(feats, axis=1, keepdims=True)


def identity_switch_rate(
    estimates: Sequence,
    prototypes: Sequence[np.ndarray],
    frame: int,
) -> float:
    """Fraction of adjacent frames whose nearest-prototype assignment flips,
    averaged over the estimated sources. Silent frames keep the previous
    assignment so pauses do not register as switches. The prototypes must
    form a non-empty (P, ENVELOPE_BANDS) array; ShapeError otherwise."""
    want = f"prototypes must be a non-empty (P, {ENVELOPE_BANDS}) array"
    try:
        protos = np.asarray(prototypes, dtype=np.float64)
    except ValueError as exc:  # rows of different lengths
        raise ShapeError(want) from exc
    if protos.ndim != 2 or protos.shape[0] == 0 or protos.shape[1] != ENVELOPE_BANDS:
        raise ShapeError(f"{want}, got shape {protos.shape}")
    rates = []
    for est in estimates:
        x = _as_samples(est)
        feats = envelope_features(x, frame)
        if feats.shape[0] < 2:
            raise DomainError("need at least 2 frames for a switch rate")
        n_frames = feats.shape[0]
        frames = x[: n_frames * frame].reshape(n_frames, frame)
        rms = np.sqrt(np.mean(frames**2, axis=1))
        active = rms > 0.05 * max(rms.max(), 1e-12)
        dists = np.linalg.norm(feats[:, None, :] - protos[None, :, :], axis=2)
        assign = np.argmin(dists, axis=1)
        # each silent frame takes the assignment of the last active frame
        # before it, or of frame 0
        assign = assign[np.maximum.accumulate(np.where(active, np.arange(n_frames), 0))]
        rates.append(float(np.mean(assign[1:] != assign[:-1])))
    return float(np.mean(rates))
