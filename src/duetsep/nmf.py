"""Learning-free NMF separation baseline: Hann STFT, KL-divergence
multiplicative updates, pitch-candidate initialization, and Wiener-mask
reconstruction."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core_signal import MixtureProblem, Waveform
from .errors import ConfigurationError, DomainError, ShapeError, check_integer

__all__ = [
    "EPS",
    "Spectrogram",
    "NmfModel",
    "NmfSeparation",
    "stft",
    "istft",
    "kl_divergence",
    "nmf_fit",
    "pitch_candidates",
    "separate_nmf",
]

EPS = 1e-12


@dataclass(frozen=True)
class Spectrogram:
    complex: np.ndarray  # (bins, frames)
    frame_size: int
    hop_size: int
    sample_rate: int

    @property
    def magnitudes(self) -> np.ndarray:
        return np.abs(self.complex)


def _check_cola(frame_size: int, hop_size: int) -> None:
    check_integer("frame_size", frame_size, 2)
    check_integer("hop_size", hop_size, 1)
    if frame_size & (frame_size - 1) != 0:
        raise ConfigurationError("frame_size must be a power of two")
    if hop_size > frame_size // 2:
        raise ConfigurationError("hop_size must satisfy hop <= frame_size / 2")


def stft(waveform: Waveform, frame_size: int = 2048, hop_size: int = 512) -> Spectrogram:
    """Hann-windowed STFT with centered padding."""
    _check_cola(frame_size, hop_size)
    x = waveform.samples
    pad = frame_size // 2
    xp = np.pad(x, (pad, pad + frame_size))
    n_frames = 1 + (len(xp) - frame_size) // hop_size
    window = np.hanning(frame_size)
    idx = np.arange(frame_size)[None, :] + hop_size * np.arange(n_frames)[:, None]
    frames = xp[idx] * window
    return Spectrogram(
        complex=np.fft.rfft(frames, axis=1).T,
        frame_size=frame_size,
        hop_size=hop_size,
        sample_rate=waveform.sample_rate,
    )


def istft(spec: Spectrogram, length: int) -> Waveform:
    """Overlap-add inverse with squared-window normalization, cut to the
    `length` samples of the signal that stft analysed."""
    frames = np.fft.irfft(spec.complex.T, n=spec.frame_size, axis=1)
    window = np.hanning(spec.frame_size)
    n_frames = frames.shape[0]
    total = spec.frame_size + spec.hop_size * (n_frames - 1)
    out = np.zeros(total)
    norm = np.zeros(total)
    for j in range(n_frames):
        lo = j * spec.hop_size
        out[lo : lo + spec.frame_size] += frames[j] * window
        norm[lo : lo + spec.frame_size] += window**2
    out = out / np.maximum(norm, EPS)
    pad = spec.frame_size // 2
    return Waveform(out[pad : pad + length], spec.sample_rate)


@dataclass(frozen=True)
class NmfModel:
    W: np.ndarray  # (bins, components)
    H: np.ndarray  # (components, frames)
    source_of_component: Tuple[int, ...]

    def __post_init__(self):
        if np.any(self.W < 0) or np.any(self.H < 0):
            raise DomainError("W and H must be nonnegative")
        if len(self.source_of_component) != self.W.shape[1]:
            raise ShapeError("source map must cover every component")


def kl_divergence(V: np.ndarray, WH: np.ndarray) -> float:
    """Generalized KL divergence D(V || WH)."""
    V = np.asarray(V, dtype=np.float64)
    WH = np.maximum(WH, EPS)
    term = np.where(V > 0, V * np.log(np.maximum(V, EPS) / WH) - V, 0.0)
    return float(np.sum(term + WH))


def nmf_fit(
    V: np.ndarray,
    rank: int,
    iterations: int,
    seed: int = 0,
    init_H: Optional[np.ndarray] = None,
    init_W: Optional[np.ndarray] = None,
    source_of_component: Optional[Sequence[int]] = None,
) -> NmfModel:
    """KL-NMF via the standard multiplicative updates; KL never increases."""
    V = np.asarray(V, dtype=np.float64)
    if np.any(V < 0):
        raise DomainError("V must be nonnegative")
    check_integer("rank", rank, 1)
    check_integer("iterations", iterations, 0)
    check_integer("seed", seed, 0)
    bins, frames = V.shape
    rng = np.random.default_rng(seed)
    W = (
        np.asarray(init_W, dtype=np.float64).copy()
        if init_W is not None
        else rng.uniform(0.1, 1.0, size=(bins, rank))
    )
    H = (
        np.asarray(init_H, dtype=np.float64).copy()
        if init_H is not None
        else rng.uniform(0.1, 1.0, size=(rank, frames))
    )
    W = np.maximum(W, EPS)
    H = np.maximum(H, EPS)
    ones = np.ones_like(V)
    for _ in range(iterations):
        WH = np.maximum(W @ H, EPS)
        H *= (W.T @ (V / WH)) / np.maximum(W.T @ ones, EPS)
        H = np.maximum(H, EPS)
        WH = np.maximum(W @ H, EPS)
        W *= ((V / WH) @ H.T) / np.maximum(ones @ H.T, EPS)
        W = np.maximum(W, EPS)
    src_map = (
        tuple(int(s) for s in source_of_component)
        if source_of_component is not None
        else tuple(0 for _ in range(rank))
    )
    return NmfModel(W=W, H=H, source_of_component=src_map)


def pitch_candidates(
    waveform: Waveform,
    fmin: float,
    fmax: float,
    frame_size: int = 2048,
    hop_size: int = 512,
) -> List[List[float]]:
    """Up to 2 autocorrelation-peak f0 candidates per frame, tallest first.

    Peaks are picked from the enhanced autocorrelation: the half-wave
    rectified autocorrelation minus its time-stretched copies (factors 2-4),
    which cancels the subharmonic and common-period peaks that otherwise
    mask the weaker of two simultaneous voices.
    """
    check_integer("frame_size", frame_size, 2)
    check_integer("hop_size", hop_size, 1)
    sr = waveform.sample_rate
    if not (0 < fmin < fmax <= sr / 2):
        raise ConfigurationError("need 0 < fmin < fmax <= Nyquist")
    x = waveform.samples
    if len(x) < frame_size:
        raise DomainError("signal shorter than one analysis frame")
    lag_min = max(2, int(np.floor(sr / fmax)))
    lag_max = int(np.ceil(sr / fmin))
    if lag_max >= frame_size // 2:
        raise ConfigurationError("fmin too low for the analysis frame size")
    n_frames = 1 + (len(x) - frame_size) // hop_size
    global_peak = np.sqrt(np.mean(x**2))
    out: List[List[float]] = []
    for j in range(n_frames):
        frame = x[j * hop_size : j * hop_size + frame_size]
        rms = np.sqrt(np.mean(frame**2))
        if rms < 0.01 * max(global_peak, 1e-9):
            out.append([])
            continue
        frame = frame - np.mean(frame)
        # FFT autocorrelation, biased normalization
        n_fft = 2 * frame_size
        spec = np.fft.rfft(frame, n=n_fft)
        ac = np.fft.irfft(spec * np.conj(spec))[: frame_size]
        if ac[0] <= 0:
            out.append([])
            continue
        ac = ac / ac[0]
        lags = np.arange(frame_size, dtype=np.float64)
        rect = np.maximum(ac, 0.0)
        enh = rect.copy()
        for k in (2, 3, 4):
            enh = np.maximum(enh - np.interp(lags / k, lags, rect), 0.0)
        cands: List[Tuple[float, float]] = []  # (height, f0)
        for lag in range(lag_min, min(lag_max + 1, frame_size - 1)):
            if enh[lag] > enh[lag - 1] and enh[lag] >= enh[lag + 1] and enh[lag] > 0.1:
                # parabolic peak interpolation
                denom = enh[lag - 1] - 2 * enh[lag] + enh[lag + 1]
                shift = 0.0
                if denom < 0:
                    shift = 0.5 * (enh[lag - 1] - enh[lag + 1]) / denom
                    shift = float(np.clip(shift, -0.5, 0.5))
                cands.append((float(enh[lag]), sr / (lag + shift)))
        cands.sort(key=lambda c: -c[0])
        # keep the tallest peaks, suppressing (sub)harmonic duplicates of
        # already-accepted candidates so octave errors don't crowd out the
        # second voice
        accepted: List[float] = []
        for _, f in cands:
            if any(_harmonically_related(f, fa) for fa in accepted):
                continue
            accepted.append(f)
            if len(accepted) == 2:
                break
        out.append(accepted)
    return out


def _harmonically_related(f: float, fa: float) -> bool:
    ratio = max(f, fa) / min(f, fa)
    k = round(ratio)
    return k >= 1 and abs(ratio - k) < 0.04 * k


@dataclass(frozen=True)
class NmfSeparation:
    sources: List[Waveform]
    model: NmfModel
    # some source started from random templates: its pitch track was unvoiced
    used_random_init: bool


def _harmonic_template(f0: float, bins: int, sample_rate: int, frame_size: int) -> np.ndarray:
    """Hann bumps at the partials of f0 up to Nyquist with 1/k amplitude decay."""
    col = np.zeros(bins)
    bin_hz = sample_rate / frame_size
    half_width = max(2, int(round(f0 / bin_hz / 4)))
    k = 1
    while k * f0 < sample_rate / 2:
        center = k * f0 / bin_hz
        lo = max(0, int(np.floor(center - half_width)))
        hi = min(bins - 1, int(np.ceil(center + half_width)))
        for b in range(lo, hi + 1):
            w = 0.5 * (1 + np.cos(np.pi * (b - center) / half_width)) if abs(b - center) <= half_width else 0.0
            col[b] += w / k
        k += 1
    return np.maximum(col, EPS)


def _track_candidates(
    cands: List[List[float]], n_sources: int
) -> List[np.ndarray]:
    """Split per-frame candidates into n_sources contours by continuity.

    Returns one array per source with NaN where the track is silent.
    """
    n_frames = len(cands)
    tracks = [np.full(n_frames, np.nan) for _ in range(n_sources)]
    last = [np.nan] * n_sources
    for j, frame_cands in enumerate(cands):
        remaining = list(frame_cands)
        # first serve tracks that have history, nearest in log-frequency
        order = sorted(range(n_sources), key=lambda s: np.isnan(last[s]))
        for s in order:
            if not remaining:
                break
            if np.isnan(last[s]):
                f = remaining.pop(0)
            else:
                i = int(np.argmin([abs(np.log(f / last[s])) for f in remaining]))
                f = remaining.pop(i)
            tracks[s][j] = f
            last[s] = f
    return tracks


def separate_nmf(
    problem: MixtureProblem,
    components_per_source: int = 8,
    iterations: int = 300,
    seed: int = 0,
    frame_size: int = 2048,
    hop_size: int = 512,
    fmin: float = 80.0,
    fmax: float = 500.0,
) -> NmfSeparation:
    """Pitch-informed KL-NMF separation with Wiener-mask reconstruction: one
    output per source of the problem."""
    check_integer("seed", seed, 0)
    check_integer("components_per_source", components_per_source, 1)
    mix = problem.mixture
    n_sources = problem.sources
    spec = stft(mix, frame_size, hop_size)
    V = spec.magnitudes
    bins, frames = V.shape
    rank = n_sources * components_per_source
    fmax = min(fmax, mix.sample_rate / 2 * 0.98)
    # padded as stft pads, so that pitch frame j is centred on STFT column j
    centred = Waveform(np.pad(mix.samples, frame_size // 2), mix.sample_rate)
    try:
        cands = pitch_candidates(centred, fmin, fmax, frame_size, hop_size)
    except ConfigurationError:
        cands = []
    src_map = tuple(s for s in range(n_sources) for _ in range(components_per_source))
    tracks = _track_candidates(cands, n_sources)
    W = np.full((bins, rank), EPS)
    H = np.full((rank, frames), EPS)
    used_random_init = False
    for s in range(n_sources):
        voiced = tracks[s][~np.isnan(tracks[s])]
        if voiced.size == 0:
            used_random_init = True
            rng = np.random.default_rng(seed + s)
            W[:, s * components_per_source : (s + 1) * components_per_source] = rng.uniform(
                0.1, 1.0, size=(bins, components_per_source)
            )
            H[s * components_per_source : (s + 1) * components_per_source, :] = 0.1
            continue
        qs = np.quantile(voiced, np.linspace(0.05, 0.95, components_per_source))
        for c, f0 in enumerate(qs):
            comp = s * components_per_source + c
            W[:, comp] = _harmonic_template(float(f0), bins, mix.sample_rate, frame_size)
            # activate where the track sits near this template's pitch
            with np.errstate(invalid="ignore", divide="ignore"):
                near = np.abs(np.log(tracks[s] / f0)) < np.log(2) / 6  # within ~2 semitones
            H[comp, np.flatnonzero(near)] = 1.0
        H[s * components_per_source : (s + 1) * components_per_source] += 0.01
    model = nmf_fit(V, rank, iterations, init_W=W, init_H=H, source_of_component=src_map)
    WH = np.maximum(model.W @ model.H, EPS)
    sources = []
    for s in range(n_sources):
        comps = [c for c, owner in enumerate(model.source_of_component) if owner == s]
        Vs = model.W[:, comps] @ model.H[comps, :]
        # the Wiener mask is real and nonnegative: it scales the magnitudes
        # and keeps the mixture's phases
        sub = replace(spec, complex=spec.complex * (Vs / WH))
        sources.append(istft(sub, length=len(mix)))
    return NmfSeparation(sources=sources, model=model, used_random_init=used_random_init)
