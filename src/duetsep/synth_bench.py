"""Synthetic duet-voice benchmark: two parametric singers with distinct
timbres, crossing pitch contours, and exemplar banks for the KDE prior.

Defaults are desk scale (8 kHz, 8192-sample segments) so full auto-regressive
runs finish in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Sequence, Tuple

import numpy as np

from .core_signal import Waveform
from .errors import ConfigurationError, DomainError
from .metrics import envelope_features

__all__ = [
    "SingerSpec",
    "Contour",
    "DuetScenario",
    "ScenarioKind",
    "BRIGHT",
    "DARK",
    "render_voice",
    "make_scenario",
    "build_exemplar_bank",
    "identity_prototypes",
]

BENCH_RATE = 8000
BENCH_SEGMENT = 8192

F0_MIN = 80.0
F0_MAX = 1000.0


@dataclass(frozen=True)
class SingerSpec:
    """Parametric voice: the partial amplitudes define the timbre."""

    partial_amplitudes: Tuple[float, ...]
    vibrato_rate: float = 5.0
    vibrato_depth: float = 20.0  # cents

    def __post_init__(self):
        amps = tuple(float(a) for a in self.partial_amplitudes)
        if not any(a > 0 for a in amps):
            raise ConfigurationError("need at least one nonzero partial")
        if any(a < 0 for a in amps):
            raise ConfigurationError("partial amplitudes must be nonnegative")
        if self.vibrato_depth < 0:
            raise ConfigurationError("vibrato_depth must be nonnegative")
        object.__setattr__(self, "partial_amplitudes", amps)


# upper-partial-heavy vs fundamental-heavy reference voices; the strongly
# tilted envelopes keep the two timbres separable in band-energy space
BRIGHT = SingerSpec(
    partial_amplitudes=(0.25, 0.1, 0.5, 0.2, 0.8, 0.35, 1.0),
    vibrato_rate=5.5,
    vibrato_depth=25.0,
)
DARK = SingerSpec(
    partial_amplitudes=(1.0, 0.45, 0.15, 0.04, 0.01),
    vibrato_rate=4.5,
    vibrato_depth=18.0,
)


@dataclass(frozen=True)
class Contour:
    """Piecewise-linear f0 track: times in seconds, freqs in Hz."""

    times: np.ndarray
    freqs: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        f = np.asarray(self.freqs, dtype=np.float64)
        if t.shape != f.shape or t.ndim != 1 or t.size < 2:
            raise ConfigurationError("contour needs matching times/freqs, >= 2 points")
        if np.any(np.diff(t) <= 0):
            raise ConfigurationError("contour times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "freqs", f)

    def at(self, t) -> np.ndarray:
        return np.interp(t, self.times, self.freqs)


class ScenarioKind(Enum):
    CROSSING = "crossing"
    PARALLEL = "parallel"
    SAME_SINGER = "same_singer"


@dataclass(frozen=True)
class DuetScenario:
    kind: ScenarioKind
    singers: Tuple[SingerSpec, SingerSpec]
    contours: Tuple[Contour, Contour]
    duration: float
    crossing_times: Tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        for c in self.contours:
            if np.any(c.freqs < F0_MIN) or np.any(c.freqs > F0_MAX):
                raise ConfigurationError("contours must stay within [80, 1000] Hz")


def render_voice(
    spec: SingerSpec,
    contour: Contour,
    sample_rate: int,
    duration: float,
    seed: int = 0,
) -> Waveform:
    """Additive harmonic synthesis of one voice, peak-normalized to 0.5."""
    if sample_rate < 1:
        raise ConfigurationError(f"sample_rate must be positive, got {sample_rate}")
    if duration <= 0:
        raise DomainError("duration must be positive")
    n = int(round(duration * sample_rate))
    if n < 1:
        raise DomainError("duration rounds to an empty waveform")
    t = np.arange(n) / sample_rate
    f0 = contour.at(np.clip(t, contour.times[0], contour.times[-1]))
    n_partials = len(spec.partial_amplitudes)
    # allow a little headroom for vibrato above the nominal contour
    margin = 2.0 ** (max(spec.vibrato_depth, 0.0) / 1200.0)
    if np.max(f0) * margin * n_partials > sample_rate / 2:
        raise ConfigurationError(
            f"contour peak {np.max(f0):.1f} Hz with {n_partials} partials exceeds Nyquist"
        )
    rng = np.random.default_rng(seed)
    vib_phase = rng.uniform(0, 2 * np.pi)
    vib = 2.0 ** (
        spec.vibrato_depth / 1200.0 * np.sin(2 * np.pi * spec.vibrato_rate * t + vib_phase)
    )
    f_inst = f0 * vib
    phase = 2 * np.pi * np.cumsum(f_inst) / sample_rate
    phase0 = rng.uniform(0, 2 * np.pi)
    out = np.zeros(n)
    for k, amp in enumerate(spec.partial_amplitudes, start=1):
        if amp > 0:
            out += amp * np.sin(k * (phase + phase0))
    # mild slow amplitude movement plus short fade in/out
    trem_phase = rng.uniform(0, 2 * np.pi)
    out *= 1.0 + 0.1 * np.sin(2 * np.pi * 0.7 * t + trem_phase)
    fade = min(n // 20, int(0.02 * sample_rate))
    if fade > 1:
        ramp = np.linspace(0, 1, fade)
        out[:fade] *= ramp
        out[-fade:] *= ramp[::-1]
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= 0.5 / peak
    return Waveform(out, sample_rate)


def _random_contour(
    rng: np.random.Generator,
    duration: float,
    lo: float,
    hi: float,
    n_anchors: int = 5,
) -> Contour:
    times = np.linspace(0, duration, n_anchors)
    freqs = rng.uniform(lo, hi, size=n_anchors)
    return Contour(times, freqs)


def _crossing_times(a: Contour, b: Contour, duration: float) -> Tuple[float, ...]:
    t = np.linspace(0, duration, 4096)
    diff = a.at(t) - b.at(t)
    sign = np.sign(diff)
    idx = np.where(np.diff(sign) != 0)[0]
    out = []
    for i in idx:
        d0, d1 = diff[i], diff[i + 1]
        if d1 != d0:
            out.append(float(t[i] + (t[i + 1] - t[i]) * d0 / (d0 - d1)))
    return tuple(out)


def make_scenario(kind: ScenarioKind, duration: float, seed: int = 0) -> DuetScenario:
    """Build a two-voice scenario of the requested stress type."""
    if not 2.0 <= duration < np.inf:  # NaN fails too
        raise ConfigurationError(
            f"scenario duration must be finite and at least 2 s, got {duration}"
        )
    rng = np.random.default_rng(seed)
    if kind is ScenarioKind.CROSSING:
        # one contour descends across the other's ascent at least once
        n = 5
        times = np.linspace(0, duration, n)
        a = Contour(times, np.linspace(330, 190, n) + rng.uniform(-15, 15, n))
        b = Contour(times, np.linspace(180, 340, n) + rng.uniform(-15, 15, n))
        singers = (BRIGHT, DARK)
        contours = (a, b)
    elif kind is ScenarioKind.PARALLEL:
        base = _random_contour(rng, duration, 180.0, 300.0)
        third = base.freqs * 1.26  # constant major third
        singers = (BRIGHT, DARK)
        contours = (base, Contour(base.times, third))
    elif kind is ScenarioKind.SAME_SINGER:
        a = _random_contour(rng, duration, 170.0, 260.0)
        b = _random_contour(rng, duration, 260.0, 380.0)
        singers = (BRIGHT, BRIGHT)
        contours = (a, b)
    else:
        raise ConfigurationError(f"unknown scenario kind {kind}")
    crossings = _crossing_times(contours[0], contours[1], duration)
    return DuetScenario(
        kind=kind,
        singers=singers,
        contours=contours,
        duration=duration,
        crossing_times=crossings,
        seed=seed,
    )


def build_exemplar_bank(
    specs: Sequence[SingerSpec],
    segment_length: int,
    count_per_singer: int,
    seed: int = 0,
    sample_rate: int = BENCH_RATE,
) -> np.ndarray:
    """Render varied phrases per singer and slice them into RMS-normalized
    exemplars of segment_length samples. Returns (count, segment_length)."""
    if count_per_singer < 1:
        raise ConfigurationError("count_per_singer must be >= 1")
    rng = np.random.default_rng(seed)
    phrase_dur = max(2.0, 1.5 * segment_length / sample_rate)
    if segment_length > int(phrase_dur * sample_rate):
        raise ConfigurationError("segment_length longer than rendered phrases")
    bank = []
    for spec in specs:
        for _ in range(count_per_singer):
            contour = _random_contour(rng, phrase_dur, 170.0, 380.0)
            voice = render_voice(
                spec, contour, sample_rate, phrase_dur, seed=int(rng.integers(2**31))
            )
            start = int(rng.integers(0, len(voice) - segment_length + 1))
            seg = voice.samples[start : start + segment_length]
            rms = np.sqrt(np.mean(seg**2))
            bank.append(seg / max(rms, 1e-12))
    return np.stack(bank)


def identity_prototypes(
    specs: Sequence[SingerSpec],
    frame: int,
    sample_rate: int = BENCH_RATE,
    seed: int = 0,
) -> List[np.ndarray]:
    """Per-singer spectral-envelope centroids for the switch-rate diagnostic."""
    rng = np.random.default_rng(seed)
    protos = []
    for spec in specs:
        feats = []
        for _ in range(4):
            contour = _random_contour(rng, 2.0, 180.0, 350.0)
            voice = render_voice(
                spec, contour, sample_rate, 2.0, seed=int(rng.integers(2**31))
            )
            feats.append(envelope_features(voice.samples, frame))
        protos.append(np.mean(np.concatenate(feats, axis=0), axis=0))
    return protos
