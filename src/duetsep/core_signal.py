"""Waveform container, mixing model, and mono WAV I/O.

All audio is mono, double precision internally. Files may be 16-bit PCM or
32-bit IEEE float; 24 kHz is the canonical rate but nothing here depends on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.io import wavfile

from .errors import ConfigurationError, ParseError, ShapeError, UnsupportedFormatError

__all__ = [
    "Waveform",
    "MixingModel",
    "MixtureProblem",
    "mix",
    "read_wav",
    "write_wav",
]


@dataclass(frozen=True)
class Waveform:
    """Mono sampled signal. Immutable after construction."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ShapeError(f"waveform must be 1-D, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ShapeError("waveform contains NaN or Inf")
        if self.sample_rate <= 0:
            raise ConfigurationError(f"sample_rate must be positive, got {self.sample_rate}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return len(self) / self.sample_rate


@dataclass(frozen=True)
class MixingModel:
    """N sources summed sample by sample into one channel, plus optional noise."""

    sources: int = 2
    noise_variance: float = 0.0

    def __post_init__(self):
        if self.sources < 2:
            raise ConfigurationError("separation problems need at least 2 sources")
        if self.noise_variance < 0:
            raise ConfigurationError("noise_variance must be nonnegative")


@dataclass(frozen=True)
class MixtureProblem:
    mixture: Waveform
    mixing: MixingModel

    def __post_init__(self):
        if len(self.mixture) == 0:
            raise ShapeError("mixture must be nonempty")


def mix(
    sources: Sequence[Waveform],
    mixing: MixingModel,
    noise_seed: int = 0,
) -> Waveform:
    """Combine sources under the mixing model, optionally adding Gaussian noise.

    With noise_variance = 0 the output is the exact sample-wise sum. The noise
    is drawn from noise_seed, so equal arguments give equal mixtures.
    """
    if len(sources) != mixing.sources:
        raise ConfigurationError(
            f"expected {mixing.sources} sources, got {len(sources)}"
        )
    first = sources[0]
    for s in sources[1:]:
        if len(s) != len(first):
            raise ShapeError("sources must share length")
        if s.sample_rate != first.sample_rate:
            raise ShapeError("sources must share sample_rate")
    out = np.sum([s.samples for s in sources], axis=0)
    if mixing.noise_variance > 0:
        rng = np.random.default_rng(noise_seed)
        out = out + rng.normal(0.0, np.sqrt(mixing.noise_variance), size=out.shape)
    return Waveform(out, first.sample_rate)


def read_wav(path) -> Waveform:
    """Read a mono PCM16 or float32 WAV file."""
    try:
        rate, data = wavfile.read(os.fspath(path))
    except ValueError as exc:
        raise ParseError(f"cannot parse WAV file {path}: {exc}") from exc
    if data.ndim != 1:
        raise UnsupportedFormatError(
            f"{path}: only mono WAV is supported, got {data.shape[1]} channels"
        )
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32767.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    else:
        raise UnsupportedFormatError(f"{path}: unsupported sample format {data.dtype}")
    return Waveform(samples, int(rate))


def write_wav(path, waveform: Waveform, encoding: str = "float32") -> None:
    """Write a Waveform as mono WAV; encoding is "float32" or "pcm16"."""
    if encoding == "float32":
        data = waveform.samples.astype(np.float32)
    elif encoding == "pcm16":
        scaled = np.round(waveform.samples * 32767.0)
        data = np.clip(scaled, -32768, 32767).astype(np.int16)
    else:
        raise ConfigurationError(f"unknown WAV encoding {encoding!r}")
    wavfile.write(os.fspath(path), waveform.sample_rate, data)
