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


@dataclass(frozen=True)
class MixingModel:
    """N sources summed sample by sample into one channel, without noise."""

    sources: int = 2

    def __post_init__(self):
        if self.sources < 2:
            raise ConfigurationError("separation problems need at least 2 sources")


@dataclass(frozen=True)
class MixtureProblem:
    mixture: Waveform
    mixing: MixingModel

    def __post_init__(self):
        if len(self.mixture) == 0:
            raise ShapeError("mixture must be nonempty")


def mix(sources: Sequence[Waveform], mixing: MixingModel) -> Waveform:
    """The exact sample-wise sum of the sources."""
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
    return Waveform(np.sum([s.samples for s in sources], axis=0), first.sample_rate)


def read_wav(path) -> Waveform:
    """Read a mono PCM16, int32 or float WAV file as samples in about [-1, 1].

    int16 divides by 32767, the inverse of write_wav's pcm16 scaling, so a
    pcm16 file written here reads back to within 1/32767. int32 divides by
    2^31, the full-scale convention of files written elsewhere.
    """
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
