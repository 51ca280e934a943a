"""Waveform container, mixture problem, and mono WAV I/O.

All audio is mono, double precision internally. WAV files are read as 16-bit
or 32-bit PCM or as IEEE float and written as 32-bit IEEE float, at any rate
the header can hold (below 2^30 for writing): nothing else here depends on it
(the benchmark and the command-line defaults use 8 kHz).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError, ParseError, ShapeError, UnsupportedFormatError, check_integer
)

__all__ = [
    "Waveform",
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
        check_integer("sample_rate", self.sample_rate, 1)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class MixtureProblem:
    """A mixture of `sources` signals summed sample by sample, without noise."""

    mixture: Waveform
    sources: int = 2

    def __post_init__(self):
        if len(self.mixture) == 0:
            raise ShapeError("mixture must be nonempty")
        check_integer("sources", self.sources, 2)


def mix(sources: Sequence[Waveform]) -> Waveform:
    """The exact sample-wise sum of the sources."""
    if len(sources) < 2:
        raise ConfigurationError(f"a mixture needs at least 2 sources, got {len(sources)}")
    first = sources[0]
    for s in sources[1:]:
        if len(s) != len(first):
            raise ShapeError("sources must share length")
        if s.sample_rate != first.sample_rate:
            raise ShapeError("sources must share sample_rate")
    return Waveform(np.sum([s.samples for s in sources], axis=0), first.sample_rate)


def read_wav(path) -> Waveform:
    """Read a mono PCM16, int32 or float WAV file as samples in about [-1, 1].

    int16 divides by 32767 and int32 by 2^31, the full-scale conventions of
    the PCM files this reads.
    """
    # imported here, not at module level: scipy.io adds ~22 MB to the peak
    # memory of `import duetsep`, and most runs never touch a WAV file
    from scipy.io import wavfile

    try:
        fh = open(path, "rb")
    except OSError as exc:  # missing, a directory, unreadable: an input error
        raise ConfigurationError(f"cannot open WAV file {path}: {exc.strerror}") from exc
    with fh:
        try:
            rate, data = wavfile.read(fh)
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


# a float32 WAV header stores the byte rate, rate x 4, in 32 bits
_MAX_WAV_RATE = (2**32 - 1) // 4


def write_wav(path, waveform: Waveform) -> None:
    """Write a Waveform as mono 32-bit float WAV; the rate is checked before
    the file is opened, so a rate the header cannot hold leaves no file."""
    from scipy.io import wavfile

    if waveform.sample_rate > _MAX_WAV_RATE:
        raise ConfigurationError(
            f"sample_rate {waveform.sample_rate} exceeds {_MAX_WAV_RATE}: a float32 WAV"
            " stores the byte rate, sample_rate x 4, in a 32-bit field"
        )
    wavfile.write(os.fspath(path), waveform.sample_rate, waveform.samples.astype(np.float32))
