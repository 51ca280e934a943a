import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from duetsep import (
    MixingModel,
    ParseError,
    ShapeError,
    UnsupportedFormatError,
    Waveform,
    mix,
    read_wav,
    write_wav,
)
from duetsep.errors import ConfigurationError


def wf(samples, rate=8000):
    return Waveform(np.asarray(samples, dtype=float), rate)


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(ShapeError):
            Waveform(np.array([0.0, np.nan]), 8000)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            Waveform(np.zeros((2, 3)), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            Waveform(np.zeros(4), 0)

    def test_immutable(self):
        w = wf([1.0, 2.0])
        with pytest.raises(ValueError):
            w.samples[0] = 5.0


class TestMix:
    def test_zero_sources_give_zero(self):
        z = wf(np.zeros(16))
        out = mix([z, z], MixingModel(sources=2))
        assert np.all(out.samples == 0)

    def test_componentwise_sum(self):
        out = mix([wf([1, 0]), wf([0, 1])], MixingModel(sources=2))
        np.testing.assert_array_equal(out.samples, [1, 1])

    def test_noiseless_sum_is_exact(self):
        rng = np.random.default_rng(0)
        s1, s2 = wf(rng.normal(size=256)), wf(rng.normal(size=256))
        out = mix([s1, s2], MixingModel(sources=2))
        assert np.max(np.abs(out.samples - s1.samples - s2.samples)) < 1e-12

    def test_noise_is_seeded(self):
        s = wf(np.zeros(64))
        m = MixingModel(sources=2, noise_variance=0.1)
        a = mix([s, s], m, noise_seed=7)
        b = mix([s, s], m, noise_seed=7)
        c = mix([s, s], m, noise_seed=8)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)
        np.testing.assert_array_equal(mix([s, s], m).samples, mix([s, s], m).samples)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mix([wf(np.zeros(4)), wf(np.zeros(5))], MixingModel(sources=2))

    def test_rate_mismatch(self):
        with pytest.raises(ShapeError):
            mix([wf(np.zeros(4), 8000), wf(np.zeros(4), 16000)], MixingModel(sources=2))

    def test_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            mix([wf(np.zeros(4))], MixingModel(sources=2))

    @given(alpha=st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, alpha):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=32), rng.normal(size=32)
        m = MixingModel(sources=2)
        scaled = mix([wf(alpha * a), wf(alpha * b)], m)
        plain = mix([wf(a), wf(b)], m)
        np.testing.assert_allclose(scaled.samples, alpha * plain.samples, atol=1e-12)


class TestWavIO:
    def sine(self, rate=24000):
        t = np.arange(rate) / rate
        return Waveform(0.8 * np.sin(2 * np.pi * 440 * t), rate)

    def test_float_roundtrip_exact(self, tmp_path):
        w = Waveform(self.sine().samples.astype(np.float32).astype(np.float64), 24000)
        write_wav(tmp_path / "a.wav", w, encoding="float32")
        back = read_wav(tmp_path / "a.wav")
        assert back.sample_rate == 24000
        assert np.max(np.abs(back.samples - w.samples)) == 0.0

    def test_pcm16_roundtrip_bound(self, tmp_path):
        w = self.sine()
        write_wav(tmp_path / "a.wav", w, encoding="pcm16")
        back = read_wav(tmp_path / "a.wav")
        assert np.max(np.abs(back.samples - w.samples)) <= 2**-15

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "bad.wav"
        p.write_bytes(b"RIFF\x10\x00\x00\x00WAV")
        with pytest.raises(ParseError):
            read_wav(p)

    def test_multichannel_rejected(self, tmp_path):
        from scipy.io import wavfile

        stereo = np.zeros((64, 2), dtype=np.int16)
        wavfile.write(tmp_path / "st.wav", 8000, stereo)
        with pytest.raises(UnsupportedFormatError):
            read_wav(tmp_path / "st.wav")

    @given(
        data=arrays(
            np.float64,
            st.integers(8, 64),
            elements=st.floats(-1, 1, allow_nan=False, width=32),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_pcm_roundtrip_property(self, data, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("wav")
        w = Waveform(data, 8000)
        write_wav(tmp / "x.wav", w, encoding="pcm16")
        back = read_wav(tmp / "x.wav")
        assert np.max(np.abs(back.samples - w.samples)) <= 2**-15
