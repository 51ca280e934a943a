import numpy as np
import pytest

from duetsep import (
    BRIGHT,
    DARK,
    Contour,
    ScenarioKind,
    SingerSpec,
    build_exemplar_bank,
    envelope_features,
    make_scenario,
    render_voice,
)
from duetsep.errors import ConfigurationError, DomainError
from duetsep.synth_bench import identity_prototypes


def flat_contour(freq, duration=2.0):
    return Contour(np.array([0.0, duration]), np.array([freq, freq]))


class TestSingerSpec:
    def test_rejects_all_zero_partials(self):
        with pytest.raises(ConfigurationError):
            SingerSpec(partial_amplitudes=(0.0, 0.0))

    def test_rejects_negative_partials(self):
        with pytest.raises(ConfigurationError):
            SingerSpec(partial_amplitudes=(1.0, -0.5))

    def test_rejects_negative_vibrato(self):
        with pytest.raises(ConfigurationError):
            SingerSpec(partial_amplitudes=(1.0,), vibrato_depth=-1.0)


class TestContour:
    def test_interpolation(self):
        c = Contour(np.array([0.0, 1.0, 2.0]), np.array([100.0, 200.0, 100.0]))
        assert c.at(0.5) == pytest.approx(150.0)
        assert c.at(1.5) == pytest.approx(150.0)

    def test_rejects_non_monotone_times(self):
        with pytest.raises(ConfigurationError):
            Contour(np.array([0.0, 1.0, 0.5]), np.array([100.0, 200.0, 150.0]))

    def test_rejects_single_point(self):
        with pytest.raises(ConfigurationError):
            Contour(np.array([0.0]), np.array([100.0]))


class TestRenderVoice:
    def test_spectral_peak_at_fundamental(self):
        spec = SingerSpec(partial_amplitudes=(1.0,), vibrato_depth=0.0)
        v = render_voice(spec, flat_contour(250.0), 8000, 2.0, seed=0)
        mags = np.abs(np.fft.rfft(v.samples[4000:8000] * np.hanning(4000)))
        peak_hz = np.argmax(mags) * 8000 / 4000
        assert abs(peak_hz - 250.0) < 5.0

    def test_partials_present(self):
        spec = SingerSpec(partial_amplitudes=(0.3, 0.0, 1.0), vibrato_depth=0.0)
        v = render_voice(spec, flat_contour(200.0), 8000, 2.0, seed=0)
        mags = np.abs(np.fft.rfft(v.samples[4000:8000] * np.hanning(4000)))
        hz = np.arange(len(mags)) * 2.0
        def band(f):
            sel = (hz > f - 20) & (hz < f + 20)
            return mags[sel].max()
        assert band(600.0) > 2 * band(200.0)
        assert band(600.0) > 20 * band(400.0)

    def test_peak_normalized(self):
        v = render_voice(BRIGHT, flat_contour(220.0), 8000, 2.0, seed=1)
        assert np.max(np.abs(v.samples)) == pytest.approx(0.5, rel=1e-9)

    def test_deterministic_per_seed(self):
        a = render_voice(DARK, flat_contour(200.0), 8000, 2.0, seed=5)
        b = render_voice(DARK, flat_contour(200.0), 8000, 2.0, seed=5)
        c = render_voice(DARK, flat_contour(200.0), 8000, 2.0, seed=6)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_nyquist_guard(self):
        spec = SingerSpec(partial_amplitudes=(1.0,) * 8, vibrato_depth=0.0)
        with pytest.raises(ConfigurationError):
            render_voice(spec, flat_contour(900.0), 8000, 2.0)

    def test_bad_duration(self):
        with pytest.raises(DomainError):
            render_voice(BRIGHT, flat_contour(220.0), 8000, 0.0)


class TestScenarios:
    def test_crossing_has_a_crossing(self):
        for seed in range(5):
            sc = make_scenario(ScenarioKind.CROSSING, 4.0, seed)
            assert len(sc.crossing_times) >= 1
            assert all(0 <= t <= 4.0 for t in sc.crossing_times)

    def test_crossing_uses_distinct_timbres(self):
        sc = make_scenario(ScenarioKind.CROSSING, 4.0, 0)
        assert sc.singers[0] is BRIGHT and sc.singers[1] is DARK

    def test_parallel_interval_constant(self):
        sc = make_scenario(ScenarioKind.PARALLEL, 4.0, 1)
        ratio = sc.contours[1].freqs / sc.contours[0].freqs
        np.testing.assert_allclose(ratio, ratio[0])

    def test_same_singer_shares_timbre(self):
        sc = make_scenario(ScenarioKind.SAME_SINGER, 4.0, 2)
        assert sc.singers[0] is sc.singers[1]

    def test_contours_in_range(self):
        for kind in ScenarioKind:
            for seed in range(3):
                sc = make_scenario(kind, 4.0, seed)
                for c in sc.contours:
                    assert np.all(c.freqs >= 80.0) and np.all(c.freqs <= 1000.0)

    def test_short_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            make_scenario(ScenarioKind.CROSSING, 1.0, 0)


class TestExemplarBank:
    def test_shape_and_normalization(self):
        bank = build_exemplar_bank([BRIGHT, DARK], 2048, 3, seed=0)
        assert bank.shape == (6, 2048)
        rms = np.sqrt(np.mean(bank**2, axis=1))
        np.testing.assert_allclose(rms, 1.0, rtol=1e-9)

    def test_nearest_exemplar_self_consistency(self):
        """Fresh renders of each singer should sit closer (in envelope space)
        to that singer's prototype than to the other's in >= 95% of frames."""
        protos = identity_prototypes([BRIGHT, DARK], 512, seed=3)
        rng = np.random.default_rng(9)
        total, correct = 0, 0
        for idx, spec in enumerate((BRIGHT, DARK)):
            for trial in range(3):
                freq = rng.uniform(180, 350)
                v = render_voice(spec, flat_contour(freq), 8000, 2.0,
                                 seed=int(rng.integers(2**31)))
                feats = envelope_features(v.samples, 512)
                d = np.linalg.norm(
                    feats[:, None, :] - np.asarray(protos)[None, :, :], axis=2
                )
                assign = np.argmin(d, axis=1)
                total += len(assign)
                correct += int(np.sum(assign == idx))
        assert correct / total >= 0.95

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            build_exemplar_bank([BRIGHT], 1024, 0)
