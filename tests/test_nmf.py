import numpy as np
import pytest

from duetsep import MixtureProblem, Waveform
from duetsep.errors import ConfigurationError, DomainError, ShapeError
from duetsep.nmf import (
    EPS,
    NmfModel,
    istft,
    kl_divergence,
    nmf_fit,
    pitch_candidates,
    separate_nmf,
    stft,
)


def wf(samples, rate=8000):
    return Waveform(np.asarray(samples, dtype=float), rate)


def harmonic(freq, n, rate=8000, amps=(1.0, 0.5, 0.25)):
    t = np.arange(n) / rate
    return sum(a * np.sin(2 * np.pi * (k + 1) * freq * t) for k, a in enumerate(amps))


class TestStftIstft:
    def test_roundtrip_interior(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=4000)
        spec = stft(wf(x), frame_size=1024, hop_size=256)
        back = istft(spec, length=4000)
        np.testing.assert_allclose(back.samples, x, atol=1e-10)

    def test_sine_peak_bin(self):
        rate, frame = 8000, 1024
        freq = 437.5  # exactly bin 56 at 8000/1024 Hz per bin
        x = np.sin(2 * np.pi * freq * np.arange(8000) / rate)
        spec = stft(wf(x, rate), frame_size=frame, hop_size=256)
        mid = spec.magnitudes[:, spec.magnitudes.shape[1] // 2]
        assert int(np.argmax(mid)) == round(freq * frame / rate)

    def test_invalid_frame_size(self):
        with pytest.raises(ConfigurationError):
            stft(wf(np.zeros(100)), frame_size=1000, hop_size=250)

    def test_invalid_hop(self):
        with pytest.raises(ConfigurationError):
            stft(wf(np.zeros(100)), frame_size=64, hop_size=64)


class TestKlDivergence:
    def test_zero_at_equality(self):
        V = np.random.default_rng(0).uniform(0.1, 1.0, (8, 8))
        assert kl_divergence(V, V) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        V = rng.uniform(0.0, 1.0, (8, 8))
        WH = rng.uniform(0.1, 1.0, (8, 8))
        assert kl_divergence(V, WH) >= 0.0

    def test_handles_zero_entries(self):
        V = np.array([[0.0, 1.0]])
        WH = np.array([[0.5, 1.0]])
        assert kl_divergence(V, WH) == pytest.approx(0.5)


class TestNmfFit:
    def test_kl_non_increasing(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            V = rng.uniform(0.0, 1.0, (16, 12))
            prev = np.inf
            for iters in (0, 5, 20, 80):
                m = nmf_fit(V, rank=3, iterations=iters, seed=trial)
                kl = kl_divergence(V, m.W @ m.H)
                assert kl <= prev + 1e-12
                prev = kl

    def test_rank_one_exact_recovery(self):
        rng = np.random.default_rng(3)
        w = rng.uniform(0.1, 1.0, 12)
        h = rng.uniform(0.1, 1.0, 10)
        V = np.outer(w, h)
        m = nmf_fit(V, rank=1, iterations=500, seed=0)
        assert kl_divergence(V, m.W @ m.H) < 1e-8

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            nmf_fit(-np.ones((4, 4)), 2, 10)

    def test_bad_rank(self):
        with pytest.raises(ConfigurationError):
            nmf_fit(np.ones((4, 4)), 0, 10)

    def test_initialization_respected(self):
        V = np.ones((4, 4))
        W0 = np.full((4, 2), 0.5)
        H0 = np.full((2, 4), 1.0)
        m = nmf_fit(V, 2, iterations=0, init_W=W0, init_H=H0)
        np.testing.assert_allclose(m.W, W0)
        np.testing.assert_allclose(m.H, H0)

    def test_model_validation(self):
        with pytest.raises(DomainError):
            NmfModel(-np.ones((4, 2)), np.ones((2, 3)), (0, 1))
        with pytest.raises(ShapeError):
            NmfModel(np.ones((4, 2)), np.ones((2, 3)), (0,))


class TestPitchCandidates:
    def test_pure_tone_within_one_percent(self):
        x = np.sin(2 * np.pi * 220.0 * np.arange(8000) / 8000)
        cands = pitch_candidates(wf(x), 80.0, 500.0, frame_size=2048, hop_size=512)
        voiced = [c for c in cands if c]
        assert len(voiced) > len(cands) // 2
        for c in voiced:
            assert abs(c[0] - 220.0) / 220.0 < 0.01

    def test_two_tone_mixture_finds_both(self):
        # harmonically rich tones: autocorrelation pitch needs partials to
        # disambiguate simultaneous voices
        x = harmonic(220.0, 16000) + harmonic(330.0, 16000)
        cands = pitch_candidates(wf(x), 150.0, 450.0, frame_size=2048, hop_size=512)
        hits = 0
        for c in cands:
            got220 = any(abs(f - 220.0) / 220.0 < 0.02 for f in c)
            got330 = any(abs(f - 330.0) / 330.0 < 0.02 for f in c)
            hits += got220 and got330
        assert hits >= 0.8 * len(cands)

    def test_silence_gives_empty(self):
        loud = np.sin(2 * np.pi * 220.0 * np.arange(4096) / 8000)
        x = np.concatenate([loud, np.zeros(4096)])
        cands = pitch_candidates(wf(x), 80.0, 500.0, frame_size=2048, hop_size=2048 // 2)
        assert cands[-1] == []

    def test_bad_range(self):
        with pytest.raises(ConfigurationError):
            pitch_candidates(wf(np.zeros(4096)), 500.0, 80.0)

    def test_too_short(self):
        with pytest.raises(DomainError):
            pitch_candidates(wf(np.zeros(100)), 80.0, 500.0)


class TestSeparateNmf:
    def problem(self, n=16000, rate=8000):
        s1 = harmonic(220.0, n, rate)
        s2 = harmonic(327.0, n, rate)
        peak = max(np.max(np.abs(s1)), np.max(np.abs(s2)))
        s1, s2 = 0.5 * s1 / peak, 0.5 * s2 / peak
        mixture = wf(s1 + s2, rate)
        return MixtureProblem(mixture, 2), [s1, s2]

    def test_disjoint_band_separation(self):
        """Two harmonic tones a tritone-plus apart must separate well."""
        from duetsep import evaluate

        problem, refs = self.problem()
        sep = separate_nmf(problem, iterations=200, frame_size=2048, hop_size=512,
                           fmin=150.0, fmax=450.0)
        report = evaluate(sep.sources, refs, problem.mixture)
        assert report.mean_si_sdri > 5.0
        assert not sep.used_random_init

    def test_masks_mixture_consistent(self):
        """The per-source Wiener masks must sum to one wherever the model has
        energy, so the masked spectrograms reassemble the mixture spectrum."""
        problem, _ = self.problem(n=8000)
        sep = separate_nmf(problem, iterations=50, frame_size=1024, hop_size=256,
                           fmin=150.0, fmax=450.0)
        model = sep.model
        WH = np.maximum(model.W @ model.H, EPS)
        total = np.zeros_like(WH)
        for s in range(2):
            comps = [c for c, o in enumerate(model.source_of_component) if o == s]
            total += model.W[:, comps] @ model.H[comps, :] / WH
        # masks partition the model spectrum wherever it carries energy
        active = (model.W @ model.H) > 1e-9
        assert active.mean() > 0.5
        np.testing.assert_allclose(total[active], 1.0, atol=1e-6)

    def test_sources_sum_close_to_mixture(self):
        problem, _ = self.problem(n=8000)
        sep = separate_nmf(problem, iterations=50, frame_size=1024, hop_size=256,
                           fmin=150.0, fmax=450.0)
        total = np.sum([s.samples for s in sep.sources], axis=0)
        mixture = problem.mixture.samples
        err = np.sqrt(np.mean((total - mixture) ** 2))
        assert err < 0.05 * np.sqrt(np.mean(mixture**2))

    def test_pitch_start_lines_up_with_the_stft(self):
        """The pitch-informed start activates a tone in the STFT columns that
        hold its energy: pitch frame j is centred on column j."""
        rate, n = 8000, 32000
        x = np.zeros(n)
        x[n // 2 :] = harmonic(220.0, n // 2, rate)
        problem = MixtureProblem(wf(x, rate), 2)
        energy = np.sum(stft(problem.mixture, 1024, 256).magnitudes ** 2, axis=0)
        first_energetic = np.flatnonzero(energy >= 0.05 * energy.max())[0]
        sep = separate_nmf(problem, iterations=0, frame_size=1024, hop_size=256)
        first_active = np.flatnonzero(np.any(sep.model.H >= 1.0, axis=0))[0]
        assert abs(first_active - first_energetic) <= 1

    def test_random_init_reported_for_one_unvoiced_track(self):
        # the octave above 220 Hz is suppressed as a harmonic, so the second
        # track finds no voiced frame and starts from random templates while
        # the first is pitch-informed
        rate = 8000
        t = np.arange(2 * rate) / rate
        x = 0.5 * np.sin(2 * np.pi * 220 * t) + 0.25 * np.sin(2 * np.pi * 440 * t)
        problem = MixtureProblem(wf(x, rate), 2)
        sep = separate_nmf(problem, iterations=0, frame_size=1024, fmin=150.0, fmax=450.0)
        assert np.max(sep.model.H[:8]) >= 1.0  # the pitch-informed start
        assert sep.used_random_init

    def test_random_init_fallback_on_silence(self):
        problem = MixtureProblem(wf(np.zeros(4096)), 2)
        sep = separate_nmf(problem, iterations=10, frame_size=1024, hop_size=256)
        assert sep.used_random_init
        assert len(sep.sources) == 2

    def test_one_output_per_problem_source(self):
        problem, _ = self.problem(n=4096)
        three = MixtureProblem(problem.mixture, 3)
        sep = separate_nmf(three, iterations=10, frame_size=1024, hop_size=256)
        assert len(sep.sources) == 3
        assert len(set(sep.model.source_of_component)) == 3

    def test_n_sources_validation(self):
        # the problem is the only guard against < 2 sources
        with pytest.raises(ConfigurationError):
            MixtureProblem(wf(np.zeros(4096)), 1)
