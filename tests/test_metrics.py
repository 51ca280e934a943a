import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duetsep import (
    SDR_CAP_DB,
    Waveform,
    envelope_features,
    evaluate,
    identity_switch_rate,
    sdr,
    si_sdr,
)
from duetsep.errors import DomainError, ShapeError
from duetsep.metrics import best_assignment


def direct_si_sdr(est, ref):
    alpha = np.dot(est, ref) / np.dot(ref, ref)
    t = alpha * ref
    return 10 * np.log10(np.dot(t, t) / np.sum((t - est) ** 2))


class TestSiSdr:
    def test_perfect_estimate_capped(self):
        x = np.sin(np.linspace(0, 10, 128))
        assert si_sdr(x, x) == SDR_CAP_DB
        assert si_sdr(3.0 * x, x) == SDR_CAP_DB

    def test_orthogonal_equal_energy_is_zero_db(self):
        ref = np.array([1.0, 0.0])
        est = np.array([1.0, 1.0])  # projection leaves an equal-energy residual
        assert si_sdr(est, ref) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ref = rng.normal(size=64)
            est = ref + 0.3 * rng.normal(size=64)
            assert si_sdr(est, ref) == pytest.approx(direct_si_sdr(est, ref), abs=1e-12)

    @given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        ref = rng.normal(size=64)
        est = ref + 0.5 * rng.normal(size=64)
        assert abs(si_sdr(scale * est, ref) - si_sdr(est, ref)) < 1e-9

    def test_degenerate_estimates_floor(self):
        ref = np.array([1.0, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert si_sdr(np.zeros(3), ref) == -SDR_CAP_DB
            assert si_sdr(np.array([0.0, 5.0, 0.0]), ref) == -SDR_CAP_DB

    def test_zero_reference_rejected(self):
        with pytest.raises(DomainError):
            si_sdr(np.ones(4), np.zeros(4))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            si_sdr(np.ones(4), np.ones(5))


class TestSdr:
    def test_not_scale_invariant(self):
        rng = np.random.default_rng(1)
        ref = rng.normal(size=64)
        est = ref + 0.3 * rng.normal(size=64)
        assert abs(sdr(2 * est, ref) - sdr(est, ref)) > 0.1

    def test_known_value(self):
        ref = np.array([2.0, 0.0])
        est = np.array([2.0, 1.0])
        # ||ref||^2 = 4, ||ref - est||^2 = 1 -> 10 log10 4
        assert sdr(est, ref) == pytest.approx(10 * np.log10(4.0), abs=1e-12)

    def test_perfect_capped(self):
        x = np.ones(8)
        assert sdr(x, x) == SDR_CAP_DB

    def test_degenerate_estimates_floor(self):
        ref = np.array([1.0, 0.0, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sdr(np.zeros(3), ref) == 0.0
            assert sdr(np.array([0.0, 1e6, 0.0]), ref) == -SDR_CAP_DB

    def test_si_sdr_dominates_under_scale_error(self):
        """With estimate = beta*ref + orthogonal noise, the scale projection
        removes the beta error, so si_sdr >= sdr."""
        rng = np.random.default_rng(8)
        ref = rng.normal(size=128)
        e = rng.normal(size=128)
        e -= np.dot(e, ref) / np.dot(ref, ref) * ref
        est = 1.7 * ref + e
        assert si_sdr(est, ref) >= sdr(est, ref)


class TestEvaluate:
    def test_identity_permutation(self):
        rng = np.random.default_rng(2)
        refs = [rng.normal(size=64), rng.normal(size=64)]
        mixture = refs[0] + refs[1]
        report = evaluate(refs, refs, mixture)
        assert report.permutation == (0, 1)
        assert report.per_source[0].si_sdr == SDR_CAP_DB

    def test_swapped_estimates_found(self):
        rng = np.random.default_rng(3)
        refs = [rng.normal(size=64), rng.normal(size=64)]
        mixture = refs[0] + refs[1]
        report = evaluate([refs[1], refs[0]], refs, mixture)
        assert report.permutation == (1, 0)
        assert report.mean_si_sdri > 0

    def test_three_source_matches_brute_force(self):
        from itertools import permutations

        rng = np.random.default_rng(4)
        refs = [rng.normal(size=48) for _ in range(3)]
        ests = [refs[i] + 0.5 * rng.normal(size=48) for i in (2, 0, 1)]
        mixture = np.sum(refs, axis=0)
        report = evaluate(ests, refs, mixture)
        best = max(
            permutations(range(3)),
            key=lambda p: np.mean([si_sdr(ests[p[i]], refs[i]) for i in range(3)]),
        )
        assert report.permutation == best

    def test_improvement_sign(self):
        """A good estimate must improve over the raw mixture baseline."""
        rng = np.random.default_rng(5)
        refs = [rng.normal(size=128), rng.normal(size=128)]
        mixture = refs[0] + refs[1]
        ests = [refs[0] + 0.05 * rng.normal(size=128),
                refs[1] + 0.05 * rng.normal(size=128)]
        report = evaluate(ests, refs, mixture)
        assert report.mean_si_sdri > 5.0

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            evaluate([np.ones(4)], [np.ones(4), np.ones(4)], np.ones(4))

    def test_sample_rates_must_agree(self):
        rng = np.random.default_rng(8)
        refs = [rng.normal(size=64), rng.normal(size=64)]
        with pytest.raises(ShapeError):
            evaluate(
                [Waveform(refs[0], 16000), Waveform(refs[1], 8000)],
                [Waveform(r, 8000) for r in refs],
                Waveform(refs[0] + refs[1], 44100),
            )

    def test_invariant_to_consistent_permutation(self):
        rng = np.random.default_rng(7)
        refs = [rng.normal(size=64), rng.normal(size=64)]
        ests = [refs[0] + 0.3 * rng.normal(size=64),
                refs[1] + 0.3 * rng.normal(size=64)]
        mixture = refs[0] + refs[1]
        a = evaluate(ests, refs, mixture)
        b = evaluate(ests[::-1], refs[::-1], mixture)
        assert a.mean_si_sdri == pytest.approx(b.mean_si_sdri, abs=1e-12)

    def test_to_dict_keys(self):
        rng = np.random.default_rng(6)
        refs = [rng.normal(size=32), rng.normal(size=32)]
        d = evaluate(refs, refs, refs[0] + refs[1]).to_dict()
        assert set(d) == {
            "permutation", "per_source",
            "mean_si_sdri", "mean_sdri",
        }


class TestBestAssignment:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_force(self, n):
        scores = np.random.default_rng(n).normal(size=(n, n))
        perm, mean = best_assignment(scores)
        best = max(
            permutations(range(n)),
            key=lambda p: np.mean([scores[i][p[i]] for i in range(n)]),
        )
        assert perm == best
        assert mean == np.mean([scores[i][p] for i, p in enumerate(best)])

    @pytest.mark.parametrize(
        "scores, perm",
        [
            ([[1.0, 1.0], [1.0, 1.0]], (0, 1)),
            # (0, 2, 1), (1, 0, 2), (1, 2, 0) and (2, 0, 1) all sum to 10
            ([[0.0, 5.0, 0.0], [5.0, 0.0, 5.0], [0.0, 5.0, 0.0]], (0, 2, 1)),
            (np.ones((4, 4)), (0, 1, 2, 3)),
        ],
    )
    def test_ties_keep_the_first_permutation(self, scores, perm):
        assert best_assignment(scores)[0] == perm

    def test_rows_are_references(self):
        # estimate 1 is the only good match for reference 0
        assert best_assignment([[0.0, 9.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]) == (
            (1, 0, 2), pytest.approx(11 / 3)
        )


def tone(freq, n, rate=8000, harmonics=((1, 1.0),)):
    t = np.arange(n) / rate
    return sum(a * np.sin(2 * np.pi * k * freq * t) for k, a in harmonics)


class TestEnvelopeFeatures:
    def test_shape(self):
        feats = envelope_features(np.random.default_rng(0).normal(size=2048), 512)
        assert feats.shape == (4, 24)

    def test_level_invariant(self):
        x = tone(220.0, 2048)
        a = envelope_features(x, 512)
        b = envelope_features(10.0 * x, 512)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_long_frame_reads_every_sample(self):
        # a frame longer than the 1024-point FFT is analysed whole: a tone in
        # each frame's second half shows in its features
        frame = 2048
        half = np.sin(2 * np.pi * 0.05 * np.arange(frame // 2))
        x = np.tile(np.concatenate([np.zeros(frame // 2), half]), 3)
        feats = envelope_features(x, frame)
        assert np.ptp(feats, axis=1).min() > 1.0

    def test_too_short(self):
        with pytest.raises(DomainError):
            envelope_features(np.zeros(10), 512)


class TestIdentitySwitchRate:
    def protos(self):
        bright = tone(220.0, 4096, harmonics=((1, 0.2), (5, 1.0)))
        dark = tone(220.0, 4096, harmonics=((1, 1.0), (2, 0.3)))
        return [
            np.mean(envelope_features(bright, 512), axis=0),
            np.mean(envelope_features(dark, 512), axis=0),
        ]

    def test_constant_identity_is_zero(self):
        x = tone(220.0, 4096, harmonics=((1, 0.2), (5, 1.0)))
        assert identity_switch_rate([x], self.protos(), 512) == 0.0

    def test_alternating_blocks_switch(self):
        bright = tone(220.0, 1024, harmonics=((1, 0.2), (5, 1.0)))
        dark = tone(220.0, 1024, harmonics=((1, 1.0), (2, 0.3)))
        x = np.concatenate([bright, dark, bright, dark])
        rate = identity_switch_rate([x], self.protos(), 1024)
        assert rate == pytest.approx(1.0)

    def test_silence_carries_assignment(self):
        bright = tone(220.0, 1024, harmonics=((1, 0.2), (5, 1.0)))
        x = np.concatenate([bright, np.zeros(1024), bright])
        assert identity_switch_rate([x], self.protos(), 1024) == 0.0

    def test_single_frame_rejected(self):
        with pytest.raises(DomainError):
            identity_switch_rate([np.ones(512)], self.protos(), 512)

    @pytest.mark.parametrize(
        "protos",
        [[], [np.ones(20), np.zeros(20)], [np.ones(24), np.zeros(20)]],
        ids=["none", "narrower-than-bands", "ragged"],
    )
    def test_prototypes_must_be_p_by_bands(self, protos):
        with pytest.raises(ShapeError):
            identity_switch_rate([tone(220.0, 2048)], protos, 512)

    def test_averages_over_sources(self):
        bright = tone(220.0, 1024, harmonics=((1, 0.2), (5, 1.0)))
        dark = tone(220.0, 1024, harmonics=((1, 1.0), (2, 0.3)))
        steady = np.concatenate([bright, bright])
        flip = np.concatenate([bright, dark])
        rate = identity_switch_rate([steady, flip], self.protos(), 1024)
        assert rate == pytest.approx(0.5)
