from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duetsep import (
    GaussianPrior,
    Integrator,
    MixtureProblem,
    Mode,
    NoiseSchedule,
    SamplerConfig,
    Selection,
    SeparationConfig,
    Waveform,
    evaluate,
    kde_prior_from_exemplars,
    make_grid,
    plan_segments,
    sample_posterior,
    select_best_of_k,
    separate,
    si_sdr,
    stitch,
)
from duetsep.errors import ConfigurationError, ShapeError
from duetsep.pipeline import _safe_si_sdr


class TestPlanSegments:
    def test_disjoint_tiling(self):
        plan = plan_segments(2 * 64, 64, 0.0)
        assert plan.offsets == (0, 64)
        assert plan.hop == 64
        assert plan.overlap == 0
        assert plan.padded_length == 128

    def test_quarter_hop(self):
        plan = plan_segments(10 * 131072, 131072, 0.75)
        assert plan.hop == 32768
        assert plan.overlap == 131072 - 32768

    def test_short_signal_single_segment(self):
        plan = plan_segments(40, 64, 0.5)
        assert plan.offsets == (0,)
        assert plan.padded_length == 64

    def test_coverage(self):
        plan = plan_segments(1000, 128, 0.75)
        last = plan.offsets[-1]
        assert last + plan.segment_length >= 1000
        assert plan.padded_length == last + 128
        np.testing.assert_array_equal(np.diff(plan.offsets), plan.hop)

    def test_invalid_ratio(self):
        with pytest.raises(ConfigurationError):
            plan_segments(100, 32, 1.0)
        with pytest.raises(ConfigurationError):
            plan_segments(100, 32, -0.1)

    @pytest.mark.parametrize("seg, r", [(2048, 0.9999), (8192, 0.99995), (1, 0.5), (3, 0.9)])
    def test_hop_rounding_to_zero_rejected(self, seg, r):
        # the hop would round to 0; it is not clamped up to one sample
        assert round(seg * (1.0 - r)) == 0
        with pytest.raises(ConfigurationError):
            plan_segments(10 * seg, seg, r)

    def test_hop_of_one_sample_accepted(self):
        # 0.9999 at L = 8192 rounds the hop up to exactly 1, which is valid
        plan = plan_segments(8192 + 3, 8192, 0.9999)
        assert plan.hop == 1 and plan.offsets == (0, 1, 2, 3)

    def test_invalid_lengths(self):
        with pytest.raises(ConfigurationError):
            plan_segments(100, 0, 0.0)
        with pytest.raises(ConfigurationError):
            plan_segments(0, 32, 0.0)

    @given(
        n=st.integers(1, 4000),
        seg=st.integers(1, 256),
        r=st.floats(0, 0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_properties(self, n, seg, r):
        hop = round(seg * (1.0 - r))
        if hop < 1:
            with pytest.raises(ConfigurationError):
                plan_segments(n, seg, r)
            return
        plan = plan_segments(n, seg, r)
        assert plan.hop == hop >= 1
        assert plan.offsets[0] == 0
        assert plan.offsets[-1] + seg >= n
        if len(plan.offsets) > 1:
            assert plan.offsets[-2] + seg < n


class TestSelectBestOfK:
    def test_single_candidate_identity(self):
        refs = [np.ones(8), np.arange(8.0)]
        idx, perm = select_best_of_k([refs], Selection.ORACLE_SI_SDR, refs, np.zeros(8))
        assert idx == 0 and perm == (0, 1)

    def test_matches_brute_force(self):
        from itertools import permutations

        rng = np.random.default_rng(0)
        refs = [rng.normal(size=32), rng.normal(size=32)]
        cands = [
            [refs[0] + rng.normal(size=32) * s, refs[1] + rng.normal(size=32) * s]
            for s in (1.0, 0.2, 0.6)
        ]
        rng2 = np.random.default_rng(1)
        cands[1] = cands[1][::-1]  # permuted candidate must still win
        idx, perm = select_best_of_k(cands, Selection.ORACLE_SI_SDR, refs, np.zeros(32))
        best = max(
            ((i, p) for i in range(3) for p in permutations(range(2))),
            key=lambda ip: np.mean(
                [_safe_si_sdr(cands[ip[0]][ip[1][j]], refs[j]) for j in range(2)]
            ),
        )
        assert (idx, perm) == best
        assert idx == 1 and perm == (1, 0)

    def test_mixture_residual_fallback(self):
        mixture = np.ones(16)
        good = [0.5 * mixture, 0.5 * mixture]
        bad = [mixture, mixture]
        idx, perm = select_best_of_k([bad, good], Selection.MIXTURE_RESIDUAL, None, mixture)
        assert idx == 1 and perm == (0, 1)

    def test_oracle_requires_references(self):
        with pytest.raises(ConfigurationError):
            select_best_of_k([[np.ones(4)]], Selection.ORACLE_SI_SDR, None, np.ones(4))

    def test_oracle_reference_count_must_match(self):
        cand = [np.ones(4), np.arange(4.0)]
        with pytest.raises(ShapeError):
            select_best_of_k([cand], Selection.ORACLE_SI_SDR, [np.ones(4)], np.ones(4))

    @pytest.mark.parametrize("selection", list(Selection))
    def test_ties_keep_first_candidate(self, selection):
        refs = [np.arange(8.0), np.cos(np.arange(8.0))]
        cand = [refs[0] + 0.1, refs[1] - 0.1]
        idx, perm = select_best_of_k([cand, list(cand)], selection, refs, np.ones(8))
        assert idx == 0 and perm == (0, 1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_one_candidate_takes_evaluates_permutation(self, n):
        rng = np.random.default_rng(n)
        refs = rng.normal(size=(n, 48))
        cand = refs[np.roll(np.arange(n), 1)] + 0.4 * rng.normal(size=(n, 48))
        mixture = np.sum(refs, axis=0)
        idx, perm = select_best_of_k([cand], Selection.ORACLE_SI_SDR, refs, mixture)
        assert idx == 0 and perm != tuple(range(n))
        assert perm == evaluate(list(cand), list(refs), mixture).permutation

    def test_zero_reference_scores_zero(self):
        assert _safe_si_sdr(np.ones(4), np.zeros(4)) == 0.0


class TestStitch:
    def test_disjoint_concatenation(self):
        plan = plan_segments(8, 4, 0.0)
        segs = [[np.arange(4.0)], [np.arange(4.0, 8.0)]]
        out = stitch(segs, plan)
        np.testing.assert_array_equal(out[0], np.arange(8.0))

    def test_agreeing_overlap_is_seamless(self):
        full = np.sin(np.linspace(0, 6, 96))
        plan = plan_segments(96, 64, 0.5)
        segs = [[full[off : off + 64].copy()] for off in plan.offsets]
        out = stitch(segs, plan)
        np.testing.assert_allclose(out[0][:96], full, atol=1e-12)

    def test_crossfade_bounded_slope(self):
        """A unit jump between disagreeing segments must be spread over the
        crossfade: no adjacent-sample difference may exceed 1/(width-1) plus
        rounding."""
        plan = plan_segments(96, 64, 0.5)
        segs = [[np.zeros(64)], [np.ones(64)]]
        out = stitch(segs, plan)
        width = min(256, plan.overlap // 4)
        assert np.max(np.abs(np.diff(out[0]))) <= 1.0 / (width - 1) + 1e-12

    def test_earlier_segment_owns_overlap(self):
        plan = plan_segments(96, 64, 0.5)
        segs = [[np.zeros(64)], [np.ones(64)]]
        out = stitch(segs, plan)
        junction = plan.offsets[1] + plan.overlap
        width = min(256, plan.overlap // 4)
        assert np.all(out[0][: junction - width] == 0.0)
        assert np.all(out[0][junction:] == 1.0)

    @given(
        count=st.integers(1, 6),
        seg=st.integers(1, 40),
        sources=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_zero_overlap_is_concatenation(self, count, seg, sources, seed):
        plan = plan_segments(count * seg, seg, 0.0)
        assert len(plan.offsets) == count
        rng = np.random.default_rng(seed)
        segs = [[rng.normal(size=seg) for _ in range(sources)] for _ in range(count)]
        out = stitch(segs, plan)
        assert len(out) == sources
        for src in range(sources):
            np.testing.assert_array_equal(out[src], np.concatenate([s[src] for s in segs]))

    @given(
        seg=st.integers(6, 299),
        overlap=st.floats(0.0, 0.9),
        extra=st.integers(0, 600),
        sources=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_agreeing_segments_rebuild_the_signal(self, seg, overlap, extra, sources, seed):
        # where neighbouring segments agree, each crossfade blends two equal
        # values convexly, so every source comes back to rounding
        plan = plan_segments(seg + extra, seg, overlap)
        full = np.random.default_rng(seed).normal(size=(sources, plan.padded_length))
        segs = [[x[off : off + seg] for x in full] for off in plan.offsets]
        out = stitch(segs, plan)
        assert len(out) == sources
        for got, want in zip(out, full):
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_arrays_and_lists_agree(self):
        plan = plan_segments(96, 64, 0.5)
        segs = np.random.default_rng(0).normal(size=(2, 2, 64))
        for got, want in zip(stitch(list(segs), plan), stitch([list(s) for s in segs], plan)):
            np.testing.assert_array_equal(got, want)

    def test_source_count_mismatch(self):
        plan = plan_segments(8, 4, 0.0)
        with pytest.raises(ShapeError):
            stitch([np.zeros((2, 4)), np.zeros((1, 4))], plan)

    def test_count_mismatch(self):
        plan = plan_segments(8, 4, 0.0)
        with pytest.raises(ShapeError):
            stitch([[np.zeros(4)]], plan)

    def test_length_mismatch(self):
        plan = plan_segments(8, 4, 0.0)
        with pytest.raises(ShapeError):
            stitch([[np.zeros(4)], [np.zeros(5)]], plan)


def toy_problem(n=64, seed=0):
    rng = np.random.default_rng(seed)
    s1 = rng.normal(size=n) * 0.5
    s2 = rng.normal(size=n) * 0.5
    mixture = s1 + s2
    problem = MixtureProblem(Waveform(mixture, 8000), 2)
    refs = [Waveform(s1, 8000), Waveform(s2, 8000)]
    return problem, refs


def toy_models(refs, length):
    ex = np.stack([r.samples[:length] for r in refs])
    prior = kde_prior_from_exemplars(ex, bandwidth=0.1)
    return [prior, prior]


def make_config(mode, n, seg, r, steps=30, seed=0, k=1):
    return SeparationConfig(
        mode=mode,
        plan=plan_segments(n, seg, r),
        grid=make_grid(NoiseSchedule(0.01, 2.0), steps),
        integrator=Integrator.HEUN,
        seed=seed,
        best_of_k=k,
        selection=Selection.ORACLE_SI_SDR,
    )


class TestSeparationConfig:
    @pytest.mark.parametrize(
        "field, value", [("best_of_k", 0), ("best_of_k", 2.5), ("seed", -1), ("seed", 2.5)]
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ConfigurationError):
            replace(make_config(Mode.AR, 96, 32, 0.75), **{field: value})

    @pytest.mark.parametrize("field", ["best_of_k", "seed"])
    def test_accepts_numpy_integers(self, field):
        cfg = replace(make_config(Mode.AR, 96, 32, 0.75), **{field: np.int64(2)})
        assert getattr(cfg, field) == 2


class TestSeparate:
    def test_model_length_per_mode(self):
        for mode in Mode:
            assert make_config(mode, 96, 32, 0.75).model_plan(96).segment_length == 32

    @given(
        mode=st.sampled_from(list(Mode)),
        n_sources=st.sampled_from([2, 3]),
        k=st.sampled_from([1, 2]),
        r=st.sampled_from([0.0, 0.5]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_sources_sum_to_mixture(self, mode, n_sources, k, r, seed):
        """Every mode emits sources that add back to the mixture: the sampler
        makes the constrained source the residual, and stitch's crossfade is a
        convex blend of segments that each sum to the mixture."""
        n = 96
        rng = np.random.default_rng(seed)
        refs = [Waveform(rng.normal(size=n) * 0.5, 8000) for _ in range(n_sources)]
        mixture = np.sum([w.samples for w in refs], axis=0)
        problem = MixtureProblem(Waveform(mixture, 8000), n_sources)
        cfg = make_config(mode, n, 32, r, steps=5, seed=seed, k=k)
        bank = rng.normal(size=(6, cfg.model_plan(n).segment_length)) * 0.5
        models = [kde_prior_from_exemplars(bank, bandwidth=0.1)] * n_sources
        result = separate(problem, models, cfg, references=refs)
        assert len(result.sources) == n_sources
        total = np.sum([w.samples for w in result.sources], axis=0)
        peak = float(np.max(np.abs(mixture)))
        assert np.max(np.abs(total - mixture)) <= 1e-9 * max(1.0, peak)

    def test_outputs_match_input_length(self):
        problem, refs = toy_problem(100)
        models = toy_models(refs, 32)
        cfg = make_config(Mode.AR, 100, 32, 0.5, steps=15)
        result = separate(problem, models, cfg, references=refs)
        assert all(len(s) == 100 for s in result.sources)
        assert len(result.per_segment) == len(cfg.plan.offsets)

    @pytest.mark.parametrize("mode", [Mode.AR, Mode.AR_TF])
    @pytest.mark.parametrize("planned_for", [128, 512])
    def test_plan_follows_the_mixture(self, mode, planned_for):
        """A plan built for another length gives only its segment length and
        overlap ratio: the segments cover this mixture, no more."""
        problem, refs = toy_problem(256, seed=11)
        models = toy_models(refs, 32)
        cfg = make_config(mode, planned_for, 32, 0.5, steps=5)
        result = separate(problem, models, cfg, references=refs)
        assert all(len(s) == 256 for s in result.sources)
        total = np.sum([s.samples for s in result.sources], axis=0)
        np.testing.assert_allclose(total, problem.mixture.samples, atol=1e-9)
        assert len(result.per_segment) == len(plan_segments(256, 32, 0.5).offsets)

    def test_ar_zero_overlap_equals_segmented(self):
        problem, refs = toy_problem(128, seed=3)
        models = toy_models(refs, 32)
        ar = separate(
            problem, models, make_config(Mode.AR, 128, 32, 0.0, steps=20, k=2),
            references=refs,
        )
        seg = separate(
            problem, models, make_config(Mode.SEGMENTED, 128, 32, 0.0, steps=20, k=2),
            references=refs,
        )
        for a, b in zip(ar.sources, seg.sources):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_segmented_ignores_overlap_ratio(self):
        """Segmented runs on disjoint segment-length pieces regardless of r."""
        problem, refs = toy_problem(128, seed=4)
        models = toy_models(refs, 32)
        a = separate(
            problem, models, make_config(Mode.SEGMENTED, 128, 32, 0.5, steps=20),
            references=refs,
        )
        b = separate(
            problem, models, make_config(Mode.SEGMENTED, 128, 32, 0.0, steps=20),
            references=refs,
        )
        for x, y in zip(a.sources, b.sources):
            np.testing.assert_array_equal(x.samples, y.samples)

    def test_naive_reduces_to_single_posterior_run(self):
        problem, refs = toy_problem(64, seed=5)
        models = toy_models(refs, 64)
        cfg = make_config(Mode.NAIVE, 64, 64, 0.0, steps=20)
        result = separate(problem, models, cfg, references=refs)
        assert len(result.per_segment) == 1
        rec = result.per_segment[0]
        direct = sample_posterior(
            problem, models,
            SamplerConfig(grid=cfg.grid, integrator=cfg.integrator, seed=rec.seed),
        )
        chosen = [direct[p] for p in rec.permutation]
        for got, want in zip(result.sources, chosen):
            np.testing.assert_array_equal(got.samples, want)

    def test_sources_sum_to_mixture_without_overlap(self):
        problem, refs = toy_problem(96, seed=6)
        models = toy_models(refs, 32)
        cfg = make_config(Mode.SEGMENTED, 96, 32, 0.0, steps=15)
        result = separate(problem, models, cfg, references=refs)
        total = np.sum([s.samples for s in result.sources], axis=0)
        np.testing.assert_allclose(total, problem.mixture.samples, atol=1e-10)

    def test_deterministic(self):
        problem, refs = toy_problem(96, seed=7)
        models = toy_models(refs, 32)
        cfg = make_config(Mode.AR, 96, 32, 0.5, steps=15, k=2)
        a = separate(problem, models, cfg, references=refs)
        b = separate(problem, models, cfg, references=refs)
        for x, y in zip(a.sources, b.sources):
            np.testing.assert_array_equal(x.samples, y.samples)

    def test_best_of_k_never_decreases_score(self):
        problem, refs = toy_problem(64, seed=8)
        models = toy_models(refs, 64)
        r1 = separate(
            problem, models, make_config(Mode.NAIVE, 64, 64, 0.0, steps=20, k=1),
            references=refs,
        )
        r3 = separate(
            problem, models, make_config(Mode.NAIVE, 64, 64, 0.0, steps=20, k=3),
            references=refs,
        )
        assert r3.per_segment[0].selection_score >= r1.per_segment[0].selection_score

    def test_oracle_requires_references(self):
        problem, refs = toy_problem(64)
        models = toy_models(refs, 32)
        cfg = make_config(Mode.SEGMENTED, 64, 32, 0.0, steps=5)
        with pytest.raises(ConfigurationError):
            separate(problem, models, cfg)

    @pytest.mark.parametrize("count", [1, 3])
    def test_reference_count_must_match_sources(self, count):
        problem, refs = toy_problem(64)
        models = toy_models(refs, 32)
        cfg = make_config(Mode.SEGMENTED, 64, 32, 0.0, steps=5)
        with pytest.raises(ShapeError):
            separate(problem, models, cfg, references=(refs * 2)[:count])

    def test_reference_sample_rate_must_match(self):
        problem, refs = toy_problem(64)
        models = toy_models(refs, 32)
        cfg = make_config(Mode.SEGMENTED, 64, 32, 0.0, steps=5)
        refs_16k = [Waveform(r.samples, 16000) for r in refs]
        with pytest.raises(ShapeError):
            separate(problem, models, cfg, references=refs_16k)

    def test_silent_reference_rejected(self):
        problem, refs = toy_problem(64)
        models = toy_models(refs, 32)
        cfg = make_config(Mode.SEGMENTED, 64, 32, 0.0, steps=5)
        silent = [refs[0], Waveform(np.zeros(64), 8000)]
        with pytest.raises(ConfigurationError, match="identically zero"):
            separate(problem, models, cfg, references=silent)

    def test_ar_tf_requires_references(self):
        problem, refs = toy_problem(64)
        models = toy_models(refs, 32)
        cfg = SeparationConfig(
            mode=Mode.AR_TF,
            plan=plan_segments(64, 32, 0.5),
            grid=make_grid(NoiseSchedule(0.01, 2.0), 5),
            selection=Selection.MIXTURE_RESIDUAL,
        )
        with pytest.raises(ConfigurationError):
            separate(problem, models, cfg)

    def test_incompatible_native_length(self):
        problem, refs = toy_problem(64)
        models = [GaussianPrior(mean=np.zeros(24), variance=1.0)] * 2
        cfg = make_config(Mode.SEGMENTED, 64, 32, 0.0, steps=5)
        with pytest.raises(ShapeError):
            separate(problem, models, cfg, references=refs)

    def test_tiled_model_used_for_multiples(self):
        problem, refs = toy_problem(64, seed=9)
        models = toy_models(refs, 16)  # native 16, naive segment 64
        cfg = make_config(Mode.NAIVE, 64, 64, 0.0, steps=10)
        result = separate(problem, models, cfg, references=refs)
        assert all(len(s) == 64 for s in result.sources)

    @pytest.mark.parametrize("mode", [Mode.AR, Mode.AR_TF, Mode.SEGMENTED])
    def test_only_naive_tiles_a_shorter_model(self, mode):
        """Only naive's padded span is longer than the models; every other
        mode scores a prior at its own length and refuses a shorter one."""
        problem, refs = toy_problem(64, seed=9)
        cfg = make_config(mode, 64, 32, 0.5, steps=5)
        models = toy_models(refs, cfg.model_plan(64).segment_length // 2)
        with pytest.raises(ShapeError, match="native_length"):
            separate(problem, models, cfg, references=refs)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_to_dict_roundtrips_config(self, mode):
        """The result reports the plan that ran, naive's padded span included,
        and re-running its config gives the same sources."""
        # (segment_length, overlap_ratio, segments) at L = 32, r = 0.5, n = 50
        ran = {Mode.NAIVE: (64, 0.0, 1), Mode.SEGMENTED: (32, 0.0, 2),
               Mode.AR: (32, 0.5, 3), Mode.AR_TF: (32, 0.5, 3)}[mode]
        problem, refs = toy_problem(50, seed=10)
        models = toy_models(refs, 32)
        cfg = make_config(mode, 50, 32, 0.5, steps=5, k=2)
        result = separate(problem, models, cfg, references=refs)
        d = result.to_dict()
        assert d["mode"] == mode.value
        assert d["best_of_k"] == 2
        assert (d["segment_length"], d["overlap_ratio"], len(d["per_segment"])) == ran
        again = separate(problem, models, result.config, references=refs)
        for x, y in zip(result.sources, again.sources):
            np.testing.assert_array_equal(x.samples, y.samples)
