import pickle

import numpy as np
import pytest

from duetsep import (
    GaussianPrior,
    InpaintCondition,
    MixtureProblem,
    Mode,
    NoiseSchedule,
    SamplerConfig,
    Selection,
    SeparationConfig,
    Waveform,
    apply_inpaint,
    make_grid,
    plan_segments,
    posterior_score,
    sample_posterior,
    sample_prior,
    separate,
)
from duetsep.errors import (
    ConfigurationError,
    NumericalDivergenceError,
    ShapeError,
)


def config(steps=50, seed=0, smin=0.01, smax=10.0):
    return SamplerConfig(grid=make_grid(NoiseSchedule(smin, smax), steps), seed=seed)


def problem_for(mixture, n_sources=2):
    return MixtureProblem(Waveform(mixture, 8000), n_sources)


class Exploding:
    """A length-4 model whose score turns NaN after `calm_calls` calls."""

    native_length = 4

    def __init__(self, calm_calls=0):
        self.calls_left = calm_calls

    def score(self, x, sigma):
        self.calls_left -= 1
        return -x if self.calls_left >= 0 else np.full_like(x, np.nan)


class TestSamplePrior:
    def test_deterministic_given_seed(self):
        model = GaussianPrior(mean=np.zeros(8), variance=1.0)
        a = sample_prior(model, config(seed=3))
        b = sample_prior(model, config(seed=3))
        c = sample_prior(model, config(seed=4))
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gaussian_transport_matches_exact_map(self):
        """For a Gaussian prior the flow has a closed-form solution: the state
        contracts toward the mean by sqrt((v+smin^2)/(v+smax^2)) relative to
        its start. Heun at 200 steps should track that map tightly."""
        mean, v = 0.7, 1.3
        smin, smax = 0.01, 10.0
        model = GaussianPrior(mean=np.full(4, mean), variance=v)
        cfg = config(steps=200, seed=11, smin=smin, smax=smax)
        out = sample_prior(model, cfg)
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal(4) * smax
        ratio = np.sqrt((v + smin**2) / (v + smax**2))
        expected = mean + ratio * (x0 - mean)
        np.testing.assert_allclose(out, expected, atol=5e-3)

    def test_single_step_heun_contract(self):
        """One step is x0 + h/2 (d0 + d1), with d1 taken at the Euler
        predictor x0 + h d0."""
        model = GaussianPrior(mean=np.full(4, 0.3), variance=1.0)
        cfg = config(steps=1, seed=2)
        out = sample_prior(model, cfg)
        s0, s1 = cfg.grid.sigmas
        h = s1 - s0
        x0 = np.random.default_rng(2).standard_normal(4) * s0
        d0 = -s0 * model.score(x0, s0)
        d1 = -s1 * model.score(x0 + h * d0, s1)
        np.testing.assert_allclose(out, x0 + h / 2 * (d0 + d1), rtol=1e-12)

    def test_length_required_without_native(self):
        model = GaussianPrior(mean=0.0, variance=1.0)
        with pytest.raises(ConfigurationError):
            sample_prior(model, config())

    def test_divergence_raises_with_step(self):
        cfg = config(steps=3)
        with pytest.raises(NumericalDivergenceError) as exc:
            sample_prior(Exploding(), cfg)
        assert exc.value.step == 0
        assert exc.value.sigma == cfg.grid.sigmas[1]
        assert exc.value.segment is None
        assert str(exc.value) == "non-finite state at integrator step 0, sigma 1"

    def test_divergence_in_separate_names_its_segment(self):
        # segmented, 3 segments of 4, best-of-1, 3 Heun steps: each segment
        # makes 3 steps x 2 stages x 2 sources = 12 score calls
        model = Exploding(calm_calls=12)
        cfg = SeparationConfig(
            mode=Mode.SEGMENTED,
            plan=plan_segments(12, 4, 0.0),
            grid=config(steps=3).grid,
            selection=Selection.MIXTURE_RESIDUAL,
        )
        with pytest.raises(NumericalDivergenceError) as exc:
            separate(problem_for(np.ones(12)), [model, model], cfg)
        assert (exc.value.segment, exc.value.step) == (1, 0)
        assert exc.value.sigma == cfg.grid.sigmas[1]
        assert str(exc.value) == (
            "non-finite state at integrator step 0 of segment 1, sigma 1"
        )
        # as a sweep worker would send it back
        again = pickle.loads(pickle.dumps(exc.value))
        assert (again.segment, again.step, str(again)) == (1, 0, str(exc.value))


class TestPosteriorScore:
    def test_matches_product_density_finite_differences(self):
        """Oracle: the gradient must equal finite differences of
        log p2(s2) + log p1(mixture - s2) in the two-source case."""
        rng = np.random.default_rng(0)
        p1 = GaussianPrior(mean=rng.normal(size=5), variance=0.8)
        p2 = GaussianPrior(mean=rng.normal(size=5), variance=1.4)
        mixture = rng.normal(size=5)
        s2 = rng.normal(size=5)
        sigma = 0.3

        def logp(s):
            return p2.log_density(s, sigma) + p1.log_density(mixture - s, sigma)

        g = posterior_score([p1, p2], [s2], mixture, sigma)[0]
        fd = np.empty(5)
        eps = 1e-6
        for i in range(5):
            e = np.zeros(5)
            e[i] = eps
            fd[i] = (logp(s2 + e) - logp(s2 - e)) / (2 * eps)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_symmetric_stationary_point(self):
        p = GaussianPrior(mean=0.0, variance=1.0)
        g = posterior_score([p, p], [np.zeros(3)], np.zeros(3), 0.0)
        np.testing.assert_array_equal(g[0], 0.0)

    def test_scalar_example(self):
        # p1 = p2 = N(0, 1), sigma = 0, mixture = 2, s2 = 0:
        # grad = -s2/1 + (mixture - s2)/1 = 2
        p = GaussianPrior(mean=0.0, variance=1.0)
        g = posterior_score([p, p], [np.array([0.0])], np.array([2.0]), 0.0)
        np.testing.assert_allclose(g[0], [2.0])

    def test_three_source_exchange_symmetry(self):
        rng = np.random.default_rng(1)
        p = GaussianPrior(mean=np.zeros(4), variance=1.0)
        mixture = rng.normal(size=4)
        a, b = rng.normal(size=4), rng.normal(size=4)
        g_ab = posterior_score([p, p, p], [a, b], mixture, 0.2)
        g_ba = posterior_score([p, p, p], [b, a], mixture, 0.2)
        np.testing.assert_allclose(g_ab[0], g_ba[1], rtol=1e-12)
        np.testing.assert_allclose(g_ab[1], g_ba[0], rtol=1e-12)

    def test_shape_errors(self):
        p = GaussianPrior(mean=0.0, variance=1.0)
        with pytest.raises(ConfigurationError):
            posterior_score([p], [], np.zeros(4), 0.1)
        with pytest.raises(ConfigurationError):
            posterior_score([p, p], [np.zeros(4), np.zeros(4)], np.zeros(4), 0.1)
        with pytest.raises(ShapeError):
            posterior_score([p, p], [np.zeros(3)], np.zeros(4), 0.1)


class TestApplyInpaint:
    def test_empty_mask_is_identity(self):
        x = np.arange(5.0)
        cond = InpaintCondition(mask=np.zeros(5, bool), values=np.zeros(5))
        out = apply_inpaint(x, cond, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)
        assert out is not x

    def test_sigma_zero_clamps_exactly(self):
        x = np.zeros(6)
        vals = np.arange(6.0)
        mask = np.array([1, 1, 0, 0, 1, 0], bool)
        out = apply_inpaint(x, InpaintCondition(mask, vals), 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out[mask], vals[mask])
        np.testing.assert_array_equal(out[~mask], 0.0)

    def test_noise_statistics(self):
        """Masked positions carry values + sigma * eps: over many draws the
        deviations should have near-zero mean and variance within 5% of
        sigma^2."""
        sigma = 0.7
        n, trials = 64, 4000
        mask = np.ones(n, bool)
        vals = np.linspace(-1, 1, n)
        cond = InpaintCondition(mask, vals)
        rng = np.random.default_rng(42)
        devs = np.concatenate(
            [apply_inpaint(np.zeros(n), cond, sigma, rng) - vals for _ in range(trials)]
        )
        assert abs(np.mean(devs)) < 3 * sigma / np.sqrt(devs.size)
        assert abs(np.var(devs) - sigma**2) < 0.05 * sigma**2

    def test_mask_shape_mismatch(self):
        cond = InpaintCondition(np.ones(4, bool), np.zeros(4))
        with pytest.raises(ShapeError):
            apply_inpaint(np.zeros(5), cond, 0.1, np.random.default_rng(0))

    def test_condition_shape_validation(self):
        with pytest.raises(ShapeError):
            InpaintCondition(np.ones(4, bool), np.zeros(5))


class TestSamplePosterior:
    def test_outputs_sum_to_mixture_exactly(self):
        rng = np.random.default_rng(0)
        mixture = rng.normal(size=16)
        p = GaussianPrior(mean=np.zeros(16), variance=1.0)
        out = sample_posterior(problem_for(mixture), [p, p], config(steps=20))
        total = np.sum(out, axis=0)
        assert np.max(np.abs(total - mixture)) < 1e-12

    def test_three_sources_sum(self):
        rng = np.random.default_rng(1)
        mixture = rng.normal(size=8)
        p = GaussianPrior(mean=np.zeros(8), variance=1.0)
        out = sample_posterior(problem_for(mixture, 3), [p, p, p], config(steps=10))
        assert len(out) == 3
        np.testing.assert_allclose(np.sum(out, axis=0), mixture, atol=1e-12)

    def test_returns_one_array_constrained_source_first(self):
        rng = np.random.default_rng(1)
        mixture = rng.normal(size=8)
        p = GaussianPrior(mean=np.zeros(8), variance=1.0)
        out = sample_posterior(problem_for(mixture, 3), [p, p, p], config(steps=10))
        assert isinstance(out, np.ndarray) and out.shape == (3, 8)
        np.testing.assert_array_equal(out[0], mixture - np.sum(out[1:], axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        mixture = rng.normal(size=8)
        p = GaussianPrior(mean=np.zeros(8), variance=1.0)
        a = sample_posterior(problem_for(mixture), [p, p], config(steps=15, seed=9))
        b = sample_posterior(problem_for(mixture), [p, p], config(steps=15, seed=9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_symmetric_gaussian_posterior_mean(self):
        """With equal-variance Gaussian priors the free source should land, on
        average, at its conditional mean mu2 + v2/(v1+v2) * (x - mu1 - mu2)."""
        v = 1.0
        mu1, mu2 = 0.3, -0.5
        xval = 2.0
        d, trials = 8, 400
        p1 = GaussianPrior(mean=np.full(d, mu1), variance=v)
        p2 = GaussianPrior(mean=np.full(d, mu2), variance=v)
        mixture = np.full(d, xval)
        target = mu2 + v / (2 * v) * (xval - mu1 - mu2)
        vals = []
        for seed in range(trials):
            out = sample_posterior(
                problem_for(mixture),
                [p1, p2],
                config(steps=30, seed=seed, smin=0.01, smax=100.0),
            )
            vals.append(out[1])
        vals = np.concatenate(vals)
        se = np.std(vals, ddof=1) / np.sqrt(vals.size)
        assert abs(np.mean(vals) - target) < 4 * se + 1e-3

    @pytest.mark.parametrize("smax, slope_gap", [(2.0, 0.0025), (10.0, 0.02), (100.0, 0.08)])
    def test_flow_contracts_toward_the_posterior_mean(self, smax, slope_gap):
        """For two equal Gaussian priors the flow is affine in its start x0:
        it maps x0 to m + b(x0 - m), with m the posterior mean and b close to
        c = (v + smin^2)/(v + smax^2). So it contracts toward m rather than
        sampling the posterior N(m, v/2). The slope gaps measured at 100 steps
        are 0.12 %, 0.95 % and 4.0 %; each bound is about twice its gap."""
        v, smin = 1.0, 0.01
        p1 = GaussianPrior(mean=np.full(1, 0.3), variance=v)
        p2 = GaussianPrior(mean=np.full(1, -0.5), variance=v)
        m = -0.5 + (2.0 - 0.3 + 0.5) / 2  # the free source's posterior mean, 0.6
        starts, ends = [], []
        for seed in range(5):
            starts.append(np.random.default_rng(seed).standard_normal() * smax)
            out = sample_posterior(
                problem_for(np.full(1, 2.0)), [p1, p2],
                config(steps=100, seed=seed, smin=smin, smax=smax),
            )
            ends.append(out[1][0])
        design = np.stack([np.ones(5), starts], axis=1)
        (a, b), *_ = np.linalg.lstsq(design, ends, rcond=None)
        assert np.max(np.abs(design @ [a, b] - ends)) < 1e-12
        assert a / (1 - b) == pytest.approx(m, abs=1e-12)
        c = (v + smin**2) / (v + smax**2)
        assert b == pytest.approx(c, rel=slope_gap)

    def test_teacher_forcing_clamp_final_value(self):
        """The masked half must end within a few sigma_min of the clamped
        values; the free half moves elsewhere."""
        rng = np.random.default_rng(3)
        n = 32
        mixture = rng.normal(size=n)
        truth = rng.normal(size=n) * 0.5
        mask = np.zeros(n, bool)
        mask[: n // 2] = True
        cond = InpaintCondition(mask, truth)
        p = GaussianPrior(mean=np.zeros(n), variance=1.0)
        out = sample_posterior(
            problem_for(mixture), [p, p], config(steps=60, seed=1), conditions=[cond]
        )
        dev = np.abs(out[1][mask] - truth[mask])
        assert np.max(dev) < 5 * 0.01

    def test_full_support_teacher_forcing_recovers_truth(self):
        rng = np.random.default_rng(4)
        n = 16
        truth = rng.normal(size=n) * 0.5
        mixture = rng.normal(size=n)
        cond = InpaintCondition(np.ones(n, bool), truth)
        p = GaussianPrior(mean=np.zeros(n), variance=1.0)
        out = sample_posterior(
            problem_for(mixture), [p, p], config(steps=40, seed=2),
            conditions=[cond],
        )
        assert np.max(np.abs(out[1] - truth)) < 3 * 0.01

    def test_stacked_clamp_matches_per_row_clamps(self):
        """Three sources, two different masks: clamping the (2, L) free state
        as one stack gives the same draws, bit for bit, as clamping its rows in
        turn with one generator."""
        rng = np.random.default_rng(5)
        n = 24
        mixture = rng.normal(size=n)
        models = [GaussianPrior(mean=np.full(n, mu), variance=1.0) for mu in (0.2, -0.4, 0.1)]
        conditions = [
            InpaintCondition(np.arange(n) < 6, rng.normal(size=n)),
            InpaintCondition(rng.random(n) < 0.5, rng.normal(size=n)),
        ]
        cfg = config(steps=12, seed=7, smax=2.0)

        # the sampler written out with one apply_inpaint call per row
        draw = np.random.default_rng(cfg.seed)
        sig = cfg.grid.sigmas
        x = draw.standard_normal((2, n)) * sig[0]

        def clamp(x, sigma):
            for i, c in enumerate(conditions):
                x[i] = apply_inpaint(x[i], c, sigma, draw)

        def velocity(x, sigma):
            return -sigma * posterior_score(models, x, mixture, sigma)

        clamp(x, sig[0])
        for s0, s1 in zip(sig[:-1], sig[1:]):
            d0 = velocity(x, s0)
            d1 = velocity(x + (s1 - s0) * d0, s1)
            x = x + (s1 - s0) * 0.5 * (d0 + d1)
            clamp(x, s1)
        expected = np.concatenate([[mixture - np.sum(x, axis=0)], x])

        out = sample_posterior(problem_for(mixture, 3), models, cfg, conditions=conditions)
        np.testing.assert_array_equal(out, expected)

    def test_condition_count_validation(self):
        p = GaussianPrior(mean=np.zeros(4), variance=1.0)
        cond = InpaintCondition(np.ones(4, bool), np.zeros(4))
        with pytest.raises(ConfigurationError):
            sample_posterior(
                problem_for(np.zeros(4)), [p, p], config(steps=2),
                conditions=[cond, cond],
            )
        with pytest.raises(ShapeError):
            sample_posterior(
                problem_for(np.zeros(4)), [p, p], config(steps=2),
                conditions=[InpaintCondition(np.ones(3, bool), np.zeros(3))],
            )

    def test_model_count_validation(self):
        p = GaussianPrior(mean=np.zeros(4), variance=1.0)
        with pytest.raises(ConfigurationError):
            sample_posterior(problem_for(np.zeros(4), 3), [p, p], config(steps=2))

    def test_native_length_mismatch(self):
        p = GaussianPrior(mean=np.zeros(6), variance=1.0)
        with pytest.raises(ShapeError):
            sample_posterior(problem_for(np.zeros(4)), [p, p], config(steps=2))
