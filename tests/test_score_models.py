import numpy as np
import pytest
from scipy.special import logsumexp

from duetsep import (
    GaussianPrior,
    MixturePrior,
    TiledScoreModel,
    Waveform,
    kde_prior_from_exemplars,
    load_exemplar_bank,
    mixture_score,
    write_wav,
)
from duetsep.errors import ConfigurationError, DomainError, ShapeError
from duetsep.score_models import default_kde_bandwidth


def brute_force_score(prior, x, sigma):
    """Reference score from the (..., K, d) difference tensor and logsumexp."""
    v = prior.variances + sigma**2
    diff = x[..., None, :] - prior.means  # (..., K, d)
    ll = (
        np.log(prior.weights)
        - 0.5 * prior.means.shape[1] * np.log(2 * np.pi * v)
        - 0.5 * np.sum(diff * diff, axis=-1) / v
    )
    resp = np.exp(ll - logsumexp(ll, axis=-1, keepdims=True))
    return -np.sum((resp / v)[..., None] * diff, axis=-2)


def dense_score(prior, x, sigma):
    """The score with its second pass over every component: rv @ means."""
    v = prior.variances + sigma**2
    ll = prior._component_logliks(x, sigma)
    rv = np.exp(ll - ll.max(axis=-1, keepdims=True))
    rv /= rv.sum(axis=-1, keepdims=True)
    rv /= v
    return rv @ prior.means - x * rv.sum(axis=-1)[..., None]


def live_sets(prior, x, sigma):
    """Per row, the components whose normalised weight is nonzero."""
    ll = prior._component_logliks(np.atleast_2d(x), sigma)
    w = np.exp(ll - ll.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return [set(np.flatnonzero(row)) for row in w]


def finite_diff(log_density, x, sigma, eps=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (log_density(x + e, sigma) - log_density(x - e, sigma)) / (2 * eps)
    return g


class TestGaussianScore:
    def test_zero_at_mean(self):
        p = GaussianPrior(mean=np.array([1.0, -2.0]), variance=0.5)
        np.testing.assert_array_equal(p.score(np.array([1.0, -2.0]), 0.3), 0.0)

    def test_analytic_value(self):
        p = GaussianPrior(mean=0.0, variance=1.0)
        np.testing.assert_allclose(p.score(np.array([2.0]), 0.0), [-2.0])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        p = GaussianPrior(mean=rng.normal(size=6), variance=0.7)
        x = rng.normal(size=6)
        g = p.score(x, 0.4)
        fd = finite_diff(p.log_density, x, 0.4)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_negative_sigma_rejected(self):
        # every entry point takes sigma in [0, sqrt(max double)), the bound
        # NoiseSchedule uses; NaN fails the comparison too
        gp = GaussianPrior()
        mp = MixturePrior(np.array([0.5, 0.5]), np.eye(2, 3), np.ones(2))
        entry_points = {
            "GaussianPrior.score": gp.score,
            "GaussianPrior.log_density": gp.log_density,
            "mixture_score": lambda x, sigma: mixture_score(mp, x, sigma),
            "MixturePrior.log_density": mp.log_density,
        }
        for name, call in entry_points.items():
            for sigma in (-1.0, np.nan, np.inf, 1e200, np.float64(1e200)):
                with pytest.raises(DomainError):
                    call(np.zeros(3), sigma)
                    pytest.fail(f"{name} accepted sigma = {sigma!r}")


class TestMixtureScore:
    def random_prior(self, rng, k=5, d=8):
        w = rng.uniform(0.5, 1.5, k)
        return MixturePrior(
            weights=w / w.sum(),
            means=rng.normal(size=(k, d)),
            variances=rng.uniform(0.3, 2.0, k),
        )

    def test_symmetric_zero(self):
        p = MixturePrior(
            weights=np.array([0.5, 0.5]),
            means=np.array([[1.0], [-1.0]]),
            variances=np.array([0.5, 0.5]),
        )
        np.testing.assert_allclose(p.score(np.array([0.0]), 0.2), [0.0], atol=1e-14)

    def test_single_component_equals_gaussian(self):
        mean = np.array([0.3, -0.7, 1.2])
        mp = MixturePrior(
            weights=np.array([1.0]), means=mean[None, :], variances=np.array([0.8])
        )
        gp = GaussianPrior(mean=mean, variance=0.8)
        x = np.array([1.0, 2.0, -3.0])
        np.testing.assert_allclose(mp.score(x, 0.5), gp.score(x, 0.5), rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        p = self.random_prior(rng)
        x = rng.normal(size=8)
        g = p.score(x, 0.3)
        fd = finite_diff(p.log_density, x, 0.3)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_stable_far_from_modes(self):
        rng = np.random.default_rng(2)
        p = self.random_prior(rng)
        x = rng.normal(size=8) + 1e3
        g = p.score(x, 0.1)
        assert np.all(np.isfinite(g))

    def test_batched_rows_match_loop(self):
        rng = np.random.default_rng(3)
        p = self.random_prior(rng)
        X = rng.normal(size=(4, 8))
        batch = p.score(X, 0.2)
        rows = np.stack([p.score(x, 0.2) for x in X])
        np.testing.assert_allclose(batch, rows, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises((ConfigurationError, ShapeError)):
            MixturePrior(weights=np.array([]), means=np.zeros((0, 3)), variances=np.array([]))

    @pytest.mark.parametrize("sigma", [0.0, 1e-3, 2.0])
    @pytest.mark.parametrize("shape", [(8,), (4, 8), (2, 3, 8)])
    def test_matches_brute_force(self, sigma, shape):
        rng = np.random.default_rng(9)
        p = self.random_prior(rng)
        for x in (rng.normal(size=shape), rng.normal(size=shape) + 1e3):
            np.testing.assert_allclose(
                mixture_score(p, x, sigma), brute_force_score(p, x, sigma), rtol=1e-10
            )

    def test_one_hot_matches_brute_force(self):
        rng = np.random.default_rng(10)
        p = self.random_prior(rng)
        p = MixturePrior(p.weights, 30.0 * p.means, p.variances)
        nearest = [2, 0, 4]
        x = p.means[nearest] + 0.5 * rng.normal(size=(3, 8))
        for sigma in (0.0, 1e-3):
            ll = p._component_logliks(x, sigma)
            # exp underflows to 0 for every component but the nearest
            assert np.all(np.max(ll, axis=-1) - np.sort(ll, axis=-1)[:, -2] > 746)
            want = brute_force_score(p, x, sigma)
            np.testing.assert_allclose(mixture_score(p, x, sigma), want, rtol=1e-10)
            v = p.variances[nearest, None] + sigma**2
            np.testing.assert_allclose(want, -(x - p.means[nearest]) / v, rtol=1e-10)

    def test_log_density_rejects_batch(self):
        p = self.random_prior(np.random.default_rng(13))
        with pytest.raises(ShapeError):
            p.log_density(np.zeros((3, 8)), 0.2)

    def test_parameters_read_only(self):
        p = self.random_prior(np.random.default_rng(11))
        with pytest.raises(ValueError):
            p.means[0, 0] = 1.0
        for arr in (p.weights, p.variances):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_cached_constants_match_recomputation(self):
        p = self.random_prior(np.random.default_rng(12))
        np.testing.assert_array_equal(p._log_weights, np.log(p.weights))
        np.testing.assert_allclose(
            p._means_sq, np.sum(p.means * p.means, axis=1), rtol=1e-14
        )


class TestSparseSecondPass:
    """The second pass reads only components with a nonzero weight in some
    row, when at most a third of them are live; an exactly-zero weight adds
    exactly nothing, so the score is the dense rv @ means product without its
    zero terms."""

    def check(self, p, x, sigma):
        got = mixture_score(p, x, sigma)
        np.testing.assert_allclose(got, brute_force_score(p, x, sigma), rtol=1e-10)
        np.testing.assert_allclose(got, dense_score(p, x, sigma), rtol=1e-12, atol=0)
        return got

    @pytest.mark.parametrize("dead", [8, 1], ids=["gathered", "dense"])
    def test_rows_with_disjoint_live_sets(self, dead):
        rng = np.random.default_rng(20)
        a, b = 30.0 * rng.normal(size=(2, 8))
        near = 0.3 * rng.normal(size=(2, 8))
        far = 30.0 * rng.normal(size=(dead, 8))
        means = np.vstack([[a, a + near[0]], far[:1], [b, b + near[1]], far[1:]])
        k = len(means)
        p = MixturePrior(np.full(k, 1.0 / k), means, rng.uniform(0.5, 1.5, k))
        x = np.stack([a, b]) + 0.1 * rng.normal(size=(2, 8))
        for sigma in (0.0, 1e-3, 0.1):
            assert live_sets(p, x, sigma) == [{0, 1}, {3, 4}]
            got = self.check(p, x, sigma)
            if dead == 1:  # 4 of 6 live: the dense product, bit for bit
                np.testing.assert_array_equal(got, dense_score(p, x, sigma))

    def test_dense_row_next_to_one_hot_row(self):
        rng = np.random.default_rng(21)
        k, d = 5, 8
        means = 30.0 * rng.normal(size=(k, d))
        p = kde_prior_from_exemplars(means, bandwidth=1.0)
        # equidistant from every mean: |x - mu_k|^2 is the same for all k
        A = 2.0 * (means[1:] - means[0])
        rhs = np.sum(means[1:] ** 2, axis=1) - np.sum(means[0] ** 2)
        centre = np.linalg.lstsq(A, rhs, rcond=None)[0]
        x = np.stack([centre, means[3] + 0.1 * rng.normal(size=d)])
        for sigma in (0.0, 1e-3):
            assert live_sets(p, x, sigma) == [set(range(k)), {3}]
            got = self.check(p, x, sigma)
            # every component is live, so this is exactly the dense product
            np.testing.assert_array_equal(got, dense_score(p, x, sigma))
            np.testing.assert_array_equal(got[1], mixture_score(p, x[1], sigma))

    @pytest.mark.parametrize("shape", [(6,), (3, 6)])
    def test_single_component(self, shape):
        rng = np.random.default_rng(22)
        p = MixturePrior(np.array([1.0]), rng.normal(size=(1, 6)), np.array([0.7]))
        x = rng.normal(size=shape)
        for sigma in (0.0, 0.5):
            got = self.check(p, x, sigma)
            np.testing.assert_allclose(got, -(x - p.means[0]) / (0.7 + sigma**2), rtol=1e-12)

    @staticmethod
    def subnormal_prior(offset):
        # component 1 sits 720 nats below component 0: exp(-720) ~ 2e-313 is
        # subnormal but not 0; components 2-5 underflow to exactly 0
        m = np.sqrt(1440.0)
        far = [[-200.0 - 50.0 * j, 0.0] for j in range(4)]
        means = np.array([[0.0, 0.0], [m, 0.0], *far]) + offset
        return MixturePrior(np.full(6, 1.0 / 6), means, np.ones(6))

    def test_subnormal_weight_stays_live(self):
        # the weight below the smallest normal double counts as zero, but only
        # after the live set is taken: the gather is the one it would be with
        # the weight kept
        tiny = np.finfo(np.float64).tiny
        p = self.subnormal_prior(0.0)
        x = np.array([[0.0, 0.5]])
        ll = p._component_logliks(x, 0.0)[0]
        w = np.exp(ll - ll.max())
        w /= w.sum()
        assert 0.0 < w[1] < tiny and np.all(w[2:] == 0.0)
        assert live_sets(p, x, 0.0) == [{0, 1}]
        got = mixture_score(p, x, 0.0)
        zeroed = np.where(w < tiny, 0.0, w)  # v = 1, so r_k / v_k = w
        np.testing.assert_array_equal(got, zeroed @ p.means - x * zeroed.sum())
        # the first coordinate was the subnormal weight's whole contribution
        assert got[0, 0] == 0.0
        bound = p.weights.size * tiny * np.max(np.abs(p.means))
        assert np.max(np.abs(got - brute_force_score(p, x, 0.0))) <= bound

    def test_subnormal_weight_beside_a_normal_one(self):
        # where a normal weight also reaches a coordinate, the subnormal
        # product is below its last bit: zeroing it changes nothing
        p = self.subnormal_prior(1.0)
        x = np.array([[0.75, 1.5]])
        ll = p._component_logliks(x, 0.0)[0]
        assert 0.0 < np.exp(ll[1] - ll[0]) < np.finfo(np.float64).tiny
        assert live_sets(p, x, 0.0) == [{0, 1}]
        got = mixture_score(p, x, 0.0)
        np.testing.assert_array_equal(got, dense_score(p, x, 0.0))
        np.testing.assert_allclose(got, brute_force_score(p, x, 0.0), rtol=1e-10)

    def test_all_live_fallback(self):
        rng = np.random.default_rng(23)
        p = TestMixtureScore().random_prior(rng)
        x = rng.normal(size=(4, 8))
        assert live_sets(p, x, 2.0) == [set(range(5))] * 4
        got = self.check(p, x, 2.0)
        np.testing.assert_array_equal(got, dense_score(p, x, 2.0))

    def test_sigma_terms_never_stale(self):
        rng = np.random.default_rng(24)
        p = TestMixtureScore().random_prior(rng)
        p = MixturePrior(p.weights, 5.0 * p.means, p.variances)
        x = p.means[[1, 3]] + 0.2 * rng.normal(size=(2, 8))
        s1, s2 = 1e-3, 0.8
        for sigma in (s1, s2, s1, s1, s2):
            fresh = MixturePrior(p.weights, p.means, p.variances)
            np.testing.assert_array_equal(mixture_score(p, x, sigma), mixture_score(fresh, x, sigma))
            np.testing.assert_array_equal(
                p.log_density(x[0], sigma), fresh.log_density(x[0], sigma)
            )

    def test_log_density_unchanged(self):
        rng = np.random.default_rng(25)
        p = TestMixtureScore().random_prior(rng)
        x = rng.normal(size=8)
        for sigma in (0.0, 0.3, 0.0, 2.0):
            mixture_score(p, rng.normal(size=(2, 8)), 1.1)  # another sigma in between
            v = p.variances + sigma**2
            ll = (
                np.log(p.weights)
                - 0.5 * 8 * np.log(2 * np.pi * v)
                - 0.5 * np.sum((x - p.means) ** 2, axis=-1) / v
            )
            assert p.log_density(x, sigma) == pytest.approx(logsumexp(ll), rel=1e-12)


class TestKdePrior:
    def test_single_exemplar(self):
        p = kde_prior_from_exemplars([np.array([1.0, 2.0])], bandwidth=0.5)
        assert p.means.shape == (1, 2)
        np.testing.assert_allclose(p.variances, [0.25])

    def test_uniform_weights(self):
        ex = np.random.default_rng(0).normal(size=(7, 4))
        p = kde_prior_from_exemplars(ex, bandwidth=0.3)
        np.testing.assert_allclose(p.weights, np.full(7, 1 / 7))

    def test_score_near_zero_at_isolated_exemplar(self):
        ex = np.vstack([np.zeros(4), np.full((3, 4), 50.0)])
        p = kde_prior_from_exemplars(ex, bandwidth=0.1)
        g = p.score(np.zeros(4), 0.0)
        fd = finite_diff(p.log_density, np.zeros(4), 0.0)
        np.testing.assert_allclose(g, fd, atol=1e-6)
        assert np.max(np.abs(g)) < 1e-6

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            kde_prior_from_exemplars(np.zeros((0, 4)), 0.1)

    def test_bare_vector_rejected(self):
        # one exemplar is a (1, length) array or a list of one vector
        with pytest.raises(ShapeError, match=r"\(count, length\)"):
            kde_prior_from_exemplars(np.array([1.0, 2.0]), 0.5)

    def test_ragged_exemplars_rejected(self):
        with pytest.raises(ShapeError, match=r"\(count, length\)"):
            kde_prior_from_exemplars([np.zeros(3), np.zeros(4)], 0.1)

    @pytest.mark.parametrize("bandwidth", [np.inf, 1e308])
    def test_bandwidth_with_infinite_square_rejected(self, bandwidth):
        with pytest.raises(ConfigurationError):
            kde_prior_from_exemplars(np.ones((2, 4)), bandwidth)

    def test_nan_exemplar_rejected(self):
        bank = np.ones((2, 4))
        bank[1, 2] = np.nan
        with pytest.raises(ConfigurationError):
            kde_prior_from_exemplars(bank, 0.1)

    def test_default_bandwidth(self):
        ex = np.full((3, 4), 2.0)
        assert default_kde_bandwidth(ex) == pytest.approx(0.2)


class TestNonFiniteParameters:
    """A prior with a NaN or infinite parameter fails when it is built, not at
    the sampler's first step."""

    @pytest.mark.parametrize("variance", [np.nan, np.inf])
    def test_gaussian_variance(self, variance):
        with pytest.raises(ConfigurationError):
            GaussianPrior(variance=variance)

    @pytest.mark.parametrize("field", ["weights", "variances", "means"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_mixture(self, field, bad):
        params = {
            "weights": np.array([0.5, 0.5]),
            "means": np.zeros((2, 3)),
            "variances": np.ones(2),
        }
        params[field][(1,) * params[field].ndim] = bad
        with pytest.raises(ConfigurationError):
            MixturePrior(**params)


class TestZeroLengthPriors:
    """A component of length 0, or a Gaussian mean that is not 1-D, fails when
    the prior is built, not later in the tiled model or the sampler."""

    def test_gaussian(self):
        with pytest.raises(ShapeError):
            GaussianPrior(mean=np.zeros(0))

    def test_gaussian_mean_must_be_1d(self):
        with pytest.raises(ShapeError):
            GaussianPrior(mean=np.zeros((2, 3)))

    def test_mixture(self):
        with pytest.raises(ShapeError):
            MixturePrior(np.array([1.0]), np.zeros((1, 0)), np.ones(1))


class TestTiledModel:
    def test_blockwise_matches_manual(self):
        rng = np.random.default_rng(5)
        base = kde_prior_from_exemplars(rng.normal(size=(3, 4)), 0.5)
        tiled = TiledScoreModel(base)
        x = rng.normal(size=12)
        got = tiled.score(x, 0.2)
        want = np.concatenate([base.score(x[i : i + 4], 0.2) for i in range(0, 12, 4)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_mixture_base_matches_per_block(self):
        # naive's path: one batched score call over every block of a signal
        rng = np.random.default_rng(26)
        base = kde_prior_from_exemplars(rng.normal(size=(64, 256)), 0.3)
        tiled = TiledScoreModel(base)
        for x in (rng.normal(size=4 * 256), base.means[[3, 9, 3, 40]].ravel()):
            for sigma in (0.0, 1e-3, 0.5, 2.0):
                got = tiled.score(x, sigma)
                want = np.concatenate(
                    [mixture_score(base, b, sigma) for b in x.reshape(4, 256)]
                )
                np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_non_multiple_rejected(self):
        base = GaussianPrior(mean=np.zeros(4), variance=1.0)
        with pytest.raises(ShapeError):
            TiledScoreModel(base).score(np.zeros(6), 0.1)


class TestBankIO:
    def test_wav_directory(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(3):
            w = Waveform(rng.uniform(-0.5, 0.5, 32), 8000)
            write_wav(tmp_path / f"seg{i}.wav", w)
        bank, rate = load_exemplar_bank(tmp_path)
        assert bank.shape == (3, 32)
        assert rate == 8000

    def test_wav_directory_mixed_rates_rejected(self, tmp_path):
        write_wav(tmp_path / "a.wav", Waveform(np.full(32, 0.1), 8000))
        write_wav(tmp_path / "b.wav", Waveform(np.full(32, 0.1), 16000))
        with pytest.raises(ConfigurationError, match="sample rates"):
            load_exemplar_bank(tmp_path)

    def test_not_a_directory_rejected(self, tmp_path):
        plain = tmp_path / "bank.wav"
        write_wav(plain, Waveform(np.full(32, 0.1), 8000))
        for path in (tmp_path / "missing", plain):
            with pytest.raises(ConfigurationError, match="not a directory"):
                load_exemplar_bank(path)


def test_score_oracle_suite_dims():
    """Every shipped model family matches finite differences across dims."""
    rng = np.random.default_rng(8)
    for d in (1, 8, 64):
        gp = GaussianPrior(mean=rng.normal(size=d), variance=0.9)
        k = 4
        w = rng.uniform(0.5, 1.5, k)
        mp = MixturePrior(
            weights=w / w.sum(),
            means=rng.normal(size=(k, d)),
            variances=rng.uniform(0.4, 1.5, k),
        )
        for model in (gp, mp):
            for _ in range(5):
                x = rng.normal(size=d)
                sigma = rng.uniform(0.05, 2.0)
                g = model.score(x, sigma)
                fd = finite_diff(model.log_density, x, sigma)
                scale = max(np.max(np.abs(fd)), 1e-9)
                assert np.max(np.abs(g - fd)) / scale < 1e-4
