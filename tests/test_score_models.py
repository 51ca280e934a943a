import numpy as np
import pytest
from scipy.special import logsumexp

from duetsep import (
    GaussianPrior,
    MixturePrior,
    TiledScoreModel,
    Waveform,
    denoiser_to_score,
    gaussian_score,
    kde_prior_from_exemplars,
    load_exemplar_bank,
    mixture_score,
    save_exemplar_bank,
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
        with pytest.raises(DomainError):
            gaussian_score(GaussianPrior(), np.zeros(3), -1.0)


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

    def test_default_bandwidth(self):
        ex = np.full((3, 4), 2.0)
        assert default_kde_bandwidth(ex) == pytest.approx(0.2)


class TestDenoiserToScore:
    def test_identity_gives_zero(self):
        x = np.arange(4.0)
        np.testing.assert_array_equal(denoiser_to_score(x, x, 0.5), 0.0)

    def test_tweedie_matches_gaussian_score(self):
        rng = np.random.default_rng(4)
        p = GaussianPrior(mean=rng.normal(size=5), variance=0.6)
        x = rng.normal(size=5)
        sigma = 0.8
        # posterior-mean denoiser of the Gaussian prior, in closed form
        v = p.variance
        denoised = (v * x + sigma**2 * p.mean) / (v + sigma**2)
        np.testing.assert_allclose(
            denoiser_to_score(denoised, x, sigma), p.score(x, sigma), atol=1e-12
        )

    def test_sigma_zero_rejected(self):
        with pytest.raises(DomainError):
            denoiser_to_score(np.zeros(2), np.zeros(2), 0.0)


class TestTiledModel:
    def test_blockwise_matches_manual(self):
        rng = np.random.default_rng(5)
        base = kde_prior_from_exemplars(rng.normal(size=(3, 4)), 0.5)
        tiled = TiledScoreModel(base)
        x = rng.normal(size=12)
        got = tiled.score(x, 0.2)
        want = np.concatenate([base.score(x[i : i + 4], 0.2) for i in range(0, 12, 4)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_non_multiple_rejected(self):
        base = GaussianPrior(mean=np.zeros(4), variance=1.0)
        with pytest.raises(ShapeError):
            TiledScoreModel(base).score(np.zeros(6), 0.1)


class TestBankIO:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(6)
        bank = rng.normal(size=(5, 16)).astype(np.float32).astype(np.float64)
        save_exemplar_bank(tmp_path / "bank.bin", bank)
        back = load_exemplar_bank(tmp_path / "bank.bin")
        np.testing.assert_array_equal(back, bank)

    def test_wav_directory(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(3):
            w = Waveform(rng.uniform(-0.5, 0.5, 32), 8000)
            write_wav(tmp_path / f"seg{i}.wav", w)
        bank = load_exemplar_bank(tmp_path)
        assert bank.shape == (3, 32)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"nope" + b"\x00" * 16)
        with pytest.raises(ConfigurationError):
            load_exemplar_bank(p)

    @pytest.mark.parametrize(
        "payload",
        [
            b"XBNK",
            b"XBNK\x02\x00\x00",
            b"XBNK" + bytes([2, 0, 0, 0, 3, 0, 0, 0]) + b"\x00" * 20,
            b"XBNK" + bytes([2, 0, 0, 0, 3, 0, 0, 0]) + b"\x00" * 28,
        ],
        ids=["no-header", "short-header", "truncated", "trailing-bytes"],
    )
    def test_malformed_rejected(self, tmp_path, payload):
        p = tmp_path / "bank.bin"
        p.write_bytes(payload)
        with pytest.raises(ConfigurationError):
            load_exemplar_bank(p)


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
