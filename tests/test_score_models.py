import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
from duetsep.schedule import MAX_SIGMA
from duetsep.score_models import default_kde_bandwidth

U = np.finfo(np.float64).eps / 2  # unit roundoff, 2^-53
TINY = np.finfo(np.float64).tiny


def brute_force_score(prior, x, sigma):
    """Reference score from the (..., K, d) difference tensor and logsumexp.
    Its normaliser, log 2 pi + log v, stays finite for every sigma below
    MAX_SIGMA."""
    v = prior.variances + sigma**2
    diff = x[..., None, :] - prior.means  # (..., K, d)
    ll = (
        np.log(prior.weights)
        - 0.5 * prior.means.shape[1] * (np.log(2 * np.pi) + np.log(v))
        - 0.5 * np.sum(diff * diff, axis=-1) / v
    )
    resp = np.exp(ll - logsumexp(ll, axis=-1, keepdims=True))
    return -np.sum((resp / v)[..., None] * diff, axis=-2)


def logliks(prior, x, sigma):
    """The first pass's log-likelihoods, without the sigma terms it read."""
    return prior._component_logliks(x, sigma)[0]


def dense_score(prior, x, sigma):
    """The score with its second pass over every component: rv @ means."""
    v = prior.variances + sigma**2
    ll = logliks(prior, x, sigma)
    rv = np.exp(ll - ll.max(axis=-1, keepdims=True))
    rv /= rv.sum(axis=-1, keepdims=True)
    rv /= v
    return rv @ prior.means - x * rv.sum(axis=-1)[..., None]


def live_sets(prior, x, sigma):
    """Per row, the components whose normalised weight is nonzero."""
    ll = logliks(prior, np.atleast_2d(x), sigma)
    w = np.exp(ll - ll.max(axis=-1, keepdims=True))
    w /= w.sum(axis=-1, keepdims=True)
    return [set(np.flatnonzero(row)) for row in w]


def row_scales(prior, x, sigma):
    """Per row, S = sum_k r_k / v_k and max_k |x - mu_k|, each shaped to
    broadcast against the score."""
    v = prior.variances + sigma**2
    diff = x[..., None, :] - prior.means  # (..., K, d)
    ll = (
        np.log(prior.weights)
        - 0.5 * prior.means.shape[1] * np.log(v)
        - 0.5 * np.sum(diff * diff, axis=-1) / v
    )
    resp = np.exp(ll - logsumexp(ll, axis=-1, keepdims=True))
    s = np.sum(resp / v, axis=-1)
    return s[..., None], np.max(np.abs(diff), axis=(-2, -1))[..., None]


def dropped_bound(prior, x, sigma):
    """mixture_score's stated error bound, per row:
    (u mean_k(1 / v_k) + 2 K tiny) max_k |x - mu_k|."""
    _, reach = row_scales(prior, x, sigma)
    v = prior.variances + sigma**2
    return (U * np.mean(1.0 / v) + 2 * v.size * TINY) * reach


def second_pass(prior, x, sigma):
    """mixture_score(prior, x, sigma) and the operands of its gathered second
    pass, (weights, bank rows), or None when it took the dense product.

    The gather is the score's one np.dot; the spy copies what it is handed.
    """
    gathers = []
    real_dot = np.dot

    def spy(a, b, *args, **kwargs):
        gathers.append((np.array(a), np.array(b)))
        return real_dot(a, b, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "dot", spy)
        out = mixture_score(prior, x, sigma)
    assert len(gathers) <= 1
    return out, (gathers[0] if gathers else None)


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
        p = GaussianPrior(mean=np.zeros(1), variance=1.0)
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
        gp = GaussianPrior(mean=np.zeros(3))
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

    def test_log_density_finite_near_max_sigma(self):
        # 2 pi v overflows above sigma ~5.35e153, below MAX_SIGMA
        sigma = 0.9 * MAX_SIGMA
        v = 1.0 + sigma**2
        got = GaussianPrior(np.zeros(1)).log_density(np.array([0.5]), sigma)
        assert got == -0.5 * (np.log(2 * np.pi) + np.log(v)) - 0.5 * 0.25 / v

    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize(
        "entry_point", ["GaussianPrior.score", "GaussianPrior.log_density",
                        "MixturePrior.log_density"],
    )
    def test_wrong_length_rejected(self, entry_point, length):
        """Every entry point of a length-4 prior refuses another length, as
        mixture_score does, rather than broadcasting or failing in numpy."""
        gp = GaussianPrior(mean=np.zeros(4))
        mp = MixturePrior(np.array([0.5, 0.5]), np.eye(2, 4), np.ones(2))
        call = {
            "GaussianPrior.score": gp.score,
            "GaussianPrior.log_density": gp.log_density,
            "MixturePrior.log_density": mp.log_density,
        }[entry_point]
        with pytest.raises(ShapeError, match="length 4"):
            call(np.zeros(length), 0.1)


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
            ll = logliks(p, x, sigma)
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
    """The second pass reads only components with a kept weight in some row,
    when at most a third of them are live. A responsibility below u/K, or one
    whose weight r_k / v_k would be subnormal, is zeroed, and a zero weight
    adds exactly nothing, so the score is the dense rv @ means product without
    terms that are each below one rounding of the row."""

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

    def test_subnormal_weight_is_dropped_from_the_live_set(self):
        # the weight below the smallest normal double, far below u/K of its
        # row, counts as zero before the live set is taken: nonzero, but the
        # gather reads component 0 alone
        tiny = np.finfo(np.float64).tiny
        p = self.subnormal_prior(0.0)
        x = np.array([[0.0, 0.5]])
        ll = logliks(p, x, 0.0)[0]
        w = np.exp(ll - ll.max())
        w /= w.sum()
        assert 0.0 < w[1] < tiny and np.all(w[2:] == 0.0)
        assert live_sets(p, x, 0.0) == [{0, 1}]
        got, (_, rows) = second_pass(p, x, 0.0)
        np.testing.assert_array_equal(rows, p.means[[0]])
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
        ll = logliks(p, x, 0.0)[0]
        assert 0.0 < np.exp(ll[1] - ll[0]) < np.finfo(np.float64).tiny
        assert live_sets(p, x, 0.0) == [{0, 1}]
        got = mixture_score(p, x, 0.0)
        np.testing.assert_array_equal(got, dense_score(p, x, 0.0))
        np.testing.assert_allclose(got, brute_force_score(p, x, 0.0), rtol=1e-10)

    def test_mass_threshold_keeps_components_just_above_it(self):
        # x = 0 sits on component 0; component 1 (on axis 0) carries 1.5 u/K
        # of the row's mass and component 2 (on axis 1) 0.5 u/K, with v = 1
        # so that r_k / v_k = r_k. Components 3-7 are nonzero and far below.
        k = 8
        share = np.array([1.5, 0.5]) * U / k
        reach = np.sqrt(-2.0 * np.log(share))  # exp(-reach^2 / 2) = share
        means = np.zeros((k, 2))
        means[1, 0], means[2, 1] = reach
        means[3:, 0] = -np.linspace(10.0, 12.0, k - 3)
        p = MixturePrior(np.full(k, 1.0 / k), means, np.ones(k))
        x = np.zeros((1, 2))
        w = np.exp(logliks(p, x, 0.0)[0])
        w /= w.sum()
        np.testing.assert_allclose(w[1:3] * k / U, [1.5, 0.5], rtol=1e-9)
        assert live_sets(p, x, 0.0) == [set(range(k))]
        got, (_, rows) = second_pass(p, x, 0.0)
        np.testing.assert_array_equal(rows, p.means[[0, 1]])
        # component 1's pull is kept; component 2's, a coordinate of its own,
        # is gone, and the score stays within the stated bound of the exact one
        assert got[0, 0] > 0.0 and got[0, 1] == 0.0
        want = brute_force_score(p, x, 0.0)
        assert np.all(np.abs(got - want) <= dropped_bound(p, x, 0.0))
        assert np.abs(got[0, 1] - want[0, 1]) > 0.0

    def test_rows_keeping_disjoint_sets_gather_their_union(self):
        # every component carries some weight in both rows, so each row's
        # nonzero set is all 12; each row keeps only its own pair, and the
        # 4-component union is gathered (3 * 4 <= 12)
        rng = np.random.default_rng(26)
        k = 12
        means = np.zeros((k, 2))
        means[1] = [1.0, 0.5]
        means[2], means[3] = [15.0, 0.0], [14.0, -0.5]
        means[4:] = [[7.5, 12.0 + j] for j in range(k - 4)]
        p = MixturePrior(np.full(k, 1.0 / k), means, rng.uniform(0.8, 1.2, k))
        x = np.array([[0.3, 0.1], [14.6, -0.2]])
        assert live_sets(p, x, 0.0) == [set(range(k))] * 2
        got, (weights, rows) = second_pass(p, x, 0.0)
        np.testing.assert_array_equal(rows, p.means[[0, 1, 2, 3]])
        assert np.all(weights[0, :2] > 0) and np.all(weights[0, 2:] == 0)
        assert np.all(weights[1, 2:] > 0) and np.all(weights[1, :2] == 0)
        np.testing.assert_array_equal(got, self.check(p, x, 0.0))
        assert np.all(np.abs(got - brute_force_score(p, x, 0.0)) <= dropped_bound(p, x, 0.0))

    def test_no_subnormal_weight_near_max_sigma(self):
        # at sigma^2 = 1e306 component 0 (variance 1) has r / v ~ 6e-307, and
        # components 1-3 (variance 2e307) ~ 7e-309: far above u/K of the row's
        # sum (~2e-323) and responsibilities r ~ 0.13 > u/K, yet subnormal, so
        # the tiny floor drops them
        sigma = 1e153
        assert sigma < MAX_SIGMA
        p = MixturePrior(
            np.full(4, 0.25), np.array([[1.0], [2.0], [-1.0], [3.0]]),
            np.array([1.0, 2e307, 2e307, 2e307]),
        )
        x = np.array([[0.5], [-0.5]])
        v = p.variances + sigma**2
        rv = np.exp(logliks(p, x, sigma))
        rv = rv / rv.sum(axis=-1, keepdims=True) / v
        assert np.all(rv[:, 0] >= TINY)
        assert np.all((rv[:, 1:] < TINY) & (rv[:, 1:] > U / 4 * rv.sum(axis=-1, keepdims=True)))
        got, (weights, rows) = second_pass(p, x, sigma)
        np.testing.assert_array_equal(rows, p.means[[0]])
        assert np.all(weights >= TINY)
        assert np.all(np.abs(got - brute_force_score(p, x, sigma)) <= dropped_bound(p, x, sigma))
        # at sigma^2 = 2e307 a uniform KDE has every weight near 1 / (K
        # sigma^2), all subnormal: the product reads nothing and the score,
        # below K tiny max|x - mu|, reads 0
        sigma = np.sqrt(2e307)
        p = kde_prior_from_exemplars(np.array([[1.0], [2.0], [-1.0]]), bandwidth=1.0)
        got, (weights, rows) = second_pass(p, x, sigma)
        assert weights.size == 0 and rows.shape == (0, 1)
        np.testing.assert_array_equal(got, 0.0)
        assert np.all(np.abs(got - brute_force_score(p, x, sigma)) <= dropped_bound(p, x, sigma))

    def test_log_normaliser_finite_near_max_sigma(self):
        # 2 pi (v + sigma^2) overflows above sigma ~5.35e153, below MAX_SIGMA
        sigma = 0.9 * MAX_SIGMA
        p = kde_prior_from_exemplars(np.array([[1.0], [2.0], [-1.0]]), bandwidth=1.0)
        x = np.array([[0.5]])
        got = mixture_score(p, x, sigma)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - brute_force_score(p, x, sigma)) <= dropped_bound(p, x, sigma))
        assert np.isfinite(p.log_density(x[0], sigma))

    @given(
        k=st.integers(1, 8),
        d=st.integers(1, 8),
        batch=st.sampled_from([(), (1,), (3,), (2, 2)]),
        sigma=st.one_of(st.sampled_from([0.0, 1e-3]), st.floats(0.0, 10.0)),
        spread=st.floats(0.1, 30.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_the_stated_bound_property(self, k, d, batch, sigma, spread, seed):
        # Beyond the dropped terms, the two products round: each element sums
        # K terms r_k mu_k / v_k and subtracts x S, so allow K + 2 roundings of
        # S (|x| + |mu|). dense_score shares the first pass, so that is the
        # whole gap to it; the brute force also skips the first pass's
        # |x|^2 - 2 x.mu + |mu|^2 cancellation, given 1e-8 of the same scale.
        rng = np.random.default_rng(seed)
        w = rng.uniform(0.1, 1.0, k)
        p = MixturePrior(w / w.sum(), spread * rng.normal(size=(k, d)), rng.uniform(0.3, 2.0, k))
        x = spread * rng.normal(size=batch + (d,))
        got = mixture_score(p, x, sigma)
        bound = dropped_bound(p, x, sigma)
        s, _ = row_scales(p, x, sigma)
        size = s * (np.max(np.abs(x), axis=-1, keepdims=True) + np.max(np.abs(p.means)))
        assert np.all(np.abs(got - dense_score(p, x, sigma)) <= bound + (k + 2) * U * size)
        assert np.all(np.abs(got - brute_force_score(p, x, sigma)) <= bound + 1e-8 * size)

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


class TestOneRowPaths:
    """A 1-D call is scored as row 0 of the same input as a (1, d) batch, bit
    for bit, on each second pass: one live component (no gather and no np.dot
    for the 1-D call, a 1-row gather for the batch), a gathered few, or dense."""

    D = 64

    def prior(self, k):
        # components 0 and 1 sit close together and far from the rest
        rng = np.random.default_rng(40 + k)
        means = rng.normal(size=(k, self.D))
        means[1] = means[0] + 0.05 * rng.normal(size=self.D)
        return kde_prior_from_exemplars(means, bandwidth=0.05)

    def rows(self, p, x, sigma):
        """(1-D score, its gather), (batch row 0, its gather)."""
        one, one_gather = second_pass(p, x, sigma)
        batch, batch_gather = second_pass(p, x[None], sigma)
        np.testing.assert_array_equal(one, batch[0])
        return one_gather, batch_gather

    @pytest.mark.parametrize("k", [26, 32, 5])
    def test_one_live_component(self, k):
        p = self.prior(k)
        x = p.means[3] + 0.01 * np.random.default_rng(k).normal(size=self.D)
        for sigma in (0.0, 0.005, 0.05):
            one_gather, batch_gather = self.rows(p, x, sigma)
            assert one_gather is None
            np.testing.assert_array_equal(batch_gather[1], p.means[[3]])

    @pytest.mark.parametrize("k", [26, 32])
    def test_gathered_components(self, k):
        p = self.prior(k)
        x = 0.5 * (p.means[0] + p.means[1])
        one_gather, batch_gather = self.rows(p, x, 0.005)
        np.testing.assert_array_equal(one_gather[1], p.means[[0, 1]])
        np.testing.assert_array_equal(batch_gather[1], p.means[[0, 1]])

    @pytest.mark.parametrize("k", [26, 32, 5])
    def test_dense_second_pass(self, k):
        p = self.prior(k)
        x = p.means.mean(axis=0)
        assert live_sets(p, x, 10.0) == [set(range(k))]
        assert self.rows(p, x, 10.0) == (None, None)

    @pytest.mark.parametrize("k", [26, 32, 5])
    def test_agree_across_sigma(self, k):
        p = self.prior(k)
        rng = np.random.default_rng(50 + k)
        for sigma in np.geomspace(0.005, 10.0, 12):
            for x in (
                p.means[rng.integers(k)] + 0.01 * rng.normal(size=self.D),
                rng.normal(size=self.D),
                0.5 * (p.means[0] + p.means[1]),
            ):
                self.rows(p, x, sigma)


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
            GaussianPrior(mean=np.zeros(2), variance=variance)

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
        for mean in (0.0, np.zeros((2, 3))):
            with pytest.raises(ShapeError):
                GaussianPrior(mean=mean)

    def test_mixture(self):
        with pytest.raises(ShapeError):
            MixturePrior(np.array([1.0]), np.zeros((1, 0)), np.ones(1))


class TestTiledModel:
    def test_blockwise_matches_manual(self):
        rng = np.random.default_rng(5)
        base = kde_prior_from_exemplars(rng.normal(size=(3, 4)), 0.5)
        tiled = TiledScoreModel(base, 12)
        x = rng.normal(size=12)
        got = tiled.score(x, 0.2)
        want = np.concatenate([base.score(x[i : i + 4], 0.2) for i in range(0, 12, 4)])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_mixture_base_matches_per_block(self):
        # naive's path: one batched score call over every block of a signal
        rng = np.random.default_rng(26)
        base = kde_prior_from_exemplars(rng.normal(size=(64, 256)), 0.3)
        tiled = TiledScoreModel(base, 4 * 256)
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
            TiledScoreModel(base, 6)

    def test_other_length_rejected(self):
        """A tiled model scores its own span only, not every multiple of its
        block."""
        tiled = TiledScoreModel(GaussianPrior(mean=np.zeros(4), variance=1.0), 12)
        assert tiled.native_length == 12
        for length in (4, 8, 16):
            with pytest.raises(ShapeError):
                tiled.score(np.zeros(length), 0.1)


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
