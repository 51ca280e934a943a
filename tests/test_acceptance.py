"""Acceptance suite: nine go/no-go checks covering score oracles, sampler
moments, posterior correctness, inpainting, reduction identities, metric
oracles, NMF properties, and the 20-seed benchmark trends. Each test prints
one PASS/FAIL line directly to the terminal."""

import sys
import time
from contextlib import contextmanager
from itertools import permutations

import numpy as np
import pytest
from scipy.stats import binomtest

import duetsep.bench as bench
from duetsep.bench import SweepSpec
from duetsep import (
    GaussianPrior,
    InpaintCondition,
    Integrator,
    MixtureProblem,
    MixturePrior,
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
    sample_prior,
    sdr,
    select_best_of_k,
    separate,
    si_sdr,
)
from duetsep.nmf import EPS, kl_divergence, nmf_fit, separate_nmf, stft


_CAPTURE = None


@pytest.fixture(autouse=True)
def _route_criterion_lines(capfd):
    """Expose the capture fixture so criterion() can print past pytest's
    fd-level capture and reach the real terminal."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(line):
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.stdout.write(line)
        sys.stdout.flush()


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        _emit(f"criterion {number} ({label}): FAIL\n")
        raise
    _emit(f"criterion {number} ({label}): PASS\n")


def finite_diff(log_density, x, sigma, eps=1e-5):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (log_density(x + e, sigma) - log_density(x - e, sigma)) / (2 * eps)
    return g


def test_criterion_1_score_oracles():
    with criterion(1, "score models match finite differences"):
        start = time.time()
        rng = np.random.default_rng(0)
        for d in (1, 8, 64):
            gp = GaussianPrior(mean=rng.normal(size=d), variance=0.9)
            k = 4
            w = rng.uniform(0.5, 1.5, k)
            mp = MixturePrior(
                weights=w / w.sum(),
                means=rng.normal(size=(k, d)),
                variances=rng.uniform(0.4, 1.5, k),
            )
            kp = kde_prior_from_exemplars(rng.normal(size=(5, d)), bandwidth=0.6)
            for model in (gp, mp, kp):
                for _ in range(100):
                    x = rng.normal(size=d)
                    sigma = rng.uniform(0.05, 2.0)
                    g = model.score(x, sigma)
                    fd = finite_diff(model.log_density, x, sigma)
                    scale = max(np.max(np.abs(fd)), 1e-9)
                    assert np.max(np.abs(g - fd)) / scale < 1e-4
        assert time.time() - start < 10.0


def test_criterion_2_prior_sampling_moments():
    with criterion(2, "Gaussian prior-sampling moments"):
        start = time.time()
        m, v = 0.2, 1.0
        model = GaussianPrior(mean=np.array([m]), variance=v)
        grid = make_grid(NoiseSchedule(0.01, 10.0), 100)
        vals = np.array(
            [
                sample_prior(
                    model, SamplerConfig(grid=grid, integrator=Integrator.HEUN, seed=s)
                )[0]
                for s in range(2000)
            ]
        )
        assert abs(np.mean(vals) - m) < 3 * np.sqrt(v / 2000)
        assert abs(np.var(vals, ddof=1) - v) < 0.1 * v
        assert time.time() - start < 30.0


def test_criterion_3_gaussian_posterior_oracle():
    with criterion(3, "Gaussian posterior mean and exact mixture sum"):
        start = time.time()
        v = 1.0
        mu1, mu2, x = 0.3, -0.5, 2.0
        p1 = GaussianPrior(mean=np.array([mu1]), variance=v)
        p2 = GaussianPrior(mean=np.array([mu2]), variance=v)
        problem = MixtureProblem(Waveform(np.array([x]), 8000), 2)
        grid = make_grid(NoiseSchedule(0.01, 100.0), 100)
        target = mu2 + v / (v + v) * (x - mu1 - mu2)
        frees, sum_errs = [], []
        for s in range(2000):
            out = sample_posterior(
                problem, [p1, p2],
                SamplerConfig(grid=grid, integrator=Integrator.HEUN, seed=s),
            )
            frees.append(out[1][0])
            sum_errs.append(abs(out[0][0] + out[1][0] - x))
        frees = np.asarray(frees)
        se = np.std(frees, ddof=1) / np.sqrt(frees.size)
        assert abs(np.mean(frees) - target) < 3 * se
        assert max(sum_errs) < 1e-12
        assert time.time() - start < 60.0


def test_criterion_4_inpainting_clamp():
    with criterion(4, "teacher-forcing clamp accuracy"):
        sigma_min = 0.01
        rng = np.random.default_rng(0)
        n = 64
        truth = rng.normal(size=n) * 0.5
        mixture = rng.normal(size=n)
        mask = np.zeros(n, bool)
        mask[: n // 2] = True
        cond = InpaintCondition(mask, truth)
        p = GaussianPrior(mean=np.zeros(n), variance=1.0)
        problem = MixtureProblem(Waveform(mixture, 8000), 2)
        grid = make_grid(NoiseSchedule(sigma_min, 10.0), 50)
        devs = []
        for seed in range(100):
            out = sample_posterior(
                problem, [p, p],
                SamplerConfig(grid=grid, integrator=Integrator.HEUN, seed=seed),
                conditions=[cond],
            )
            devs.append(np.abs(out[1][mask] - truth[mask]))
        devs = np.concatenate(devs)
        assert np.mean(devs < 3 * sigma_min) >= 0.99


def test_criterion_5_reduction_identities():
    with criterion(5, "reduction identities"):
        # AR with overlap 0 is bit-identical to Segmented under shared seeds
        rng = np.random.default_rng(1)
        s1, s2 = rng.normal(size=128) * 0.5, rng.normal(size=128) * 0.5
        problem = MixtureProblem(Waveform(s1 + s2, 8000), 2)
        refs = [Waveform(s1, 8000), Waveform(s2, 8000)]
        prior = kde_prior_from_exemplars(
            np.stack([s1[:32], s2[:32]]), bandwidth=0.1
        )
        grid = make_grid(NoiseSchedule(0.01, 2.0), 25)
        for mode_pair in [(Mode.AR, Mode.SEGMENTED)]:
            outs = []
            for mode in mode_pair:
                cfg = SeparationConfig(
                    mode=mode,
                    plan=plan_segments(128, 32, 0.0),
                    grid=grid,
                    seed=7,
                    best_of_k=2,
                )
                outs.append(separate(problem, [prior, prior], cfg, references=refs))
            for a, b in zip(outs[0].sources, outs[1].sources):
                np.testing.assert_array_equal(a.samples, b.samples)
        # best-of-1 selection is the identity
        cand = [rng.normal(size=16), rng.normal(size=16)]
        idx, perm = select_best_of_k(
            [cand], Selection.MIXTURE_RESIDUAL, None, np.zeros(16)
        )
        assert idx == 0 and perm == (0, 1)
        idx, _ = select_best_of_k(
            [cand], Selection.ORACLE_SI_SDR, cand, np.zeros(16)
        )
        assert idx == 0
        # evaluate's permutation matches exhaustive search for N <= 4
        for n in (2, 3, 4):
            refs_n = [rng.normal(size=48) for _ in range(n)]
            ests_n = [
                refs_n[(i + 1) % n] + 0.4 * rng.normal(size=48) for i in range(n)
            ]
            mixture = np.sum(refs_n, axis=0)
            report = evaluate(ests_n, refs_n, mixture)
            best = max(
                permutations(range(n)),
                key=lambda p: np.mean(
                    [si_sdr(ests_n[p[i]], refs_n[i]) for i in range(n)]
                ),
            )
            assert report.permutation == best


def test_criterion_6_metric_oracles():
    with criterion(6, "metric oracles"):
        rng = np.random.default_rng(2)
        # scale invariance for alpha in [-10, 10] \ {0}
        for _ in range(200):
            ref = rng.normal(size=64)
            est = ref + 0.5 * rng.normal(size=64)
            alpha = 0.0
            while abs(alpha) < 1e-3:
                alpha = rng.uniform(-10, 10)
            assert abs(si_sdr(alpha * est, ref) - si_sdr(est, ref)) < 1e-9
        # direct-formula recomputation on 1000 random pairs
        for _ in range(1000):
            ref = rng.normal(size=32)
            est = rng.normal(size=32)
            a = np.dot(est, ref) / np.dot(ref, ref)
            t = a * ref
            want_si = 10 * np.log10(np.dot(t, t) / np.sum((t - est) ** 2))
            want_sdr = 10 * np.log10(
                np.dot(ref, ref) / np.sum((ref - est) ** 2)
            )
            assert abs(si_sdr(est, ref) - want_si) < 1e-9
            assert abs(sdr(est, ref) - want_sdr) < 1e-9


def test_criterion_7_nmf_properties():
    with criterion(7, "NMF properties"):
        rng = np.random.default_rng(3)
        # KL non-increasing across 300 iterations on 50 random instances
        for inst in range(50):
            V = rng.uniform(0.0, 1.0, (10, 8))
            model = nmf_fit(V, rank=3, iterations=0, seed=inst)
            prev = kl_divergence(V, model.W @ model.H)
            W, H = model.W, model.H
            for _ in range(300):
                model = nmf_fit(V, rank=3, iterations=1, init_W=W, init_H=H)
                W, H = model.W, model.H
                kl = kl_divergence(V, W @ H)
                assert kl <= prev + 1e-12
                prev = kl
        # exact rank-1 recovery
        w = rng.uniform(0.1, 1.0, 12)
        h = rng.uniform(0.1, 1.0, 10)
        V1 = np.outer(w, h)
        m1 = nmf_fit(V1, rank=1, iterations=500, seed=0)
        assert kl_divergence(V1, m1.W @ m1.H) < 1e-8
        # Wiener reconstructions are mixture-consistent: the masked complex
        # spectra reassemble the mixture spectrum wherever the model has energy
        t = np.arange(8000) / 8000.0
        mix_sig = 0.4 * np.sin(2 * np.pi * 220 * t) + 0.4 * np.sin(2 * np.pi * 330 * t)
        problem = MixtureProblem(Waveform(mix_sig, 8000), 2)
        sep = separate_nmf(problem, iterations=60, frame_size=1024, hop_size=256,
                           fmin=150.0, fmax=450.0)
        spec = stft(problem.mixture, 1024, 256)
        WH = sep.model.W @ sep.model.H
        masked_sum = np.zeros_like(spec.complex)
        for s in range(2):
            comps = [c for c, o in enumerate(sep.model.source_of_component) if o == s]
            mask = (sep.model.W[:, comps] @ sep.model.H[comps, :]) / np.maximum(WH, EPS)
            masked_sum += spec.complex * mask
        active = WH > 1e-9
        assert np.max(np.abs((masked_sum - spec.complex)[active])) < 1e-6


# ---------------------------------------------------------------- benchmark


BENCH_SEEDS = 20


@pytest.fixture(scope="module")
def bench20():
    start = time.time()
    spec = SweepSpec(
        modes=["ar", "segmented", "naive", "ar-tf", "nmf"],
        overlaps=[0.75],
        seeds=range(BENCH_SEEDS),
    )
    report = bench.sweep(spec, workers=8)
    assert not [r["error"] for r in report["rows"] if r["error"]]
    results = {}
    for r in report["rows"]:
        results.setdefault(r["seed"], {})[r["mode"]] = (r["si_sdri"], r["switch_rate"])
    return results, time.time() - start


def test_criterion_8_benchmark_trend(bench20):
    with criterion(8, "benchmark SI-SDRi ordering"):
        results, elapsed = bench20
        means = {
            m: float(np.mean([results[s][m][0] for s in range(BENCH_SEEDS)]))
            for m in ("ar", "segmented", "naive", "ar-tf", "nmf")
        }
        _emit(
            "  benchmark means (SI-SDRi dB): "
            + ", ".join(f"{k}={v:.2f}" for k, v in means.items())
            + f"  [{elapsed:.0f}s]\n"
        )
        assert means["ar"] >= means["segmented"]
        assert means["segmented"] > means["naive"]
        assert means["naive"] > means["nmf"]
        assert means["ar-tf"] >= means["ar"]
        assert elapsed < 15 * 60


def test_criterion_9_identity_coherence(bench20):
    with criterion(9, "identity-coherence sign test"):
        results, _ = bench20
        ar = np.array([results[s]["ar"][1] for s in range(BENCH_SEEDS)])
        naive = np.array([results[s]["naive"][1] for s in range(BENCH_SEEDS)])
        assert np.mean(ar) <= np.mean(naive)
        wins = int(np.sum(ar < naive))
        losses = int(np.sum(ar > naive))
        assert wins + losses > 0
        p = binomtest(wins, wins + losses, alternative="greater").pvalue
        _emit(
            f"  switch-rate sign test: wins={wins} losses={losses} p={p:.4f}\n"
        )
        assert p < 0.05
