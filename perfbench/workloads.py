"""The benchmark's workloads, driven through the library's public functions.

A job is one separation of one mixture plus its scoring (SI-SDRi and the
identity-switch rate). Each workload renders its case from the run's seed in
``setup`` and then runs jobs whose sampler seeds derive from the same seed.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from duetsep import bench, metrics, pipeline, score_models, synth_bench
from duetsep.pipeline import Mode, Selection, SeparationConfig, plan_segments
from duetsep.posterior_sampler import Integrator
from duetsep.schedule import make_grid

# Outputs must sum back to the mixture within this share of its peak. The
# sampler emits the constrained source as mixture minus the free ones and
# stitch's crossfade is a convex blend, so only float rounding remains.
SUM_TOLERANCE = 1e-9

OVERLAP = 0.75  # bench.run_mode's default and the acceptance table's

# Spawn keys that keep job and bank seeds apart from bench.build_case's (101,).
JOB_KEY = 303
BANK_KEY = 202


@dataclass(frozen=True)
class JobConfig:
    """Job size. The defaults are the acceptance table's row."""

    duration: float = 4.0
    steps: int = 100
    best_of_k: int = 3
    bank_per_singer: int = 128  # held-out bank only


@dataclass(frozen=True)
class JobOutput:
    sources: List[np.ndarray]
    mixture: np.ndarray
    si_sdri: float
    switch_rate: float


@dataclass(frozen=True)
class ScoreCount:
    """Analytic mixture_score work per job."""

    calls: int
    rows: int


@dataclass(frozen=True)
class Prepared:
    run_job: Callable[[int], JobOutput]
    expected: ScoreCount


def job_seed(seed: int, index: int) -> int:
    seq = np.random.SeedSequence(seed, spawn_key=(JOB_KEY, index))
    return int(seq.generate_state(1)[0])


def _score_count(segments: int, rows_per_call: int, config: JobConfig) -> ScoreCount:
    # each candidate integrates `steps` Heun steps of 2 stages, and each stage
    # scores the constrained residual and the one free source
    calls = segments * config.best_of_k * config.steps * 2 * 2
    return ScoreCount(calls=calls, rows=calls * rows_per_call)


@contextmanager
def _capture(module, attr: str, sink: list):
    """Keep the return value of module.attr while the block runs."""
    inner = getattr(module, attr)

    def capture(*args, **kwargs):
        out = inner(*args, **kwargs)
        sink.append(out)
        return out

    setattr(module, attr, capture)
    try:
        yield
    finally:
        setattr(module, attr, inner)


def _oracle(mode: Mode) -> Callable[[int, JobConfig], Prepared]:
    def setup(seed: int, config: JobConfig) -> Prepared:
        case = bench.build_case(seed, duration=config.duration)
        n = len(case.mixture)
        plan = plan_segments(n, case.segment_length, OVERLAP)
        if mode is Mode.SEGMENTED:
            segments = len(plan_segments(n, plan.hop, 0.0).offsets)
        else:
            segments = len(plan.offsets)

        def run_job(index: int) -> JobOutput:
            # run_mode returns scores only; the sources are taken from its
            # call to separate for the output check
            results: list = []
            with _capture(bench, "separate", results):
                row = bench.run_mode(
                    case,
                    mode,
                    overlap_ratio=OVERLAP,
                    steps=config.steps,
                    best_of_k=config.best_of_k,
                    seed=job_seed(seed, index),
                )
            return JobOutput(
                sources=[w.samples for w in results[-1].sources],
                mixture=case.mixture.samples,
                si_sdri=row.mean_si_sdri,
                switch_rate=row.switch_rate,
            )

        return Prepared(run_job, _score_count(segments, 1, config))

    return setup


def _naive_heldout(seed: int, config: JobConfig) -> Prepared:
    case = bench.build_case(seed, duration=config.duration)
    bank_seed = int(np.random.SeedSequence(seed, spawn_key=(BANK_KEY,)).generate_state(1)[0])
    bank = synth_bench.build_exemplar_bank(
        case.scenario.singers, case.segment_length, config.bank_per_singer, seed=bank_seed
    )
    # exemplars come RMS-normalized, one block per singer: give each block
    # its singer's level in this case
    scale = np.repeat(
        [np.sqrt(np.mean(r.samples**2)) for r in case.references], config.bank_per_singer
    )
    mix_rms = float(np.sqrt(np.mean(case.mixture.samples**2)))
    prior = score_models.kde_prior_from_exemplars(bank * scale[:, None], bandwidth=0.1 * mix_rms)
    plan = plan_segments(len(case.mixture), case.segment_length, OVERLAP)
    grid = make_grid(bench.DEFAULT_SCHEDULE, config.steps)
    rows = plan_segments(len(case.mixture), case.segment_length, 0.0).padded_length
    rows //= case.segment_length

    def run_job(index: int) -> JobOutput:
        sep_config = SeparationConfig(
            mode=Mode.NAIVE,
            plan=plan,
            grid=grid,
            integrator=Integrator.HEUN,
            seed=job_seed(seed, index),
            best_of_k=config.best_of_k,
            selection=Selection.ORACLE_SI_SDR,
        )
        result = pipeline.separate(case.problem, [prior, prior], sep_config, case.references)
        report = metrics.evaluate(result.sources, case.references, case.mixture)
        switch = metrics.identity_switch_rate(
            [result.sources[p] for p in report.permutation], case.prototypes, bench.SWITCH_FRAME
        )
        return JobOutput(
            sources=[w.samples for w in result.sources],
            mixture=case.mixture.samples,
            si_sdri=report.mean_si_sdri,
            switch_rate=switch,
        )

    return Prepared(run_job, _score_count(1, rows, config))


WORKLOADS: Dict[str, Callable[[int, JobConfig], Prepared]] = {
    # the paper's method: 13 sequential segments, each conditioned on the
    # last by inpainting; 1-row score calls at K=26, d=8192
    "ar-oracle": _oracle(Mode.AR),
    # the same score layer at a quarter of the row length, so fixed per-call
    # overhead dominates
    "segmented-oracle": _oracle(Mode.SEGMENTED),
    # a prior that never saw the case: 4-row score calls at K=256 bound by
    # the matmul, and the only material set-up
    "naive-heldout": _naive_heldout,
}


def check_outputs(out: JobOutput) -> Optional[str]:
    """Name the first output check the job fails, or None when all pass."""
    if len(out.sources) != 2:
        return "source_count"
    for s in out.sources:
        if s.shape != out.mixture.shape:
            return "length"
        if not np.all(np.isfinite(s)):
            return "finite"
    if sum_error(out) > SUM_TOLERANCE * max(1.0, float(np.max(np.abs(out.mixture)))):
        return "sum_to_mixture"
    if not (np.isfinite(out.si_sdri) and 0.0 <= out.switch_rate <= 1.0):
        return "scores"
    return None


def sum_error(out: JobOutput) -> float:
    return float(np.max(np.abs(np.sum(out.sources, axis=0) - out.mixture)))
