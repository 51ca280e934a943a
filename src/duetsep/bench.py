"""Desk-scale benchmark harness: renders a duet scenario, builds the KDE
priors, runs every separation strategy (plus the NMF baseline), and reports
SI-SDRi/SDRi and the identity-switch rate. `sweep` runs a (mode x overlap x
seed) grid of these and aggregates it; it is the only experiment loop.

The exemplar bank is sliced from full-length voice material for both singers,
so the prior supports either voice in any segment. Which voice a sampled
source locks onto is decided per segment (or per block, for the naive mode)
by the initial noise; that per-segment identity choice is precisely the
switching failure the auto-regressive conditioning suppresses.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import repeat
from multiprocessing import get_context
from typing import List, Sequence, Tuple

import numpy as np

from .core_signal import MixingModel, MixtureProblem, Waveform, mix
from .errors import ConfigurationError
from .metrics import evaluate, identity_switch_rate
from .nmf import separate_nmf
from .pipeline import Mode, Selection, SeparationConfig, plan_segments, separate
from .posterior_sampler import Integrator
from .schedule import NoiseSchedule, make_grid
from .score_models import kde_prior_from_exemplars
from .synth_bench import (
    BENCH_RATE,
    BENCH_SEGMENT,
    DuetScenario,
    ScenarioKind,
    identity_prototypes,
    make_scenario,
    render_voice,
)

__all__ = [
    "BenchmarkCase",
    "BenchRow",
    "SweepSpec",
    "render_duet",
    "build_case",
    "run_mode",
    "run_nmf_baseline",
    "sweep",
]

SWITCH_FRAME = 512

DEFAULT_SCHEDULE = NoiseSchedule(sigma_min=0.005, sigma_max=2.0)


@dataclass(frozen=True)
class BenchmarkCase:
    scenario: DuetScenario
    references: List[Waveform]
    mixture: Waveform
    problem: MixtureProblem
    prototypes: List[np.ndarray]
    segment_length: int


@dataclass(frozen=True)
class BenchRow:
    mode: str
    overlap_ratio: float
    seed: int
    mean_si_sdri: float
    mean_sdri: float
    switch_rate: float


def render_duet(
    kind: ScenarioKind, duration: float, seed: int, sample_rate: int = BENCH_RATE
) -> Tuple[DuetScenario, List[Waveform], Waveform]:
    """Render a scenario's two voices and their exact-sum mixture."""
    scenario = make_scenario(kind, duration, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    voices = [
        render_voice(spec, contour, sample_rate, duration, seed=int(rng.integers(2**31)))
        for spec, contour in zip(scenario.singers, scenario.contours)
    ]
    return scenario, voices, mix(voices, MixingModel(sources=2))


def build_case(
    seed: int,
    kind: ScenarioKind = ScenarioKind.CROSSING,
    duration: float = 4.0,
    segment_length: int = BENCH_SEGMENT,
) -> BenchmarkCase:
    """Render one scenario at BENCH_RATE with its switch-rate prototypes."""
    scenario, (v1, v2), mixture = render_duet(kind, duration, seed)
    problem = MixtureProblem(mixture, MixingModel(sources=2))
    prototypes = identity_prototypes(
        list(scenario.singers), SWITCH_FRAME, BENCH_RATE, seed=7
    )
    return BenchmarkCase(
        scenario=scenario,
        references=[v1, v2],
        mixture=mixture,
        problem=problem,
        prototypes=prototypes,
        segment_length=segment_length,
    )


def _bank_for_length(case: BenchmarkCase, length: int) -> np.ndarray:
    """Slice the references into aligned exemplars of the given length, one
    every quarter segment. Each reference is zero-padded to the segment grid
    first, so the slices line up with the plan offsets."""
    padded = plan_segments(len(case.mixture), case.segment_length, 0.0).padded_length
    stride = case.segment_length // 4
    segs = []
    for ref in case.references:
        mat = np.pad(ref.samples, (0, padded - len(ref)))
        for off in range(0, padded - length + 1, stride):
            segs.append(mat[off : off + length])
    return np.stack(segs)


def _models_for_length(case: BenchmarkCase, length: int):
    bank = _bank_for_length(case, length)
    rms = float(np.sqrt(np.mean(case.mixture.samples**2)))
    prior = kde_prior_from_exemplars(bank, bandwidth=0.1 * rms)
    return [prior, prior]


def run_mode(
    case: BenchmarkCase,
    mode: Mode,
    overlap_ratio: float = 0.75,
    steps: int = 100,
    best_of_k: int = 3,
    seed: int = 0,
) -> BenchRow:
    """Run one separation strategy on the case under DEFAULT_SCHEDULE and
    score it."""
    config = SeparationConfig(
        mode=mode,
        plan=plan_segments(len(case.mixture), case.segment_length, overlap_ratio),
        grid=make_grid(DEFAULT_SCHEDULE, steps),
        integrator=Integrator.HEUN,
        seed=seed,
        best_of_k=best_of_k,
        selection=Selection.ORACLE_SI_SDR,
    )
    models = _models_for_length(case, config.model_length)
    result = separate(case.problem, models, config, references=case.references)
    return _score_row(case, result.sources, mode.value, overlap_ratio, seed)


def run_nmf_baseline(case: BenchmarkCase, seed: int = 0) -> BenchRow:
    sep = separate_nmf(
        case.problem,
        n_sources=2,
        components_per_source=8,
        iterations=200,
        seed=seed,
        frame_size=1024,
        hop_size=256,
        fmin=140.0,
        fmax=450.0,
    )
    return _score_row(case, sep.sources, "nmf", 0.0, seed)


def _score_row(
    case: BenchmarkCase, sources: List[Waveform], mode: str, overlap_ratio: float, seed: int
) -> BenchRow:
    """SI-SDRi/SDRi against the references and the switch rate of the sources
    in their best-matching order."""
    report = evaluate(sources, case.references, case.mixture)
    switch = identity_switch_rate(
        [sources[p] for p in report.permutation], case.prototypes, SWITCH_FRAME
    )
    return BenchRow(
        mode=mode,
        overlap_ratio=overlap_ratio,
        seed=seed,
        mean_si_sdri=report.mean_si_sdri,
        mean_sdri=report.mean_sdri,
        switch_rate=switch,
    )


@dataclass(frozen=True)
class SweepSpec:
    """A (mode x overlap x seed) grid; the defaults are the acceptance table's
    modes and overlap over three seeds."""

    modes: Sequence[str] = ("naive", "segmented", "ar", "ar-tf", "nmf")
    overlaps: Sequence[float] = (0.75,)
    seeds: Sequence[int] = (0, 1, 2)
    scenario: str = "crossing"
    duration: float = 4.0
    segment: int = BENCH_SEGMENT
    steps: int = 100
    best_of_k: int = 3


def _sweep_seed(spec: SweepSpec, seed: int) -> List[dict]:
    """Every (mode, overlap) row of one seed, all on one rendered case. A row
    that raises records the error and the sweep goes on. The NMF baseline does
    not depend on the overlap: it runs once and its row repeats per overlap."""
    case = None
    nmf = None
    rows = []
    for mode in spec.modes:
        for overlap in spec.overlaps:
            try:
                if case is None:
                    case = build_case(
                        seed,
                        kind=ScenarioKind(spec.scenario),
                        duration=spec.duration,
                        segment_length=spec.segment,
                    )
                if mode == "nmf":
                    if nmf is None:
                        nmf = run_nmf_baseline(case, seed=seed)
                    row = nmf
                else:
                    row = run_mode(
                        case,
                        Mode(mode),
                        overlap_ratio=overlap,
                        steps=spec.steps,
                        best_of_k=spec.best_of_k,
                        seed=seed,
                    )
                si_sdri, sdri, switch = row.mean_si_sdri, row.mean_sdri, row.switch_rate
                error = ""
            except Exception as exc:  # record the failure, keep sweeping
                si_sdri = sdri = switch = float("nan")
                error = f"{type(exc).__name__}: {exc}"
            rows.append(
                {
                    "mode": mode,
                    "overlap": overlap,
                    "seed": seed,
                    "si_sdri": si_sdri,
                    "sdri": sdri,
                    "switch_rate": switch,
                    "error": error,
                }
            )
    return rows


def _switch_sign_test(rows: List[dict], seeds: Sequence[int], overlap: float) -> dict:
    """One-sided sign test that ar switches identity less often than naive,
    paired by seed over the rows without an error."""
    # imported here, not at module level: scipy.stats doubles the import time
    # and peak memory of `import duetsep.bench`
    from scipy.stats import binomtest

    rate = {
        (r["mode"], r["seed"]): r["switch_rate"]
        for r in rows
        if r["overlap"] == overlap and not r["error"]
    }
    pairs = [
        (rate["ar", s], rate["naive", s])
        for s in seeds
        if ("ar", s) in rate and ("naive", s) in rate
    ]
    wins = sum(ar < naive for ar, naive in pairs)
    losses = sum(ar > naive for ar, naive in pairs)
    p = binomtest(wins, wins + losses, alternative="greater").pvalue if wins + losses else 1.0
    return {"overlap": overlap, "wins": wins, "losses": losses, "p": float(p)}


def sweep(spec: SweepSpec, workers: int = 1) -> dict:
    """Run the (mode x overlap x seed) grid and aggregate mean +/- std per cell.

    Each seed is one task: its case is rendered once and every (mode, overlap)
    pair runs on it. Rows come out in (mode, overlap, seed) order whatever the
    worker count. With both ar and naive in the grid the report also carries
    the switch-rate sign test per overlap.
    """
    if not spec.modes or not spec.overlaps or not spec.seeds:
        raise ConfigurationError("sweep grid must be nonempty")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    known = [m.value for m in Mode] + ["nmf"]
    for mode in spec.modes:
        if mode not in known:
            raise ConfigurationError(f"unknown sweep mode {mode!r}; known: {', '.join(known)}")
    if spec.scenario not in [k.value for k in ScenarioKind]:
        raise ConfigurationError(f"unknown sweep scenario {spec.scenario!r}")
    # build what the rows build, short of rendering, so that a setting any
    # row would reject fails here, before any case is rendered
    for seed in spec.seeds:
        make_scenario(ScenarioKind(spec.scenario), spec.duration, seed)
    grid = make_grid(DEFAULT_SCHEDULE, spec.steps)
    for overlap in spec.overlaps:
        plan = plan_segments(spec.segment, spec.segment, overlap)
        SeparationConfig(mode=Mode.AR, plan=plan, grid=grid, best_of_k=spec.best_of_k)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            per_seed = list(pool.map(_sweep_seed, repeat(spec), spec.seeds))
    else:
        per_seed = [_sweep_seed(spec, seed) for seed in spec.seeds]
    n_pairs = len(spec.modes) * len(spec.overlaps)
    rows = [seed_rows[i] for i in range(n_pairs) for seed_rows in per_seed]
    cells = []
    for mode in spec.modes:
        for overlap in spec.overlaps:
            vals = [
                r
                for r in rows
                if r["mode"] == mode and r["overlap"] == overlap and not r["error"]
            ]
            si = [r["si_sdri"] for r in vals]
            sd = [r["sdri"] for r in vals]
            sw = [r["switch_rate"] for r in vals]
            cells.append(
                {
                    "mode": mode,
                    "overlap": overlap,
                    "n": len(vals),
                    "si_sdri_mean": float(np.mean(si)) if si else None,
                    "si_sdri_std": float(np.std(si, ddof=1)) if len(si) > 1 else None,
                    "sdri_mean": float(np.mean(sd)) if sd else None,
                    "sdri_std": float(np.std(sd, ddof=1)) if len(sd) > 1 else None,
                    "switch_mean": float(np.mean(sw)) if sw else None,
                }
            )
    report = {"config": asdict(spec), "rows": rows, "cells": cells}
    if "ar" in spec.modes and "naive" in spec.modes:
        report["switch_sign_test"] = [
            _switch_sign_test(rows, spec.seeds, overlap) for overlap in spec.overlaps
        ]
    return report
