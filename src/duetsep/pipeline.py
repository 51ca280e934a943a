"""Segmentation, the four separation strategies, best-of-k selection, and
stitching of segment outputs into full-length sources.

Modes:
  naive     one posterior run over the whole (padded) mixture per candidate
  segmented independent runs on disjoint segments of length L
  ar        overlapped segments left to right, each conditioned on the
            previous segment's chosen output over the overlap
  ar-tf     same, but the condition values come from ground-truth references
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core_signal import MixtureProblem, Waveform
from .errors import ConfigurationError, NumericalDivergenceError, ShapeError
from .metrics import best_assignment, si_sdr
from .posterior_sampler import (
    InpaintCondition,
    Integrator,
    SamplerConfig,
    sample_posterior,
)
from .schedule import TimeGrid
from .score_models import ScoreModel, TiledScoreModel

__all__ = [
    "Mode",
    "Selection",
    "SegmentPlan",
    "SeparationConfig",
    "SegmentRecord",
    "SeparationResult",
    "plan_segments",
    "select_best_of_k",
    "stitch",
    "separate",
]

CROSSFADE_MAX = 256


class Mode(Enum):
    NAIVE = "naive"
    SEGMENTED = "segmented"
    AR = "ar"
    AR_TF = "ar-tf"


class Selection(Enum):
    ORACLE_SI_SDR = "oracle_si_sdr"
    MIXTURE_RESIDUAL = "mixture_residual"


@dataclass(frozen=True)
class SegmentPlan:
    segment_length: int
    overlap_ratio: float
    hop: int
    offsets: Tuple[int, ...]
    padded_length: int

    @property
    def overlap(self) -> int:
        return self.segment_length - self.hop


def plan_segments(signal_length: int, segment_length: int, overlap_ratio: float) -> SegmentPlan:
    """Cover [0, signal_length) with segments of the given length and overlap.

    hop = round(L * (1 - r)), which must be at least 1; the input is
    zero-padded so the last segment lines up with the hop grid.
    """
    if segment_length < 1:
        raise ConfigurationError("segment_length must be >= 1")
    if not (0.0 <= overlap_ratio < 1.0):
        raise ConfigurationError(f"overlap_ratio must lie in [0, 1), got {overlap_ratio}")
    if signal_length < 1:
        raise ConfigurationError("signal_length must be >= 1")
    hop = round(segment_length * (1.0 - overlap_ratio))
    if hop < 1:
        raise ConfigurationError(
            f"overlap_ratio {overlap_ratio} leaves no hop at segment length {segment_length}"
        )
    offsets = [0]
    while offsets[-1] + segment_length < signal_length:
        offsets.append(offsets[-1] + hop)
    return SegmentPlan(
        segment_length=segment_length,
        overlap_ratio=overlap_ratio,
        hop=hop,
        offsets=tuple(offsets),
        padded_length=offsets[-1] + segment_length,
    )


@dataclass(frozen=True)
class SeparationConfig:
    mode: Mode
    plan: SegmentPlan
    grid: TimeGrid
    integrator: Integrator = Integrator.HEUN
    seed: int = 0
    best_of_k: int = 1
    selection: Selection = Selection.ORACLE_SI_SDR

    def __post_init__(self):
        for name, value in (("best_of_k", self.best_of_k), ("seed", self.seed)):
            if not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.best_of_k < 1:
            raise ConfigurationError("best_of_k must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    def model_plan(self, signal_length: int) -> SegmentPlan:
        """The pieces the score models see on a signal of this length: every
        mode scores pieces of the plan's segment length, and only ar and ar-tf
        overlap them. naive re-plans this to its one padded span."""
        overlap_ratio = self.plan.overlap_ratio if self.mode in (Mode.AR, Mode.AR_TF) else 0.0
        return plan_segments(signal_length, self.plan.segment_length, overlap_ratio)


@dataclass(frozen=True)
class SegmentRecord:
    segment_index: int
    candidate_index: int
    selection_score: float
    permutation: Tuple[int, ...]
    seed: int


@dataclass(frozen=True)
class SeparationResult:
    sources: List[Waveform]
    per_segment: List[SegmentRecord]
    config: SeparationConfig

    def to_dict(self) -> dict:
        return {
            "mode": self.config.mode.value,
            "segment_length": self.config.plan.segment_length,
            "overlap_ratio": self.config.plan.overlap_ratio,
            "steps": self.config.grid.steps,
            "integrator": self.config.integrator.value,
            "seed": self.config.seed,
            "best_of_k": self.config.best_of_k,
            "selection": self.config.selection.value,
            "per_segment": [
                {
                    "segment": r.segment_index,
                    "candidate": r.candidate_index,
                    "score": r.selection_score,
                    "permutation": list(r.permutation),
                    "seed": r.seed,
                }
                for r in self.per_segment
            ],
        }


def _candidate_seed(base_seed: int, segment: int, candidate: int) -> int:
    seq = np.random.SeedSequence(base_seed, spawn_key=(segment, candidate))
    return int(seq.generate_state(1)[0])


def select_best_of_k(
    candidates: Sequence[np.ndarray],
    selection: Selection,
    references: Optional[np.ndarray],
    mixture: np.ndarray,
) -> Tuple[int, Tuple[int, ...]]:
    """Pick the best candidate; oracle selection also searches source permutations.

    Each candidate is an (N, L) array of sources. Returns (candidate index,
    permutation) where permutation[i] is the source of the chosen candidate
    that plays the role of output source i. Of equal scores the first
    candidate wins, and within a candidate the first permutation in
    itertools order (metrics.best_assignment).
    """
    if len(candidates) < 1:
        raise ConfigurationError("need at least one candidate")
    n = len(candidates[0])
    if selection is Selection.MIXTURE_RESIDUAL:
        sign = -1.0  # the smallest residual wins
    elif references is None:
        raise ConfigurationError("oracle selection requires references")
    elif len(references) != n:
        raise ShapeError(f"{len(references)} references for {n} sources")
    else:
        sign = 1.0
    best_key, best = -np.inf, (0, tuple(range(n)))
    for idx, cand in enumerate(candidates):
        perm, score = _selection(cand, selection, references, mixture)
        key = sign * score
        if key > best_key:  # strict: the first of equal scores stays
            best_key, best = key, (idx, perm)
    return best


def _selection(
    cand: np.ndarray,
    selection: Selection,
    references: Optional[np.ndarray],
    mixture: np.ndarray,
) -> Tuple[Tuple[int, ...], float]:
    """A candidate's permutation and score: the identity and the mixture
    residual's norm, or the best assignment by mean SI-SDR."""
    if selection is Selection.MIXTURE_RESIDUAL:
        return tuple(range(len(cand))), float(np.linalg.norm(mixture - np.sum(cand, axis=0)))
    return best_assignment([[_safe_si_sdr(est, ref) for est in cand] for ref in references])


def _safe_si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    # zero-padded reference tails are legal inside segments
    if not np.any(reference != 0):
        return 0.0
    return si_sdr(estimate, reference)


def stitch(segments: Sequence[np.ndarray], plan: SegmentPlan) -> List[np.ndarray]:
    """Merge per-segment sources into full-length arrays.

    Each segment is an (N, segment_length) array of sources (a list of rows
    is accepted too). The earlier segment owns each overlap, with a linear
    crossfade of width min(256, overlap//4) ending at the overlap boundary,
    after which the later segment takes over. overlap 0 reduces to
    concatenation. All sources are written at once, as the rows of one
    (N, padded_length) array.
    """
    if len(segments) != len(plan.offsets):
        raise ShapeError("segment count does not match the plan")
    shape = (len(segments[0]), plan.segment_length)
    out = np.zeros((shape[0], plan.padded_length))
    prev_end = plan.offsets[0]  # the first segment has nothing to fade into
    for off, sources in zip(plan.offsets, segments):
        seg = np.asarray(sources, dtype=np.float64)
        if seg.shape != shape:
            raise ShapeError("segment output length does not match the plan")
        width = min(CROSSFADE_MAX, max((prev_end - off) // 4, 0))
        lo = max(prev_end - width, off)
        if prev_end > lo:
            ramp = np.linspace(0.0, 1.0, prev_end - lo)
            out[:, lo:prev_end] = (
                (1 - ramp) * out[:, lo:prev_end] + ramp * seg[:, lo - off : prev_end - off]
            )
        out[:, prev_end : off + plan.segment_length] = seg[:, prev_end - off :]
        prev_end = off + plan.segment_length
    return list(out)


def separate(
    problem: MixtureProblem,
    models: Sequence[ScoreModel],
    config: SeparationConfig,
    references: Optional[Sequence[Waveform]] = None,
) -> SeparationResult:
    """Run the configured separation strategy end to end."""
    mode = config.mode
    needs_refs = (
        config.selection is Selection.ORACLE_SI_SDR or mode is Mode.AR_TF
    )
    if needs_refs and references is None:
        raise ConfigurationError(f"mode {mode.value} / oracle selection requires references")
    mixture = problem.mixture.samples
    rate = problem.mixture.sample_rate
    if references is not None:
        if len(references) != problem.sources:
            raise ShapeError(f"{len(references)} references for {problem.sources} sources")
        for r in references:
            if r.samples.shape != mixture.shape:
                raise ShapeError("references must match the mixture length")
            if r.sample_rate != rate:
                raise ShapeError(
                    f"reference sample rate {r.sample_rate} differs from the mixture's {rate}"
                )
            if not np.any(r.samples != 0):
                raise ConfigurationError("reference is identically zero")

    # config.plan gives only the segment length and overlap ratio; the offsets
    # come from this mixture
    plan = config.model_plan(len(mixture))
    if mode is Mode.NAIVE:
        # the one plan longer than the models: they score its span blockwise
        plan = plan_segments(plan.padded_length, plan.padded_length, 0.0)
        models = [
            m if m.native_length in (None, plan.segment_length) else TiledScoreModel(m)
            for m in models
        ]

    # zero-padded once to the plan's span; each segment is a view into it
    tail = (0, plan.padded_length - len(mixture))
    padded_mix = np.pad(mixture, tail)
    padded_refs = (
        None if references is None else np.pad([r.samples for r in references], ((0, 0), tail))
    )

    # the first `overlap` samples of each later segment are known: the
    # references (ar-tf) or the tail of the previous chosen output, which
    # lies under them since the offsets step by the hop
    known = np.arange(plan.segment_length) < plan.overlap
    records: List[SegmentRecord] = []
    seg_outputs: List[np.ndarray] = []
    for j, off in enumerate(plan.offsets):
        span = slice(off, off + plan.segment_length)
        seg_mix = padded_mix[span]
        seg_refs = None if padded_refs is None else padded_refs[:, span]
        conditions = None
        if plan.overlap > 0 and j > 0:
            values = (
                seg_refs
                if mode is Mode.AR_TF
                else np.pad(seg_outputs[-1][:, plan.hop :], ((0, 0), (0, plan.hop)))
            )
            conditions = [InpaintCondition(mask=known, values=v) for v in values[1:]]
        seg_problem = MixtureProblem(Waveform(seg_mix, rate), problem.sources)
        seeds = [_candidate_seed(config.seed, j, c) for c in range(config.best_of_k)]
        try:
            candidates = [
                sample_posterior(
                    seg_problem,
                    models,
                    SamplerConfig(grid=config.grid, seed=seed),
                    conditions,
                )
                for seed in seeds
            ]
        except NumericalDivergenceError as exc:
            exc.segment = j
            raise
        idx, perm = select_best_of_k(candidates, config.selection, seg_refs, seg_mix)
        _, score = _selection(candidates[idx], config.selection, seg_refs, seg_mix)
        records.append(SegmentRecord(j, idx, score, perm, seeds[idx]))
        seg_outputs.append(candidates[idx][list(perm)])

    stitched = stitch(seg_outputs, plan)
    sources = [Waveform(s[: len(mixture)], rate) for s in stitched]
    # the result reports the plan that ran; re-running its config gives these
    # sources again
    return SeparationResult(
        sources=sources, per_segment=records, config=replace(config, plan=plan)
    )
