"""Segmentation, the four separation strategies, best-of-k selection, and
stitching of segment outputs into full-length sources.

Modes:
  naive     one posterior run over the whole (padded) mixture per candidate
  segmented independent runs on disjoint segments of length L*(1-r)
  ar        overlapped segments left to right, each conditioned on the
            previous segment's chosen output over the overlap
  ar-tf     same, but the condition values come from ground-truth references
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .core_signal import MixtureProblem, Waveform
from .errors import ConfigurationError, ShapeError
from .metrics import si_sdr
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
        if self.best_of_k < 1:
            raise ConfigurationError("best_of_k must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    @property
    def model_length(self) -> int:
        """Length of the pieces the score models see: segmented scores
        hop-length pieces, every other mode segment-length ones."""
        return self.plan.hop if self.mode is Mode.SEGMENTED else self.plan.segment_length


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
    candidates: Sequence[Sequence[np.ndarray]],
    selection: Selection,
    references: Optional[Sequence[np.ndarray]],
    mixture: np.ndarray,
) -> Tuple[int, Tuple[int, ...]]:
    """Pick the best candidate; oracle selection also searches source permutations.

    Returns (candidate index, permutation) where permutation[i] is the source
    of the chosen candidate that plays the role of output source i.
    """
    if len(candidates) < 1:
        raise ConfigurationError("need at least one candidate")
    n = len(candidates[0])
    if selection is Selection.MIXTURE_RESIDUAL:
        perms, sign = [tuple(range(n))], -1.0  # the smallest residual wins
    elif references is None:
        raise ConfigurationError("oracle selection requires references")
    else:
        perms, sign = list(permutations(range(n))), 1.0
    best_key, best = -np.inf, (0, perms[0])
    for idx, cand in enumerate(candidates):
        for perm in perms:
            key = sign * _selection_score(cand, perm, selection, references, mixture)
            if key > best_key:  # strict: the first of equal scores stays
                best_key, best = key, (idx, perm)
    return best


def _selection_score(
    cand: Sequence[np.ndarray],
    perm: Tuple[int, ...],
    selection: Selection,
    references: Optional[Sequence[np.ndarray]],
    mixture: np.ndarray,
) -> float:
    if selection is Selection.MIXTURE_RESIDUAL:
        return float(np.linalg.norm(mixture - np.sum(cand, axis=0)))
    return float(
        np.mean([_safe_si_sdr(cand[p], references[i]) for i, p in enumerate(perm)])
    )


def _safe_si_sdr(estimate: np.ndarray, reference: np.ndarray) -> float:
    # zero-padded reference tails are legal inside segments
    if not np.any(reference != 0):
        return 0.0
    return si_sdr(estimate, reference)


def stitch(segments: Sequence[Sequence[np.ndarray]], plan: SegmentPlan) -> List[np.ndarray]:
    """Merge per-segment sources into full-length arrays.

    The earlier segment owns each overlap, with a linear crossfade of width
    min(256, overlap//4) ending at the overlap boundary, after which the later
    segment takes over. overlap 0 reduces to concatenation. All sources are
    written at once, as the rows of one (N, padded_length) array.
    """
    if len(segments) != len(plan.offsets):
        raise ShapeError("segment count does not match the plan")
    n_sources = len(segments[0])
    out = np.zeros((n_sources, plan.padded_length))
    prev_end = plan.offsets[0]  # the first segment has nothing to fade into
    for off, sources in zip(plan.offsets, segments):
        if len(sources) != n_sources or any(
            np.shape(s) != (plan.segment_length,) for s in sources
        ):
            raise ShapeError("segment output length does not match the plan")
        seg = np.asarray(sources, dtype=np.float64)
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


def _segment_slice(x: np.ndarray, offset: int, length: int) -> np.ndarray:
    """Slice with implicit zero padding past the end."""
    out = np.zeros(length)
    avail = min(length, x.shape[0] - offset)
    if avail > 0:
        out[:avail] = x[offset : offset + avail]
    return out


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
    n_sources = problem.mixing.sources
    ref_arrays = None
    if references is not None:
        for r in references:
            if r.samples.shape != mixture.shape:
                raise ShapeError("references must match the mixture length")
            if r.sample_rate != rate:
                raise ShapeError(
                    f"reference sample rate {r.sample_rate} differs from the mixture's {rate}"
                )
        ref_arrays = [r.samples for r in references]

    # config.plan gives only the segment length and overlap ratio; the offsets
    # come from this mixture. Only ar and ar-tf overlap, and naive runs once
    # over the whole padded span.
    overlap_ratio = config.plan.overlap_ratio if mode in (Mode.AR, Mode.AR_TF) else 0.0
    plan = plan_segments(len(mixture), config.model_length, overlap_ratio)
    if mode is Mode.NAIVE:
        plan = plan_segments(plan.padded_length, plan.padded_length, 0.0)

    seg_models = list(models)
    native = next((m.native_length for m in seg_models if m.native_length is not None), None)
    if native is not None and native != plan.segment_length:
        if plan.segment_length % native == 0:
            seg_models = [
                TiledScoreModel(m) if m.native_length is not None else m
                for m in seg_models
            ]
        else:
            raise ShapeError(
                f"model native_length {native} incompatible with segment length "
                f"{plan.segment_length}"
            )

    overlap = plan.overlap  # 0 unless ar or ar-tf
    records: List[SegmentRecord] = []
    seg_outputs: List[List[np.ndarray]] = []
    prev_chosen: Optional[List[np.ndarray]] = None
    for j, off in enumerate(plan.offsets):
        seg_mix = _segment_slice(mixture, off, plan.segment_length)
        seg_refs = (
            [_segment_slice(r, off, plan.segment_length) for r in ref_arrays]
            if ref_arrays is not None
            else None
        )
        conditions = None
        if overlap > 0 and j > 0:
            mask = np.zeros(plan.segment_length, dtype=bool)
            mask[:overlap] = True
            conditions = []
            for src in range(1, n_sources):
                if mode is Mode.AR_TF:
                    values = seg_refs[src].copy()
                else:
                    values = np.zeros(plan.segment_length)
                    # offsets step by the hop, so the previous segment's
                    # last `overlap` samples sit under this one's first
                    values[:overlap] = prev_chosen[src][plan.hop :]
                conditions.append(InpaintCondition(mask=mask, values=values))
        seg_problem = MixtureProblem(Waveform(seg_mix, rate), problem.mixing)
        seeds = [_candidate_seed(config.seed, j, c) for c in range(config.best_of_k)]
        candidates = [
            sample_posterior(
                seg_problem,
                seg_models,
                SamplerConfig(grid=config.grid, integrator=config.integrator, seed=seed),
                conditions,
            )
            for seed in seeds
        ]
        idx, perm = select_best_of_k(candidates, config.selection, seg_refs, seg_mix)
        chosen = [candidates[idx][p] for p in perm]
        score = _selection_score(candidates[idx], perm, config.selection, seg_refs, seg_mix)
        records.append(SegmentRecord(j, idx, score, perm, seeds[idx]))
        seg_outputs.append(chosen)
        prev_chosen = chosen

    stitched = stitch(seg_outputs, plan)
    sources = [Waveform(s[: len(mixture)], rate) for s in stitched]
    return SeparationResult(sources=sources, per_segment=records, config=config)
