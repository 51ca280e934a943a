"""Command-line entry point: synth / separate / nmf / eval / sweep.

`sweep` also reads its arguments from `@file` (one argument per line); later
arguments override earlier ones. Exit codes: 0 success, 2 configuration
error, 3 runtime or numerical error (for sweep: any row that failed).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bench
from .core_signal import MixtureProblem, read_wav, write_wav
from .errors import ConfigurationError, DomainError, ParseError, ShapeError
from .metrics import evaluate
from .nmf import separate_nmf
from .pipeline import Mode, Selection, SeparationConfig, plan_segments, separate
from .schedule import NoiseSchedule, make_grid
from .score_models import (
    default_kde_bandwidth,
    kde_prior_from_exemplars,
    load_exemplar_bank,
)
from .synth_bench import ScenarioKind

__all__ = ["main"]


def _list_of(cast):
    """argparse type for a space- or comma-separated list of `cast` values."""

    def parse(text: str) -> list:
        return [cast(part) for part in text.replace(",", " ").split()]

    # argparse names the type in its error: "invalid int list value: '1.5'"
    parse.__name__ = f"{cast.__name__} list"
    return parse


# ---------------------------------------------------------------- synth


def _cmd_synth(args) -> int:
    kind = ScenarioKind(args.scenario)
    scenario, voices, mixture = bench.render_duet(kind, args.duration, args.seed, args.rate)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, v in enumerate(voices, start=1):
        write_wav(out_dir / f"voice{i}.wav", v)
    write_wav(out_dir / "mixture.wav", mixture)
    with open(out_dir / "contours.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "f0_voice1_hz", "f0_voice2_hz"])
        t = np.linspace(0, args.duration, 200)
        for ti, fa, fb in zip(t, scenario.contours[0].at(t), scenario.contours[1].at(t)):
            writer.writerow([f"{ti:.4f}", f"{fa:.3f}", f"{fb:.3f}"])
    meta = {
        "kind": kind.value,
        "duration": args.duration,
        "seed": args.seed,
        "sample_rate": args.rate,
        "crossing_times": list(scenario.crossing_times),
        "singers": [
            {
                "partial_amplitudes": list(s.partial_amplitudes),
                "vibrato_rate": s.vibrato_rate,
                "vibrato_depth": s.vibrato_depth,
            }
            for s in scenario.singers
        ],
    }
    (out_dir / "scenario.json").write_text(json.dumps(meta, indent=2))
    print(f"wrote scenario to {out_dir}")
    return 0


# ---------------------------------------------------------------- separate


def _cmd_separate(args) -> int:
    mixture = read_wav(args.mixture)
    references = [read_wav(p) for p in args.refs] if args.refs else None
    n_sources = len(references) if references else args.sources
    exemplars, bank_rate = load_exemplar_bank(args.bank)
    if bank_rate != mixture.sample_rate:
        raise ConfigurationError(
            f"bank sample rate {bank_rate} differs from the mixture's {mixture.sample_rate}"
        )
    bandwidth = default_kde_bandwidth(exemplars) if args.bandwidth is None else args.bandwidth
    problem = MixtureProblem(mixture, n_sources)
    schedule = NoiseSchedule(sigma_min=args.sigma_min, sigma_max=args.sigma_max)
    # the bank's exemplar length is the one length its prior scores: every
    # mode plans its segments at it and checks --overlap, which only ar and
    # ar-tf read
    config = SeparationConfig(
        mode=Mode(args.mode),
        plan=plan_segments(len(mixture), exemplars.shape[1], args.overlap),
        grid=make_grid(schedule, args.steps),
        seed=args.seed,
        best_of_k=args.best_of,
        selection=Selection.ORACLE_SI_SDR if references else Selection.MIXTURE_RESIDUAL,
    )
    prior = kde_prior_from_exemplars(exemplars, bandwidth)
    result = separate(problem, [prior] * n_sources, config, references=references)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, src in enumerate(result.sources, start=1):
        write_wav(out_dir / f"source{i}.wav", src)
    diagnostics = result.to_dict()
    if references:
        diagnostics["evaluation"] = evaluate(
            result.sources, references, mixture
        ).to_dict()
    (out_dir / "diagnostics.json").write_text(json.dumps(diagnostics, indent=2))
    print(f"wrote {len(result.sources)} sources to {out_dir}")
    return 0


# ---------------------------------------------------------------- nmf


def _cmd_nmf(args) -> int:
    mixture = read_wav(args.mixture)
    problem = MixtureProblem(mixture, args.sources)
    sep = separate_nmf(
        problem,
        components_per_source=args.components,
        iterations=args.iters,
        seed=args.seed,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, src in enumerate(sep.sources, start=1):
        write_wav(out_dir / f"source{i}.wav", src)
    meta = {"used_random_init": sep.used_random_init, "seed": args.seed}
    (out_dir / "nmf.json").write_text(json.dumps(meta, indent=2))
    print(f"wrote {len(sep.sources)} sources to {out_dir}")
    return 0


# ---------------------------------------------------------------- eval


def _cmd_eval(args) -> int:
    est_paths = sorted(Path(args.est).glob("*.wav"))
    ref_paths = sorted(Path(args.refs).glob("*.wav"))
    if not est_paths or len(est_paths) != len(ref_paths):
        raise ConfigurationError(
            f"estimate/reference counts differ: {len(est_paths)} vs {len(ref_paths)}"
        )
    estimates = [read_wav(p) for p in est_paths]
    references = [read_wav(p) for p in ref_paths]
    mixture = read_wav(args.mixture)
    report = evaluate(estimates, references, mixture)
    Path(args.out).write_text(json.dumps(report.to_dict(), indent=2))
    if args.csv:
        new = not Path(args.csv).exists()
        with open(args.csv, "a", newline="") as fh:
            writer = csv.writer(fh)
            if new:
                writer.writerow(["mixture", "mean_si_sdri", "mean_sdri", "permutation"])
            writer.writerow(
                [args.mixture, f"{report.mean_si_sdri:.4f}", f"{report.mean_sdri:.4f}",
                 " ".join(map(str, report.permutation))]
            )
    print(f"mean SI-SDRi {report.mean_si_sdri:.2f} dB, mean SDRi {report.mean_sdri:.2f} dB")
    return 0


# ---------------------------------------------------------------- sweep


def _cmd_sweep(args) -> int:
    # the sweep flags default to argparse.SUPPRESS: one left unset is absent
    # from args, so SweepSpec's own default holds
    names = {f.name for f in fields(bench.SweepSpec)}
    spec = bench.SweepSpec(**{k: v for k, v in vars(args).items() if k in names})
    report = bench.sweep(spec, workers=args.workers)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "sweep.json").write_text(json.dumps(report, indent=2))
    with open(out_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=["mode", "overlap", "seed", "si_sdri", "sdri", "switch_rate", "error"],
        )
        writer.writeheader()
        writer.writerows(report["rows"])
    for cell in report["cells"]:
        mean = cell["si_sdri_mean"]
        std = cell["si_sdri_std"]
        switch = cell["switch_mean"]
        print(
            f"{cell['mode']:>10} overlap={cell['overlap']:<5} "
            f"SI-SDRi {mean if mean is None else f'{mean:6.2f}'} "
            f"+/- {std if std is None else f'{std:.2f}'} "
            f"switch {switch if switch is None else f'{switch:.4f}'} (n={cell['n']})"
        )
    for test in report.get("switch_sign_test", []):
        print(
            f"switch-rate sign test (ar < naive) overlap={test['overlap']}: "
            f"wins={test['wins']} losses={test['losses']} p={test['p']:.4f}"
        )
    print(f"wrote sweep results to {out_dir}")
    failed = [r for r in report["rows"] if r["error"]]
    if failed:
        print(
            f"error: {len(failed)} of {len(report['rows'])} sweep rows failed; "
            f"first: {failed[0]['error']}",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------- driver


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="duetsep")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic duet scenario")
    p.add_argument("--scenario", default="crossing",
                   choices=[k.value for k in ScenarioKind])
    p.add_argument("--duration", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=int, default=8000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("separate", help="diffusion posterior separation")
    p.add_argument("--mode", default="ar", choices=[m.value for m in Mode])
    p.add_argument("--mixture", required=True)
    # the references set the source count, so it is given one way only. The
    # string default is parsed like a given value: argparse then counts an
    # explicit `--sources 2` as given, and it conflicts with --refs.
    count = p.add_mutually_exclusive_group()
    count.add_argument("--refs", nargs="+", default=None)
    count.add_argument("--sources", type=int, default="2")
    p.add_argument("--bank", required=True,
                   help="directory of WAV exemplar segments")
    p.add_argument("--bandwidth", type=float, default=None)
    p.add_argument("--overlap", type=float, default=0.75)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--best-of", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma-min", type=float, default=NoiseSchedule.sigma_min)
    p.add_argument("--sigma-max", type=float, default=NoiseSchedule.sigma_max)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("nmf", help="NMF separation baseline")
    p.add_argument("--mixture", required=True)
    p.add_argument("--sources", type=int, default=2)
    p.add_argument("--components", type=int, default=8)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_nmf)

    p = sub.add_parser("eval", help="score estimates against references")
    p.add_argument("--est", required=True)
    p.add_argument("--refs", required=True)
    p.add_argument("--mixture", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "sweep",
        help="overlap-ratio / mode experiment grid",
        fromfile_prefix_chars="@",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--modes", type=_list_of(str))
    p.add_argument("--overlaps", type=_list_of(float))
    p.add_argument("--seeds", type=_list_of(int))
    p.add_argument("--scenario")
    p.add_argument("--duration", type=float)
    p.add_argument("--segment", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--best-of", dest="best_of_k", type=int)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="sweep_out")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a malformed value, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except (ConfigurationError, ParseError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ShapeError, DomainError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
