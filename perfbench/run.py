#!/usr/bin/env python3
"""duetsep benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload ar-oracle --seed 0 --seconds 30 --trace 0

It imports the library from ``src/`` next to this directory, sets the
workload up, runs jobs (one separation of one mixture plus its scoring)
until ``--seconds`` seconds have passed, checks every job's outputs, and
then sets the workload up a few more times for a steadier set-up time.
``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
set-ups and all jobs but the first under in-memory spans and reports the
per-layer metrics; the first job runs untraced to give ``trace.overhead``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``). The lines before it
hold the environment record and every metric, declared or not, with its
unit. The exit code is 0 when every job passed its checks, 1 when one did
not, and 2 when the run could not start.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path

# numpy advises the kernel to back arrays of 4 MiB and more with 2 MiB huge
# pages. Whether it gets them depends on the host's free memory at the
# moment, and a huge page is resident whole, so the peak resident set of
# the same work lands on levels about 12 % apart. Off, before numpy loads.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# every metric the benchmark prints, with its unit
UNITS = {
    # end to end, untraced
    "setup_s": "s",
    "setup_s.import": "s",
    "audio_s_per_s": "s/s",
    "job_s.p50": "s",
    "job_s.count": "count",
    "si_sdri_db": "dB",
    "switch_rate": "ratio",
    "failure_rate": "ratio",
    "peak_rss_mb": "MB",
    "sum_error.max": "abs",
    # per layer, traced
    "mixture_score.calls": "count",
    "mixture_score.rows": "count",
    "mixture_score.busy_s": "s",
    "mixture_score.share": "ratio",
    "mixture_score.us_per_row": "us/row",
    "mixture_score.flop_computed": "flop",
    "mixture_score.bytes_computed": "B",
    "mixture_score.flop_per_byte_computed": "flop/B",
    "kde_prior_from_exemplars.busy_s": "s",
    "sample_posterior.calls": "count",
    "sample_posterior.busy_s": "s",
    "sample_posterior.self_s": "s",
    "apply_inpaint.calls": "count",
    "apply_inpaint.busy_s": "s",
    "separate.busy_s": "s",
    "separate.self_s": "s",
    "select_best_of_k.busy_s": "s",
    "stitch.busy_s": "s",
    "best_of_k.useful_ratio": "ratio",
    "evaluate.busy_s": "s",
    "identity_switch_rate.busy_s": "s",
    "build_case.busy_s": "s",
    "build_exemplar_bank.busy_s": "s",
    "render_voice.calls": "count",
    "process.cpu_s_per_wall_s": "ratio",
    "trace.overhead": "ratio",
}
SHAPE_KEYED = "mixture_score.us_per_row."  # + b<rows>-k<K>-d<d>, unit us/row


class StartError(Exception):
    """The run cannot start: the library or the arguments are unusable."""


def load_library(root: Path = ROOT):
    """Import duetsep from root/src and refuse any other copy."""
    src = (root / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import duetsep
    except ImportError as exc:
        raise StartError(f"cannot import duetsep from {src}: {exc}") from exc
    origin = Path(duetsep.__file__).resolve()
    if src not in origin.parents:
        raise StartError(f"duetsep imported from {origin}, not from {src}")
    return duetsep


def score_shape(prior, x, sigma=None):
    """(rows, K, d) of a mixture_score call."""
    k, d = prior.means.shape
    return (math.prod(getattr(x, "shape", (d,))[:-1]), k, d)


def score_flop(rows: int, k: int, d: int) -> int:
    # two (rows, d) x (d, K) matmuls, |mu|^2 over the bank, and four
    # elementwise passes over x; terms of size rows*K are left out
    return 4 * rows * k * d + 2 * k * d + 4 * rows * d


def score_bytes(rows: int, k: int, d: int) -> int:
    # the bank is streamed three times (|mu|^2 and both matmuls); x is read
    # three times and three (rows, d) results are written, all float64
    return 8 * (3 * k * d + 6 * rows * d)


def trace_targets():
    from duetsep import bench, metrics, pipeline, posterior_sampler, score_models, synth_bench

    return [
        (bench, "build_case", None),
        (synth_bench, "build_exemplar_bank", None),
        (synth_bench, "render_voice", None),
        (score_models, "kde_prior_from_exemplars", None),
        (pipeline, "separate", None),
        (pipeline, "select_best_of_k", None),
        (pipeline, "stitch", None),
        (posterior_sampler, "sample_posterior", None),
        (posterior_sampler, "apply_inpaint", None),
        (score_models, "mixture_score", score_shape),
        (metrics, "evaluate", None),
        (metrics, "identity_switch_rate", None),
    ]


def _blas_threads():
    """Threads of the OpenBLAS that numpy's wheel loaded, or None."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            return int(fn())
    return None


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path = ROOT) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "numpy_hugepage_advice": bool(np._core.multiarray._get_madvise_hugepage()),
        "processes": 1,
        "commit": _git_commit(root),
    }


def layer_metrics(spans, traced_jobs, traced_walls, setup_ids, untraced_walls, cpu_ratio):
    """Per-layer metrics from the traced run's spans: per job for the job
    phase, per set-up repetition for the set-up phase."""
    from spans import NameTotals, totals_by_name

    n = len(traced_jobs)
    job = totals_by_name(spans, set(traced_jobs))
    setup = totals_by_name(spans, set(setup_ids))
    zero = NameTotals()

    def j(name):
        return job.get(name, zero)

    def s(name):
        return setup.get(name, zero)

    out = {
        "mixture_score.calls": j("mixture_score").calls / n,
        "mixture_score.rows": j("mixture_score").rows / n,
        "mixture_score.busy_s": j("mixture_score").busy_s / n,
        "mixture_score.share": j("mixture_score").busy_s / sum(traced_walls),
        # a workload built in set-up pays it there; run_mode rebuilds per job
        "kde_prior_from_exemplars.busy_s": j("kde_prior_from_exemplars").busy_s / n
        + s("kde_prior_from_exemplars").busy_s / len(setup_ids),
        "sample_posterior.calls": j("sample_posterior").calls / n,
        "sample_posterior.busy_s": j("sample_posterior").busy_s / n,
        "sample_posterior.self_s": j("sample_posterior").self_s / n,
        "apply_inpaint.calls": j("apply_inpaint").calls / n,
        "apply_inpaint.busy_s": j("apply_inpaint").busy_s / n,
        "separate.busy_s": j("separate").busy_s / n,
        "separate.self_s": j("separate").self_s / n,
        "select_best_of_k.busy_s": j("select_best_of_k").busy_s / n,
        "stitch.busy_s": j("stitch").busy_s / n,
        "best_of_k.useful_ratio": j("select_best_of_k").calls / max(j("sample_posterior").calls, 1),
        "evaluate.busy_s": j("evaluate").busy_s / n,
        "identity_switch_rate.busy_s": j("identity_switch_rate").busy_s / n,
        "build_case.busy_s": s("build_case").busy_s / len(setup_ids),
        "build_exemplar_bank.busy_s": s("build_exemplar_bank").busy_s / len(setup_ids),
        "render_voice.calls": s("render_voice").calls / len(setup_ids),
        "process.cpu_s_per_wall_s": cpu_ratio,
        "trace.overhead": statistics.mean(traced_walls) / statistics.mean(untraced_walls),
    }

    by_shape = {}
    flop = nbytes = 0
    jobs = set(traced_jobs)
    for sp in spans:
        if sp.name == "mixture_score" and sp.job in jobs:
            busy, rows = by_shape.get(sp.shape, (0.0, 0))
            by_shape[sp.shape] = (busy + sp.duration, rows + sp.shape[0])
            flop += score_flop(*sp.shape)
            nbytes += score_bytes(*sp.shape)
    for (rows, k, d), (busy, total_rows) in by_shape.items():
        out[f"{SHAPE_KEYED}b{rows}-k{k}-d{d}"] = 1e6 * busy / total_rows
    # the shape that carries most rows stands for the workload
    main = max(by_shape, key=lambda sh: by_shape[sh][1])
    out["mixture_score.us_per_row"] = 1e6 * by_shape[main][0] / by_shape[main][1]
    out["mixture_score.flop_computed"] = flop / n
    out["mixture_score.bytes_computed"] = nbytes / n
    out["mixture_score.flop_per_byte_computed"] = flop / nbytes
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, config=None,
                 import_s: float = 0.0) -> dict:
    """Set up, run whole jobs until `seconds` have passed, check them, set
    up again for timing and derive metrics.

    Returns {"correct", "attempted", "failed", "metrics", "job_walls"} where
    metrics holds every metric this mode measures, as {"value", "unit"}.
    """
    from spans import Recorder, patched
    from workloads import WORKLOADS, JobConfig, check_outputs, sum_error

    setup = WORKLOADS[name]
    config = config or JobConfig()
    recorder = Recorder()
    targets = trace_targets() if trace else []

    def traced():
        return patched(recorder, targets) if trace else nullcontext()

    setup_ids = [-(i + 1) for i in range(SETUP_REPEATS)]
    setup_walls = []

    def set_up(sid: int):
        recorder.job = sid
        with traced():
            t0 = time.perf_counter()
            prepared = setup(seed, config)
            setup_walls.append(time.perf_counter() - t0)
        return prepared

    prepared = set_up(setup_ids[0])

    walls, failures, traced_ids, sum_errors = [], {}, [], []
    si_sdri, switch = [], []
    t_start, cpu_start = time.perf_counter(), time.process_time()
    index = 0
    # whole jobs until `seconds` have passed; a traced run needs one
    # untraced job first and at least one traced
    minimum = 2 if trace else 1
    while index < minimum or time.perf_counter() - t_start < seconds:
        tracing = trace and index > 0
        recorder.job = index
        t0 = time.perf_counter()
        try:
            with traced() if tracing else nullcontext():
                with recorder.span("job") if tracing else nullcontext():
                    out = prepared.run_job(index)
            failure = check_outputs(out)
        except Exception as exc:  # a job that raises is counted, not fatal
            out, failure = None, f"raised {type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        if tracing:
            traced_ids.append(index)
        if failure is None:
            si_sdri.append(out.si_sdri)
            switch.append(out.switch_rate)
            sum_errors.append(sum_error(out))
        else:
            failures[index] = failure
        index += 1
    job_wall = time.perf_counter() - t_start
    cpu_ratio = (time.process_time() - cpu_start) / job_wall
    # the peak of one set-up and its jobs, as a user runs them. The other
    # set-ups come only now: freeing one set-up and building the next leaves
    # the heap about 16 MB larger in some runs and not in others, as the
    # allocator and the BLAS threads happen to interleave
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    expected = prepared.expected
    prepared = None
    for sid in setup_ids[1:]:
        set_up(sid)

    spans = recorder.spans
    if trace:
        got = {jid: [0, 0] for jid in traced_ids}
        for sp in spans:
            if sp.name == "mixture_score" and sp.job in got:
                got[sp.job][0] += 1
                got[sp.job][1] += sp.shape[0]
        want = [expected.calls, expected.rows]
        for jid, counts in got.items():
            if counts != want and jid not in failures:
                failures[jid] = f"score_count: mixture_score calls, rows {counts}, expected {want}"
    for jid, why in sorted(failures.items()):
        print(f"job {jid} failed: {why}", file=sys.stderr)

    attempted = len(walls)
    ok_jobs = attempted - len(failures)
    values = {
        "setup_s": import_s + statistics.median(setup_walls),
        "setup_s.import": import_s,
        "audio_s_per_s": ok_jobs * config.duration / sum(walls),
        "job_s.p50": statistics.median(walls),
        "job_s.count": attempted,
        "si_sdri_db": statistics.mean(si_sdri) if si_sdri else float("nan"),
        "switch_rate": statistics.mean(switch) if switch else float("nan"),
        "failure_rate": len(failures) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "sum_error.max": max(sum_errors) if sum_errors else float("nan"),
    }
    if trace and any(sp.name == "mixture_score" and sp.job >= 0 for sp in spans):
        traced_walls = [walls[i] for i in traced_ids]
        untraced_walls = [w for i, w in enumerate(walls) if i not in traced_ids]
        values.update(layer_metrics(spans, traced_ids, traced_walls, setup_ids,
                                    untraced_walls, cpu_ratio))
        values["expected.mixture_score.calls"] = expected.calls
        values["expected.mixture_score.rows"] = expected.rows
    # JSON has no NaN: a metric no job could measure is null
    metrics = {
        key: {"value": float(v) if math.isfinite(v) else None, "unit": unit_of(key)}
        for key, v in values.items()
    }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "job_walls": walls,
    }


def unit_of(name: str) -> str:
    if name.startswith(SHAPE_KEYED):
        return "us/row"
    if name.startswith("expected."):
        return "count"
    return UNITS[name]


def declared(root: Path = ROOT):
    """Metric names BENCHMARK.json declares for --trace 0 and --trace 1."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.seed < 0:
            raise StartError("--seed must be nonnegative")
        if not args.seconds > 0:
            raise StartError("--seconds must be positive")
        load_library()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise StartError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        end_to_end, per_layer = declared()
    except (StartError, ImportError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_T0

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_s=import_s)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} jobs, {result['failed']} failed, job walls (s) "
          + " ".join(f"{w:.3f}" for w in result["job_walls"]))
    for key in sorted(result["metrics"]):
        value, unit = result["metrics"][key]["value"], result["metrics"][key]["unit"]
        print(f"  {key:<48} {'null' if value is None else format(value, '.6g')} {unit}")
    keep = per_layer if args.trace else end_to_end
    final = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: result["metrics"].get(k, {"value": None, "unit": UNITS[k]}) for k in keep},
    }
    print(json.dumps(final))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
