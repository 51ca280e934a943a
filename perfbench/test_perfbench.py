"""Tests of the benchmark's own logic, on configurations small enough to run
in seconds. From the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import sys

import numpy as np
import pytest

import run
from spans import Recorder, Span, covered, patched, self_times, totals_by_name

run.load_library()

import workloads  # noqa: E402  (needs the library on sys.path)
from workloads import JobConfig, JobOutput, Prepared, ScoreCount, check_outputs  # noqa: E402

TINY = JobConfig(duration=2.0, steps=2, best_of_k=2, bank_per_singer=3)


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_hand_built_tree():
    spans = [
        Span("job", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 8.0, 9.5, 0, 0),  # overlaps b: the union is counted once
        Span("d", 9.8, 11.0, 0, 0),  # runs past its parent: clipped to it
    ]
    assert self_times(spans) == pytest.approx([10.0 - 3.0 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 1.2])
    assert covered([(1, 3), (2, 4), (6, 7)], 0, 6.5) == pytest.approx(3.5)


def test_busy_time_counts_nested_spans_of_one_name_once():
    spans = [
        Span("x", 0.0, 5.0, None, 1),
        Span("x", 1.0, 2.0, 0, 1),
        Span("y", 2.5, 3.0, 0, 1, shape=(4, 8, 16)),
        Span("x", 7.0, 8.0, None, 2),
    ]
    only_job1 = totals_by_name(spans, {1})
    assert only_job1["x"].calls == 2
    assert only_job1["x"].busy_s == pytest.approx(5.0)
    assert only_job1["x"].self_s == pytest.approx(3.5 + 1.0)
    assert only_job1["y"].rows == 4
    assert totals_by_name(spans)["x"].busy_s == pytest.approx(6.0)


def test_recorder_nests_spans_and_tags_jobs():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.job = 7
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert (outer.start, outer.end, inner.start, inner.end) == (0.0, 3.0, 1.0, 2.0)
    assert {outer.job, inner.job} == {7}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    result = run.run_workload(name, seed=3, seconds=0.01, trace=trace, config=TINY)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= (2 if trace else 1)
    spec = _spec()
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]) and got["value"] > 0, m["name"]
    for key, got in result["metrics"].items():
        assert got["unit"], key
    if trace:
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        assert metrics["mixture_score.calls"] == metrics["expected.mixture_score.calls"]
        assert metrics["mixture_score.rows"] == metrics["expected.mixture_score.rows"]
        assert any(k.startswith(run.SHAPE_KEYED) for k in metrics)


def test_acceptance_size_score_counts_match_the_analytic_values():
    # segments x best-of-3 x 100 Heun steps x 2 stages x 2 sources
    want = {
        "ar-oracle": (15600, 15600),
        "segmented-oracle": (19200, 19200),
        "naive-heldout": (1200, 4800),
    }
    for name, (calls, rows) in want.items():
        prepared = workloads.WORKLOADS[name](0, JobConfig(bank_per_singer=1))
        assert (prepared.expected.calls, prepared.expected.rows) == (calls, rows), name


def test_score_count_mismatch_fails_the_run(monkeypatch):
    real = workloads.WORKLOADS["segmented-oracle"]

    def setup(seed, config):
        prepared = real(seed, config)
        wrong = ScoreCount(prepared.expected.calls + 1, prepared.expected.rows + 1)
        return Prepared(prepared.run_job, wrong)

    monkeypatch.setitem(workloads.WORKLOADS, "bad", setup)
    result = run.run_workload("bad", seed=0, seconds=0.01, trace=True, config=TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1  # the untraced job is not counted


def _bindings():
    return {
        (modname, key): value
        for modname, mod in list(sys.modules.items())
        if mod is not None and (modname == "duetsep" or modname.startswith("duetsep."))
        for key, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_wrapped_attribute():
    before = _bindings()
    run.run_workload("ar-oracle", seed=0, seconds=0.01, trace=True, config=TINY)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not any(hasattr(v, "__wrapped__") for v in after.values())


def test_patched_restores_when_the_body_raises():
    from duetsep import pipeline, score_models

    original = score_models.mixture_score
    targets = [(score_models, "mixture_score", run.score_shape)]
    with pytest.raises(KeyError):
        with patched(Recorder(), targets) as replaced:
            assert score_models.mixture_score is not original
            assert (score_models, "mixture_score", original) in replaced
            raise KeyError("boom")
    assert score_models.mixture_score is original
    assert pipeline.separate.__module__ == "duetsep.pipeline"


def test_output_check_names_the_failed_check():
    mix = np.linspace(-1.0, 1.0, 64)
    ok = JobOutput([0.25 * mix, 0.75 * mix], mix, 10.0, 0.0)
    assert check_outputs(ok) is None
    assert check_outputs(JobOutput([mix], mix, 10.0, 0.0)) == "source_count"
    assert check_outputs(JobOutput([mix[:-1], mix[:-1]], mix, 10.0, 0.0)) == "length"
    nan = mix.copy()
    nan[3] = np.nan
    assert check_outputs(JobOutput([nan, mix], mix, 10.0, 0.0)) == "finite"
    assert check_outputs(JobOutput([mix, 1e-6 + 0 * mix], mix, 10.0, 0.0)) == "sum_to_mixture"
    assert check_outputs(JobOutput([mix, 0 * mix], mix, float("nan"), 0.0)) == "scores"


def test_score_work_model_matches_the_array_sizes():
    from duetsep.score_models import kde_prior_from_exemplars

    ar_bank = kde_prior_from_exemplars(np.ones((26, 8192)), 0.1)
    heldout_bank = kde_prior_from_exemplars(np.ones((256, 8192)), 0.1)
    assert run.score_shape(ar_bank, np.zeros(8192), 0.5) == (1, 26, 8192)
    assert run.score_shape(heldout_bank, np.zeros((4, 8192)), 0.5) == (4, 256, 8192)
    assert run.score_flop(1, 26, 8192) == 4 * 26 * 8192 + 2 * 26 * 8192 + 4 * 8192
    assert run.score_bytes(1, 26, 8192) == 8 * (3 * 26 * 8192 + 6 * 8192)


def test_benchmark_json_matches_the_runner():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert run.UNITS[m["name"]] == m["unit"]


def test_start_errors_exit_2_without_a_result(tmp_path, capsys):
    assert run.main(["--workload", "nope", "--seed", "0", "--seconds", "1"]) == 2
    assert run.main(["--workload", "ar-oracle", "--seed", "-1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(run.StartError):
        run.load_library(tmp_path)


def test_a_job_that_raises_is_counted_and_the_result_stays_valid_json(monkeypatch):
    real = workloads.WORKLOADS["segmented-oracle"]

    def setup(seed, config):
        prepared = real(seed, config)

        def run_job(index):
            if index == 0:
                raise FloatingPointError("diverged")
            return prepared.run_job(index)

        return Prepared(run_job, prepared.expected)

    monkeypatch.setitem(workloads.WORKLOADS, "flaky", setup)
    result = run.run_workload("flaky", seed=0, seconds=0.01, trace=True, config=TINY)
    assert not result["correct"] and result["failed"] == 1 and result["attempted"] == 2
    assert result["metrics"]["failure_rate"]["value"] == 0.5
    json.loads(json.dumps(result["metrics"], allow_nan=False))
