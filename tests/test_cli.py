import argparse
import json
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import duetsep
from duetsep import Waveform, bench, cli, read_wav, write_wav
from duetsep.bench import SweepSpec, build_case, run_mode, run_nmf_baseline, sweep
from duetsep.cli import build_parser, main
from duetsep.errors import (
    ConfigurationError,
    DomainError,
    NumericalDivergenceError,
    ParseError,
    ShapeError,
)
from duetsep.pipeline import Mode, Selection, SeparationConfig, plan_segments
from duetsep.schedule import make_grid


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def scenario_dir(tmp_path):
    out = tmp_path / "scene"
    assert run(["synth", "--scenario", "crossing", "--duration", 2.5,
                "--seed", 3, "--out", out]) == 0
    return out


class TestSynthCommand:
    def test_writes_artifacts(self, scenario_dir):
        for name in ("voice1.wav", "voice2.wav", "mixture.wav",
                     "contours.csv", "scenario.json"):
            assert (scenario_dir / name).exists()
        meta = json.loads((scenario_dir / "scenario.json").read_text())
        assert meta["kind"] == "crossing"
        v1 = read_wav(scenario_dir / "voice1.wav")
        v2 = read_wav(scenario_dir / "voice2.wav")
        mx = read_wav(scenario_dir / "mixture.wav")
        np.testing.assert_allclose(mx.samples, v1.samples + v2.samples, atol=1e-6)

    def test_bad_duration_exit_code(self, tmp_path):
        assert run(["synth", "--duration", 0.5, "--out", tmp_path / "x"]) == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--rate", 0), ("--rate", -5), ("--duration", "nan"), ("--duration", 1e308),
         ("--seed", -1)],
    )
    def test_malformed_flag_exit_code(self, tmp_path, flag, value):
        out = tmp_path / "x"
        assert run(["synth", flag, value, "--out", out]) == 2
        assert not out.exists()


class TestSeparateCommand:
    def test_end_to_end(self, scenario_dir, tmp_path):
        mixture = read_wav(scenario_dir / "mixture.wav")
        refs = [read_wav(scenario_dir / f"voice{i}.wav") for i in (1, 2)]
        # bank of aligned true-source slices, 2048-sample segments
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        idx = 0
        for r in refs:
            for off in range(0, len(r) - 2048 + 1, 2048):
                write_wav(bank_dir / f"ex{idx:03d}.wav",
                          Waveform(r.samples[off : off + 2048], r.sample_rate))
                idx += 1
        out = tmp_path / "sep"
        code = run([
            "separate", "--mode", "ar",
            "--mixture", scenario_dir / "mixture.wav",
            "--refs", scenario_dir / "voice1.wav", scenario_dir / "voice2.wav",
            "--bank", bank_dir,
            "--overlap", 0.5, "--steps", 30,
            "--best-of", 1, "--sigma-min", 0.005, "--sigma-max", 2.0,
            "--out", out,
        ])
        assert code == 0
        assert (out / "source1.wav").exists() and (out / "source2.wav").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["mode"] == "ar"
        assert "evaluation" in diag
        s1 = read_wav(out / "source1.wav")
        assert len(s1) == len(mixture)

    def test_bank_sets_the_segment_length(self, scenario_dir, tmp_path):
        """A bank of any exemplar length runs: its length is the segment length."""
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 1000), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--steps", 2, "--best-of", 1, "--out", out,
        ])
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert (diag["segment_length"], diag["overlap_ratio"]) == (1000, 0.75)
        n = len(read_wav(scenario_dir / "mixture.wav"))
        assert [len(read_wav(out / f"source{i}.wav")) for i in (1, 2)] == [n, n]

    def test_segmented_scores_disjoint_bank_length_pieces(self, scenario_dir, tmp_path):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 512), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mode", "segmented", "--mixture", scenario_dir / "mixture.wav",
            "--bank", bank_dir, "--steps", 2, "--best-of", 1, "--out", out,
        ])
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        assert (diag["segment_length"], diag["overlap_ratio"]) == (512, 0.0)
        n = len(read_wav(scenario_dir / "mixture.wav"))
        assert len(diag["per_segment"]) == -(-n // 512)

    def test_naive_reports_its_padded_span(self, scenario_dir, tmp_path):
        """naive runs one span, the mixture padded to whole bank lengths, with
        no overlap, and its diagnostics say so."""
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mode", "naive", "--mixture", scenario_dir / "mixture.wav",
            "--bank", bank_dir, "--steps", 2, "--best-of", 1, "--out", out,
        ])
        assert code == 0
        diag = json.loads((out / "diagnostics.json").read_text())
        n = len(read_wav(scenario_dir / "mixture.wav"))
        span = -(-n // 2048) * 2048
        assert (diag["segment_length"], diag["overlap_ratio"]) == (span, 0.0)
        assert len(diag["per_segment"]) == 1

    def test_segmented_checks_the_overlap(self, scenario_dir, tmp_path):
        """segmented does not overlap its pieces, but a malformed --overlap
        still exits 2."""
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 512), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mode", "segmented", "--mixture", scenario_dir / "mixture.wav",
            "--bank", bank_dir, "--overlap", "nan", "--steps", 2, "--best-of", 1,
            "--out", out,
        ])
        assert code == 2
        assert not out.exists()

    def test_segment_flag_is_gone(self, scenario_dir, tmp_path, capsys):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--segment", 2048, "--steps", 2, "--best-of", 1, "--out", out,
        ])
        assert code == 2
        assert "unrecognized arguments: --segment" in capsys.readouterr().err
        assert not out.exists()

    def test_integrator_flag_is_gone(self, scenario_dir, tmp_path, capsys):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--integrator", "heun", "--steps", 2, "--best-of", 1, "--out", out,
        ])
        assert code == 2
        assert "unrecognized arguments: --integrator" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_rate_bank_exit_code(self, scenario_dir, tmp_path):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "a.wav", Waveform(np.zeros(2048) + 0.1, 8000))
        write_wav(bank_dir / "b.wav", Waveform(np.zeros(2048) + 0.1, 16000))
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav",
            "--bank", bank_dir, "--out", tmp_path / "sep",
        ])
        assert code == 2

    def test_bank_rate_differs_from_mixture_exit_code(self, scenario_dir, tmp_path):
        # the scenario's mixture is 8 kHz
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "a.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 16000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--steps", 2, "--best-of", 1, "--out", out,
        ])
        assert code == 2
        assert not out.exists()

    def test_degenerate_overlap_exit_code(self, scenario_dir, tmp_path):
        # at L = 2048 an overlap of 0.9999 rounds the hop to 0
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.zeros(2048) + 0.1, 8000))
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav",
            "--bank", bank_dir, "--overlap", 0.9999,
            "--out", tmp_path / "sep",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--bandwidth", 0), ("--bandwidth", "nan"), ("--bandwidth", "inf"),
         ("--bandwidth", 1e308), ("--steps", 0), ("--best-of", 0), ("--sigma-min", 0),
         ("--sigma-max", "inf"), ("--sources", 1), ("--seed", -1)],
    )
    def test_malformed_flag_exit_code(self, scenario_dir, tmp_path, flag, value):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--steps", 2, "--best-of", 1, flag, value, "--out", out,
        ])
        assert code == 2
        assert not out.exists()

    def test_refs_without_paths_exit_code(self, scenario_dir, tmp_path):
        """--refs names at least one reference; given bare, it is malformed,
        not a reference-free run."""
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--steps", 2, "--best-of", 1, "--refs", "--out", out,
        ])
        assert code == 2
        assert not out.exists()

    def test_silent_reference_exit_code(self, scenario_dir, tmp_path):
        """An all-zero reference is rejected before any segment is sampled,
        not by the evaluation after the sources are written."""
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        voice = read_wav(scenario_dir / "voice1.wav")
        write_wav(tmp_path / "silent.wav", Waveform(np.zeros(len(voice)), voice.sample_rate))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--steps", 2, "--best-of", 1,
            "--refs", scenario_dir / "voice1.wav", tmp_path / "silent.wav", "--out", out,
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("sources", [2, 3])
    def test_refs_and_sources_are_exclusive(self, scenario_dir, tmp_path, sources):
        """The references set the source count; giving --sources as well is a
        conflict, even when it names the default."""
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--steps", 2, "--best-of", 1, "--sources", sources,
            "--refs", scenario_dir / "voice1.wav", scenario_dir / "voice2.wav",
            "--out", out,
        ])
        assert code == 2
        assert not out.exists()

    def test_malformed_bank_exit_code(self, scenario_dir, tmp_path):
        """A bank is a directory of WAV segments: a missing path or a file
        exits 2."""
        plain = tmp_path / "bank.bin"
        plain.write_text("not a bank")
        out = tmp_path / "sep"
        for bank in (tmp_path / "missing", plain):
            code = run([
                "separate", "--mixture", scenario_dir / "mixture.wav",
                "--bank", bank, "--out", out,
            ])
            assert code == 2
            assert not out.exists()

    def test_missing_mixture_exit_code(self, tmp_path, capsys):
        code = run([
            "separate", "--mixture", tmp_path / "nope.wav",
            "--bank", tmp_path, "--out", tmp_path / "sep",
        ])
        assert code == 2
        assert "nope.wav" in capsys.readouterr().err

    def test_missing_reference_exit_code(self, scenario_dir, tmp_path, capsys):
        """A reference that cannot be opened is an input error, named, and
        nothing is written."""
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--steps", 2, "--best-of", 1,
            "--refs", scenario_dir / "voice1.wav", tmp_path / "nope.wav", "--out", out,
        ])
        assert code == 2
        assert "nope.wav" in capsys.readouterr().err
        assert not out.exists()


class TestNmfCommand:
    def test_end_to_end(self, scenario_dir, tmp_path):
        out = tmp_path / "nmf"
        code = run(["nmf", "--mixture", scenario_dir / "mixture.wav",
                    "--iters", 30, "--out", out])
        assert code == 0
        assert (out / "source1.wav").exists() and (out / "source2.wav").exists()
        meta = json.loads((out / "nmf.json").read_text())
        assert "used_random_init" in meta

    @pytest.mark.parametrize(
        "flag, value",
        [("--iters", -3), ("--components", 0), ("--components", -1), ("--seed", -1)],
    )
    def test_malformed_flag_exit_code(self, scenario_dir, tmp_path, flag, value):
        out = tmp_path / "nmf"
        code = run(["nmf", "--mixture", scenario_dir / "mixture.wav", "--iters", 5,
                    flag, value, "--out", out])
        assert code == 2
        assert not out.exists()


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A 600-sample mixture and a bank of two 64-sample exemplars."""
    root = tmp_path_factory.mktemp("tiny")
    t = np.arange(600) / 8000
    write_wav(root / "mixture.wav", Waveform(0.3 * np.sin(2 * np.pi * 220 * t), 8000))
    (root / "bank").mkdir()
    for i, f in enumerate((220, 330)):
        write_wav(root / "bank" / f"ex{i}.wav",
                  Waveform(0.3 * np.sin(2 * np.pi * f * t[:64]), 8000))
    return root


# every numeric flag of synth, separate and nmf; a finite but huge duration
# such as 1e7 s would ask numpy for hundreds of GB, so it is left out
NUMERIC_FLAGS = {
    "synth": ["--duration", "--seed", "--rate"],
    "separate": ["--sources", "--bandwidth", "--overlap", "--steps", "--best-of", "--seed",
                 "--sigma-min", "--sigma-max"],
    "nmf": ["--sources", "--components", "--iters", "--seed"],
}
MUST_EXIT_2 = {("synth", "--duration", "1e308"), ("separate", "--bandwidth", "1e308"),
               ("separate", "--bandwidth", "inf"), ("nmf", "--components", "-1")}


@pytest.mark.parametrize(
    "command, flag, value",
    [(c, f, v) for c, flags in NUMERIC_FLAGS.items() for f in flags
     for v in ("0", "-1", "nan", "inf", "1e308")],
)
def test_numeric_flag_table(tiny_inputs, tmp_path, command, flag, value):
    """Each value exits 0, 2 or 3 and never raises; a run that fails writes
    nothing."""
    inputs = {
        "synth": [],
        "separate": ["--mixture", tiny_inputs / "mixture.wav", "--bank", tiny_inputs / "bank",
                     "--steps", 2, "--best-of", 1],
        "nmf": ["--mixture", tiny_inputs / "mixture.wav", "--iters", 2],
    }[command]
    out = tmp_path / "out"
    code = run([command, *inputs, flag, value, "--out", out])
    assert code in (0, 2, 3)
    if (command, flag, value) in MUST_EXIT_2:
        assert code == 2
    if code != 0:
        assert not out.exists()


def test_memory_error_exit_code(monkeypatch, tmp_path, capsys):
    """The exit code follows the error's type: the library's input errors
    exit 2, anything else while running exits 3, running out of memory
    included, each with its message and not a traceback."""
    table = [
        (ConfigurationError, 2), (ParseError, 2), (ShapeError, 2), (DomainError, 2),
        (RuntimeError, 3), (NumericalDivergenceError, 3), (ValueError, 3),
        (OSError, 3), (MemoryError, 3),
    ]
    for error, code in table:
        exc = error(0, 1.0) if error is NumericalDivergenceError else error("Unable to allocate")

        def failing(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_synth", failing)
        assert run(["synth", "--out", tmp_path / "x"]) == code, error.__name__
        assert f"error: {exc}" in capsys.readouterr().err


def _wav(path, samples, rate=8000):
    write_wav(path, Waveform(samples, rate))
    return path


def _nan_wav(path):
    # Waveform refuses NaN, so the file is written without it
    from scipy.io import wavfile

    wavfile.write(path, 8000, np.array([0.1, np.nan, 0.2] * 200, dtype=np.float32))
    return path


def _mixed_length_bank(root):
    (root / "bank").mkdir()
    _wav(root / "bank" / "a.wav", np.full(256, 0.1))
    _wav(root / "bank" / "b.wav", np.full(128, 0.1))
    return root / "bank"


def _refs(root, length, rate):
    return [_wav(root / f"ref{i}.wav", np.full(length, 0.1 * i), rate) for i in (1, 2)]


def _eval_with_silent_ref(root, mixture):
    for d in ("est", "refs"):
        (root / d).mkdir()
        _wav(root / d / "a.wav", np.full(600, 0.1))
        _wav(root / d / "b.wav", np.zeros(600) if d == "refs" else np.full(600, 0.2))
    return ["eval", "--est", root / "est", "--refs", root / "refs", "--mixture", mixture]


# each names a bad input file, found by a check before anything is written
BAD_FILES = {
    "nan-mixture": lambda root, inp: ["--mixture", _nan_wav(root / "nan.wav")],
    "empty-mixture": lambda root, inp: ["--mixture", _wav(root / "empty.wav", np.zeros(0))],
    "mixed-length-bank": lambda root, inp: ["--bank", _mixed_length_bank(root)],
    "short-refs": lambda root, inp: ["--refs", *_refs(root, 599, 8000)],
    "refs-other-rate": lambda root, inp: ["--refs", *_refs(root, 600, 16000)],
    "eval-silent-ref": lambda root, inp: _eval_with_silent_ref(root, inp / "mixture.wav"),
}


@pytest.mark.parametrize("case", list(BAD_FILES))
def test_bad_input_file_exit_code(tiny_inputs, tmp_path, case):
    """A bad file is an input error, whichever check finds it: it exits 2 and
    leaves no --out behind."""
    out = tmp_path / "out"
    argv = BAD_FILES[case](tmp_path, tiny_inputs)
    if argv[0] != "eval":
        # the bad file replaces its flag's good value: argparse keeps the last
        argv = ["separate", "--mixture", tiny_inputs / "mixture.wav",
                "--bank", tiny_inputs / "bank", "--steps", 2, "--best-of", 1, *argv]
    assert run([*argv, "--out", out]) == 2
    assert not out.exists()


class TestEvalCommand:
    def test_end_to_end(self, scenario_dir, tmp_path):
        est_dir = tmp_path / "est"
        est_dir.mkdir()
        for i in (1, 2):
            w = read_wav(scenario_dir / f"voice{i}.wav")
            write_wav(est_dir / f"source{i}.wav", w)
        refs_dir = tmp_path / "refs"
        refs_dir.mkdir()
        for i in (1, 2):
            w = read_wav(scenario_dir / f"voice{i}.wav")
            write_wav(refs_dir / f"voice{i}.wav", w)
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code = run(["eval", "--est", est_dir, "--refs", refs_dir,
                    "--mixture", scenario_dir / "mixture.wav",
                    "--out", report_path, "--csv", csv_path])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["mean_si_sdri"] > 50
        assert csv_path.read_text().count("\n") == 2

    def test_sample_rate_mismatch_exit_code(self, scenario_dir, tmp_path):
        est_dir, refs_dir = tmp_path / "est", tmp_path / "refs"
        est_dir.mkdir()
        refs_dir.mkdir()
        for i in (1, 2):
            w = read_wav(scenario_dir / f"voice{i}.wav")
            write_wav(est_dir / f"source{i}.wav", Waveform(w.samples, 16000))
            write_wav(refs_dir / f"voice{i}.wav", w)
        code = run(["eval", "--est", est_dir, "--refs", refs_dir,
                    "--mixture", scenario_dir / "mixture.wav",
                    "--out", tmp_path / "r.json"])
        assert code == 2

    def test_count_mismatch_exit_code(self, scenario_dir, tmp_path):
        est_dir = tmp_path / "est"
        est_dir.mkdir()
        write_wav(est_dir / "only.wav", read_wav(scenario_dir / "voice1.wav"))
        refs_dir = scenario_dir  # has 3 wavs
        code = run(["eval", "--est", est_dir, "--refs", refs_dir,
                    "--mixture", scenario_dir / "mixture.wav",
                    "--out", tmp_path / "r.json"])
        assert code == 2


@pytest.fixture(scope="module")
def small_case():
    return build_case(0, duration=2.5, segment_length=2048)


class TestOracleBank:
    @pytest.mark.parametrize("mode", [Mode.AR, Mode.SEGMENTED, Mode.NAIVE])
    @pytest.mark.parametrize("overlap", [0.0, 0.25, 0.5, 0.6, 0.75, 0.9])
    def test_bank_holds_every_scored_piece(self, small_case, monkeypatch, mode, overlap):
        """run_mode's bank holds each reference piece the run scores, at any
        overlap; at 0.75 it is the quarter-segment grid, row for row."""
        banks = []
        inner = bench.kde_prior_from_exemplars

        def recording(bank, bandwidth):
            banks.append(bank)
            return inner(bank, bandwidth)

        monkeypatch.setattr(bench, "kde_prior_from_exemplars", recording)
        run_mode(small_case, mode, overlap_ratio=overlap, steps=1, best_of_k=1, seed=0)
        (bank,) = banks
        n, seg = len(small_case.mixture), small_case.segment_length
        plan = plan_segments(n, seg, overlap)
        if mode is Mode.SEGMENTED:  # run_mode scores disjoint pieces of the hop
            plan = plan_segments(n, plan.hop, 0.0)
        config = SeparationConfig(mode=mode, plan=plan,
                                  grid=make_grid(bench.DEFAULT_SCHEDULE, 1))
        plan = config.model_plan(n)
        rows = {row.tobytes() for row in bank}
        for ref in small_case.references:
            padded = np.pad(ref.samples, (0, plan.padded_length))
            for off in plan.offsets:
                assert padded[off : off + plan.segment_length].tobytes() in rows
        if overlap == 0.75:
            grid = plan_segments(n, seg, 0.0).padded_length
            quarter = [
                np.pad(ref.samples, (0, grid - n))[off : off + plan.segment_length]
                for ref in small_case.references
                for off in range(0, grid - plan.segment_length + 1, seg // 4)
            ]
            np.testing.assert_array_equal(bank, quarter)


    def test_bank_below_four_samples(self, small_case):
        """Below four samples a quarter segment rounds to 0, and the bank
        takes a piece at every sample of the grid instead."""
        case = replace(small_case, segment_length=3)
        n = len(case.mixture)
        plan = plan_segments(n, 3, 0.5)
        bank = bench._bank_for_length(case, plan)
        grid = plan_segments(n, 3, 0.0).padded_length
        offsets = {*range(grid - 2), *plan.offsets}
        assert len(bank) == 2 * len(offsets)
        rows = {row.tobytes() for row in bank}
        for ref in case.references:
            padded = np.pad(ref.samples, (0, plan.padded_length))
            for off in offsets:
                assert padded[off : off + 3].tobytes() in rows


# (mean SI-SDRi, mean SDRi, switch rate) of each strategy on small_case at
# overlap 0.5, 6 steps, best-of-2 and seed 0. The switch rates count flips in
# 38 frame pairs. The BLAS thread count moves the dB values by ~1e-15; any
# change to the separation outputs moves them by far more.
PINNED_ROWS = {
    "naive": (-3.881506578350476, -2.951064050655616, 4 / 38),
    "segmented": (-1.9280130362612096, -2.193383337229592, 7 / 38),
    "ar": (-2.4039929320644795, -2.3701207239016835, 5 / 38),
    "ar-tf": (-1.668888238936954, -1.6133563311646657, 5 / 38),
    "nmf": (-4.293755864014024, 0.03202597887131442, 6 / 38),
}


@pytest.mark.parametrize("mode", list(PINNED_ROWS))
def test_rows_match_their_pinned_values(small_case, mode):
    """Each strategy's scores are pinned, so a refactor that means to keep the
    outputs shows that it did."""
    if mode == "nmf":
        row = run_nmf_baseline(small_case, seed=0)
    else:
        row = run_mode(small_case, Mode(mode), overlap_ratio=0.5, steps=6, best_of_k=2,
                       seed=0)
    got = (row.mean_si_sdri, row.mean_sdri, row.switch_rate)
    assert got == pytest.approx(PINNED_ROWS[mode], rel=1e-9)


# (candidate_index, permutation, selection_score) of each segment that
# separate chose in the runs above (overlap 0.5, 6 steps, best-of-2, seed 0),
# and in the same `ar` run without references ("ar-free"), which selects by
# the mixture residual. Those residuals are rounding noise, so the "ar-free"
# pins hold only while the sampler's outputs stay bit-identical.
PINNED_SELECTIONS = {
    "naive": [
        (1, (1, 0), -4.014609455827608),
    ],
    "segmented": [
        (1, (1, 0), -1.7087809947271277),
        (1, (0, 1), -1.8390978608004693),
        (1, (1, 0), -2.3277269718561944),
        (1, (1, 0), -2.6067308241006306),
        (1, (1, 0), -2.768023547871267),
        (0, (1, 0), -2.6422035991401684),
        (0, (1, 0), -2.0680545043360565),
        (1, (1, 0), -1.582858685351388),
        (1, (1, 0), -1.5651226335312869),
        (1, (1, 0), -1.2736357607014424),
        (1, (1, 0), -0.9334711601669611),
        (1, (1, 0), -1.2312837430169137),
        (1, (1, 0), -1.4077057058286455),
        (0, (1, 0), -2.3344867327593066),
        (1, (1, 0), -2.6051848557583455),
        (0, (0, 1), -2.0626979970303316),
        (1, (1, 0), -2.8402218901123466),
        (0, (1, 0), -2.1848089931067127),
        (1, (1, 0), -1.7234136567357365),
        (0, (1, 0), -4.985195153476115),
    ],
    "ar": [
        (1, (1, 0), -1.763421064336952),
        (0, (0, 1), -2.173318153956207),
        (0, (0, 1), -2.9559695339487426),
        (0, (0, 1), -3.458256339328284),
        (1, (0, 1), -3.1568346600899524),
        (1, (0, 1), -2.916938276762565),
        (1, (0, 1), -2.5034665938749763),
        (1, (0, 1), -1.9254412749890883),
        (1, (0, 1), -1.423075940919614),
        (0, (0, 1), -1.6043785944184275),
        (1, (0, 1), -1.8875757453599786),
        (1, (0, 1), -1.656233312614615),
        (0, (0, 1), -2.034223083364765),
        (0, (0, 1), -3.336561627146758),
        (0, (0, 1), -3.574097432826352),
        (1, (0, 1), -2.776364553198845),
        (0, (0, 1), -2.7610387765687308),
        (0, (0, 1), -2.721026103219083),
        (1, (0, 1), -3.9263640277102616),
    ],
    "ar-tf": [
        (1, (1, 0), -1.763421064336952),
        (0, (0, 1), 0.7539109766665597),
        (0, (0, 1), -0.01344401187119637),
        (1, (0, 1), 0.44634854159671744),
        (1, (0, 1), 0.07115917223387436),
        (1, (0, 1), -0.17042453986564055),
        (1, (0, 1), 0.663754192777474),
        (1, (0, 1), 1.17592231099961),
        (1, (0, 1), 1.6386519464981657),
        (0, (0, 1), 0.9755792715906261),
        (1, (0, 1), 1.3957403564691087),
        (1, (0, 1), 1.3009022149816305),
        (0, (0, 1), 0.9159835578235289),
        (0, (0, 1), -0.5175056450373243),
        (0, (0, 1), 0.31597127453530083),
        (1, (0, 1), 0.04131249949781923),
        (0, (0, 1), 0.1333447263295966),
        (0, (0, 1), 0.2710132831711265),
        (1, (0, 1), -0.5959437390199394),
    ],
    "ar-free": [
        (0, (0, 1), 8.646181892501881e-16),
        (1, (0, 1), 8.738936386692766e-16),
        (1, (0, 1), 8.6798037996661135e-16),
        (0, (0, 1), 8.791578747395235e-16),
        (1, (0, 1), 8.427065428654619e-16),
        (0, (0, 1), 8.369087967675753e-16),
        (1, (0, 1), 9.05309619061382e-16),
        (0, (0, 1), 9.171225610705846e-16),
        (0, (0, 1), 8.718827876368088e-16),
        (1, (0, 1), 9.277920835110622e-16),
        (0, (0, 1), 9.530956811479078e-16),
        (1, (0, 1), 8.81657420796247e-16),
        (0, (0, 1), 8.644620712671847e-16),
        (0, (0, 1), 8.817537315310309e-16),
        (0, (0, 1), 8.466645766854357e-16),
        (0, (0, 1), 8.165463360705544e-16),
        (0, (0, 1), 8.90099107744054e-16),
        (0, (0, 1), 8.76183481359871e-16),
        (1, (0, 1), 7.612224760995976e-16),
    ],
}


@pytest.mark.parametrize("run", list(PINNED_SELECTIONS))
def test_selections_match_their_pinned_values(small_case, monkeypatch, run):
    """Which candidate each segment keeps, and in which source order, is
    pinned, so a change to best-of-k selection shows."""
    results = []
    inner = bench.separate

    def recording(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bench, "separate", recording)
    if run == "ar-free":
        n = len(small_case.mixture)
        config = SeparationConfig(
            mode=Mode.AR, plan=plan_segments(n, small_case.segment_length, 0.5),
            grid=make_grid(bench.DEFAULT_SCHEDULE, 6), best_of_k=2,
            selection=Selection.MIXTURE_RESIDUAL,
        )
        models = bench._models_for_length(small_case, config.model_plan(n))
        bench.separate(small_case.problem, models, config)
    else:
        run_mode(small_case, Mode(run), overlap_ratio=0.5, steps=6, best_of_k=2, seed=0)
    (result,) = results
    got = [(r.candidate_index, r.permutation) for r in result.per_segment]
    assert got == [(idx, perm) for idx, perm, _ in PINNED_SELECTIONS[run]]
    scores = [r.selection_score for r in result.per_segment]
    assert scores == pytest.approx([score for *_, score in PINNED_SELECTIONS[run]], rel=1e-9)


class TestSweep:
    def spec(self):
        return SweepSpec(
            modes=["segmented", "nmf"],
            overlaps=[0.5],
            seeds=[0, 1],
            duration=2.5,
            segment=2048,
            steps=20,
            best_of_k=1,
        )

    def test_sweep_aggregates(self):
        report = sweep(self.spec())
        assert len(report["rows"]) == 4
        assert all(not r["error"] for r in report["rows"])
        cells = {(c["mode"], c["overlap"]): c for c in report["cells"]}
        assert cells[("segmented", 0.5)]["n"] == 2
        assert cells[("segmented", 0.5)]["si_sdri_std"] is not None
        switches = [r["switch_rate"] for r in report["rows"] if r["mode"] == "nmf"]
        assert cells[("nmf", 0.5)]["switch_mean"] == np.mean(switches)
        # the sign test needs both ar and naive in the grid
        assert "switch_sign_test" not in report

    def test_sign_test_pairs_ar_and_naive_by_seed(self):
        spec = SweepSpec(modes=["ar", "naive"], overlaps=[0.5], seeds=[0, 1],
                         duration=2.5, segment=2048, steps=5, best_of_k=1)
        report = sweep(spec)
        rate = {(r["mode"], r["seed"]): r["switch_rate"] for r in report["rows"]}
        wins = sum(rate["ar", s] < rate["naive", s] for s in (0, 1))
        losses = sum(rate["ar", s] > rate["naive", s] for s in (0, 1))
        (test,) = report["switch_sign_test"]
        assert (test["overlap"], test["wins"], test["losses"]) == (0.5, wins, losses)
        assert 0.0 < test["p"] <= 1.0

    def test_workers_and_direct_calls_agree(self):
        spec = SweepSpec(modes=["segmented", "nmf"], overlaps=[0.5], seeds=[0, 1],
                         duration=2.5, segment=2048, steps=10, best_of_k=1)
        serial = sweep(spec, workers=1)["rows"]
        assert sweep(spec, workers=2)["rows"] == serial
        direct = []
        for mode in spec.modes:
            for seed in spec.seeds:
                case = build_case(seed, duration=2.5, segment_length=2048)
                if mode == "nmf":
                    row = run_nmf_baseline(case, seed=seed)
                else:
                    row = run_mode(case, Mode(mode), overlap_ratio=0.5, steps=10,
                                   best_of_k=1, seed=seed)
                direct.append({"mode": mode, "overlap": 0.5, "seed": seed,
                               "si_sdri": row.mean_si_sdri, "sdri": row.mean_sdri,
                               "switch_rate": row.switch_rate, "error": ""})
        assert serial == direct

    def test_bench_import_stays_light(self):
        # perfbench times `import duetsep.bench`; scipy.stats would double it,
        # and scipy.io, which only WAV reading and writing need, adds ~22 MB
        src = str(Path(duetsep.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import duetsep.bench; "
                "print(sorted({'scipy.stats', 'scipy.io', 'duetsep.cli'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_empty_grid_rejected(self, monkeypatch):
        # a malformed grid fails before any case is rendered
        monkeypatch.setattr(bench, "build_case", None)
        with pytest.raises(ConfigurationError):
            sweep(SweepSpec(modes=[], overlaps=[0.5], seeds=[0]))
        with pytest.raises(ConfigurationError):
            sweep(SweepSpec(modes=["segmented", "bogus"], overlaps=[0.5], seeds=[0]))
        with pytest.raises(ConfigurationError):
            sweep(SweepSpec(modes=["nmf"], overlaps=[0.5], seeds=[0], scenario="bogus"))
        with pytest.raises(ConfigurationError):
            sweep(SweepSpec(modes=["nmf"], overlaps=[0.5, 1.0], seeds=[0]))

    @pytest.mark.parametrize(
        "name, values",
        [("modes", ["nmf", "segmented", "nmf"]), ("overlaps", [0.5, 0.25, 0.5]),
         ("seeds", [0, 0])],
    )
    def test_repeated_grid_value_rejected(self, monkeypatch, name, values):
        # a repeated value would run its rows twice and count them twice in
        # the cells and the sign test
        monkeypatch.setattr(bench, "build_case", None)
        grid = {"modes": ["nmf"], "overlaps": [0.5], "seeds": [0], name: values}
        with pytest.raises(ConfigurationError, match=f"{name} list {values[0]!r}"):
            sweep(SweepSpec(**grid))

    @pytest.mark.parametrize(
        "flag, value",
        [("--steps", 0), ("--best-of", 0), ("--duration", 0.0), ("--duration", -1.0),
         ("--duration", "nan"), ("--duration", 1.5), ("--duration", "inf"),
         ("--segment", 0), ("--overlaps", 0.9999), ("--seeds", "0 -1"), ("--seeds", "0 0"),
         ("--workers", 0)],
    )
    def test_bad_numeric_setting_exit_code(self, tmp_path, monkeypatch, flag, value):
        # a malformed number fails before any case is rendered, with exit 2
        rendered = []
        monkeypatch.setattr(bench, "build_case", lambda *a, **k: rendered.append(a))
        argv = ["sweep", "--modes", "segmented", "--seeds", 0, "--duration", 2.5,
                "--segment", 2048, flag, value, "--out", tmp_path / "o"]
        assert run(argv) == 2
        assert rendered == []
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, argfile, named",
        [(["--seeds", "1.5"], None, "--seeds"),
         (["--overlaps", "0.5 x"], None, "--overlaps"),
         ([], "--steps\nabc\n", "--steps")],
        ids=["seeds-flag", "overlaps-flag", "steps-key"],
    )
    def test_unparsable_value_exit_code(self, tmp_path, capsys, argv, argfile, named):
        # a value that does not parse, on the command line or in an @file,
        # exits 2 and names its flag
        if argfile is not None:
            (tmp_path / "s.args").write_text(argfile)
            argv = argv + [f"@{tmp_path / 's.args'}"]
        assert run(["sweep", "--modes", "nmf", *argv, "--out", tmp_path / "o"]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nmf_runs_once_per_seed(self, monkeypatch):
        calls = []
        inner = bench.run_nmf_baseline

        def counted(case, seed=0):
            calls.append(seed)
            return inner(case, seed=seed)

        monkeypatch.setattr(bench, "run_nmf_baseline", counted)
        spec = SweepSpec(modes=["nmf"], overlaps=[0.25, 0.5], seeds=[0],
                         duration=2.5, segment=2048)
        rows = sweep(spec)["rows"]
        assert calls == [0]
        assert [r["overlap"] for r in rows] == [0.25, 0.5]
        assert rows[0]["si_sdri"] == rows[1]["si_sdri"] and not rows[0]["error"]

    def test_sweep_flags_are_the_spec_fields(self):
        # every SweepSpec field is settable by one flag, and no flag sets
        # anything else besides the run's worker count and output directory
        (subparsers,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        dests = {a.dest for a in subparsers.choices["sweep"]._actions} - {"help"}
        assert dests == {f.name for f in fields(SweepSpec)} | {"workers", "out"}

    def write_args(self, path, *lines):
        path.write_text("".join(f"{line}\n" for line in lines))
        return f"@{path}"

    def test_sweep_command_writes_artifacts(self, tmp_path):
        out_dir = tmp_path / "sweep_out"
        argfile = self.write_args(
            tmp_path / "sweep.args",
            "--modes", "segmented", "--overlaps", "0.5", "--seeds", "0",
            "--duration", "2.5", "--segment", "2048", "--steps", "10",
            "--best-of", "1", "--out", out_dir,
        )
        assert run(["sweep", argfile]) == 0
        for name in ("sweep.json", "sweep.csv"):
            assert (out_dir / name).exists()
        rows = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].startswith("mode,overlap,seed")
        assert len(rows) == 2

    def test_flags_override_config(self, tmp_path):
        # arguments after the @file win over the file's lines
        out_a = tmp_path / "a"
        argfile = self.write_args(
            tmp_path / "sweep.args",
            "--modes", "segmented nmf", "--overlaps", "0.5", "--seeds", "0",
            "--duration", "2.5", "--segment", "2048", "--steps", "10",
            "--best-of", "1", "--out", tmp_path / "b",
        )
        assert run(["sweep", argfile, "--modes", "nmf", "--out", out_a]) == 0
        report = json.loads((out_a / "sweep.json").read_text())
        assert report["config"]["modes"] == ["nmf"]
        assert report["config"]["duration"] == 2.5
        assert not (tmp_path / "b").exists()

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        argfile = self.write_args(tmp_path / "bad.args", "--modes", "nmf", "nope = 1")
        assert run(["sweep", argfile, "--out", tmp_path / "o"]) == 2
        assert "nope = 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_mode_exit_code(self, tmp_path):
        assert run(["sweep", "--modes", "bogus", "--seeds", 0,
                    "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()

    def test_failed_row_exit_code(self, tmp_path, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("sampler broke")

        monkeypatch.setattr(bench, "run_mode", broken)
        out_dir = tmp_path / "o"
        assert run(["sweep", "--modes", "segmented nmf", "--overlaps", 0.5,
                    "--seeds", 0, "--duration", 2.5, "--segment", 2048,
                    "--out", out_dir]) == 3
        # every file is still written, and the failure is named
        for name in ("sweep.json", "sweep.csv"):
            assert (out_dir / name).exists()
        assert "1 of 2 sweep rows failed; first: RuntimeError: sampler broke" in (
            capsys.readouterr().err
        )

    def test_sampler_key_exit_code(self, tmp_path):
        # a sweep takes its sampler settings from its own flags only, not
        # from those of `separate`
        argfile = self.write_args(tmp_path / "bad.args", "--modes", "nmf",
                                  "--sigma-min", "0.01")
        assert run(["sweep", argfile, "--out", tmp_path / "o"]) == 2
        assert not (tmp_path / "o").exists()
