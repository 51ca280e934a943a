import argparse
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import duetsep
from duetsep import Waveform, bench, read_wav, write_wav
from duetsep.bench import SweepSpec, build_case, run_mode, run_nmf_baseline, sweep
from duetsep.cli import build_parser, main
from duetsep.errors import ConfigurationError
from duetsep.pipeline import Mode


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
        [("--rate", 0), ("--rate", -5), ("--duration", "nan"), ("--seed", -1)],
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
            "--segment", 2048, "--overlap", 0.5, "--steps", 30,
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

    def test_bank_length_mismatch_exit_code(self, scenario_dir, tmp_path):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.zeros(1000) + 0.1, 8000))
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav",
            "--bank", bank_dir, "--segment", 2048,
            "--out", tmp_path / "sep",
        ])
        assert code == 2

    def test_mixed_rate_bank_exit_code(self, scenario_dir, tmp_path):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "a.wav", Waveform(np.zeros(2048) + 0.1, 8000))
        write_wav(bank_dir / "b.wav", Waveform(np.zeros(2048) + 0.1, 16000))
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav",
            "--bank", bank_dir, "--segment", 2048, "--out", tmp_path / "sep",
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
            "--segment", 2048, "--steps", 2, "--best-of", 1, "--out", out,
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
            "--bank", bank_dir, "--segment", 2048, "--overlap", 0.9999,
            "--out", tmp_path / "sep",
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [("--bandwidth", 0), ("--bandwidth", "nan"), ("--steps", 0), ("--best-of", 0),
         ("--sigma-min", 0), ("--sigma-max", "inf"), ("--sources", 1), ("--seed", -1)],
    )
    def test_malformed_flag_exit_code(self, scenario_dir, tmp_path, flag, value):
        bank_dir = tmp_path / "bank"
        bank_dir.mkdir()
        write_wav(bank_dir / "ex.wav", Waveform(np.linspace(-0.5, 0.5, 2048), 8000))
        out = tmp_path / "sep"
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav", "--bank", bank_dir,
            "--segment", 2048, "--steps", 2, "--best-of", 1, flag, value, "--out", out,
        ])
        assert code == 2
        assert not out.exists()

    def test_malformed_bank_exit_code(self, scenario_dir, tmp_path):
        bank = tmp_path / "bank.bin"
        bank.write_bytes(b"XBNK\x02\x00")  # header cut short
        code = run([
            "separate", "--mixture", scenario_dir / "mixture.wav",
            "--bank", bank, "--out", tmp_path / "sep",
        ])
        assert code == 2

    def test_missing_mixture_exit_code(self, tmp_path):
        code = run([
            "separate", "--mixture", tmp_path / "nope.wav",
            "--bank", tmp_path, "--out", tmp_path / "sep",
        ])
        assert code in (2, 3)


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
        "flag, value", [("--iters", -3), ("--components", 0), ("--seed", -1)]
    )
    def test_malformed_flag_exit_code(self, scenario_dir, tmp_path, flag, value):
        out = tmp_path / "nmf"
        code = run(["nmf", "--mixture", scenario_dir / "mixture.wav", "--iters", 5,
                    flag, value, "--out", out])
        assert code == 2
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
        assert code == 3

    def test_count_mismatch_exit_code(self, scenario_dir, tmp_path):
        est_dir = tmp_path / "est"
        est_dir.mkdir()
        write_wav(est_dir / "only.wav", read_wav(scenario_dir / "voice1.wav"))
        refs_dir = scenario_dir  # has 3 wavs
        code = run(["eval", "--est", est_dir, "--refs", refs_dir,
                    "--mixture", scenario_dir / "mixture.wav",
                    "--out", tmp_path / "r.json"])
        assert code == 2


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
        # perfbench times `import duetsep.bench`; scipy.stats would double it
        src = str(Path(duetsep.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import duetsep.bench; "
                "print(sorted({'scipy.stats', 'duetsep.cli'} & set(sys.modules)))")
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
        "flag, value",
        [("--steps", 0), ("--best-of", 0), ("--duration", 0.0), ("--duration", -1.0),
         ("--duration", "nan"), ("--duration", 1.5), ("--duration", "inf"),
         ("--segment", 0), ("--overlaps", 0.9999), ("--seeds", "0 -1"), ("--workers", 0)],
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
