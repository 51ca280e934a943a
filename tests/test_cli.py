import json

import numpy as np
import pytest

from duetsep import Waveform, read_wav, write_wav
from duetsep.cli import SweepSpec, load_config, main, plot_data, sweep
from duetsep.errors import ConfigurationError, DomainError


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def scenario_dir(tmp_path):
    out = tmp_path / "scene"
    assert run(["synth", "--scenario", "crossing", "--duration", 2.5,
                "--seed", 3, "--out", out]) == 0
    return out


class TestLoadConfig:
    def test_parses_known_keys(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment\n"
            "sweep.seeds = 0 1 2\n"
            "sweep.steps = 50   # inline comment\n"
            "\n"
            "schedule.sigma_min = 0.005\n"
        )
        out = load_config(cfg)
        assert out == {
            "sweep.seeds": "0 1 2",
            "sweep.steps": "50",
            "schedule.sigma_min": "0.005",
        }

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sweep.bogus = 1\n")
        with pytest.raises(ConfigurationError):
            load_config(cfg)

    def test_missing_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sweep.seeds 0 1\n")
        with pytest.raises(ConfigurationError):
            load_config(cfg)


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

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep(SweepSpec(modes=[], overlaps=[0.5], seeds=[0]))

    def test_plot_data_format(self):
        report = {
            "cells": [
                {"mode": "ar", "overlap": 0.75, "n": 2,
                 "si_sdri_mean": 10.0, "si_sdri_std": 1.0},
                {"mode": "naive", "overlap": 0.75, "n": 1,
                 "si_sdri_mean": 5.0, "si_sdri_std": None},
            ]
        }
        text = plot_data(report)
        assert "# mode=ar overlap=0.75" in text
        assert "10.000000 1.000000 2" in text
        assert "5.000000 nan 1" in text

    def test_plot_data_empty_rejected(self):
        with pytest.raises(DomainError):
            plot_data({"cells": []})

    def test_sweep_command_writes_artifacts(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out_dir = tmp_path / "sweep_out"
        cfg.write_text(
            "sweep.modes = segmented\n"
            "sweep.overlaps = 0.5\n"
            "sweep.seeds = 0\n"
            "sweep.duration = 2.5\n"
            "sweep.segment = 2048\n"
            "sweep.steps = 10\n"
            "sweep.best_of_k = 1\n"
            f"sweep.out = {out_dir}\n"
        )
        assert run(["sweep", "--config", cfg]) == 0
        for name in ("sweep.json", "sweep.csv", "sweep_plot.dat"):
            assert (out_dir / name).exists()
        rows = (out_dir / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].startswith("mode,overlap,seed")
        assert len(rows) == 2

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        out_a = tmp_path / "a"
        cfg.write_text(
            "sweep.modes = segmented nmf\n"
            "sweep.overlaps = 0.5\n"
            "sweep.seeds = 0\n"
            "sweep.duration = 2.5\n"
            "sweep.segment = 2048\n"
            "sweep.steps = 10\n"
            "sweep.best_of_k = 1\n"
        )
        assert run(["sweep", "--config", cfg, "--modes", "nmf",
                    "--out", out_a]) == 0
        report = json.loads((out_a / "sweep.json").read_text())
        assert report["config"]["modes"] == ["nmf"]

    def test_unknown_config_key_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nope = 1\n")
        assert run(["sweep", "--config", cfg]) == 2
