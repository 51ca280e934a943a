"""The library's input contract: every count, length, seed and sample rate
passes one integer rule, and every input error is an InputError, on which
the command line exits 2."""

import re

import numpy as np
import pytest

from duetsep import (
    BRIGHT,
    Contour,
    GaussianPrior,
    MixtureProblem,
    Mode,
    NoiseSchedule,
    SamplerConfig,
    ScenarioKind,
    SeparationConfig,
    TiledScoreModel,
    Waveform,
    build_exemplar_bank,
    cli,
    envelope_features,
    make_grid,
    make_scenario,
    plan_segments,
    render_voice,
)
from duetsep.bench import SweepSpec, sweep
from duetsep.errors import (
    ConfigurationError,
    DomainError,
    InputError,
    NumericalDivergenceError,
    ParseError,
    ShapeError,
    UnsupportedFormatError,
)
from duetsep.nmf import nmf_fit, pitch_candidates, separate_nmf, stft
from duetsep.synth_bench import identity_prototypes

GRID = make_grid(NoiseSchedule(), 2)
PLAN = plan_segments(64, 32, 0.0)
SHORT = Waveform(np.zeros(64), 8000)
LONG = Waveform(np.zeros(4096), 8000)
NOISE = Waveform(np.random.default_rng(0).normal(size=1024), 8000)
FLAT = Contour(np.array([0.0, 1.0]), np.array([200.0, 200.0]))


def _nmf(**kw):
    args = dict(components_per_source=1, iterations=2, frame_size=256, hop_size=64)
    return separate_nmf(MixtureProblem(NOISE), **{**args, **kw})


# (entry point, parameter, minimum, call on the value, an accepted value when
# the minimum itself fails another check of that entry point)
ENTRY_POINTS = [
    ("plan_segments", "segment_length", 1, lambda v: plan_segments(64, v, 0.0), None),
    ("plan_segments", "signal_length", 1, lambda v: plan_segments(v, 32, 0.0), None),
    ("make_grid", "steps", 1, lambda v: make_grid(NoiseSchedule(), v), None),
    ("SeparationConfig", "best_of_k", 1,
     lambda v: SeparationConfig(Mode.AR, PLAN, GRID, best_of_k=v), None),
    ("SeparationConfig", "seed", 0, lambda v: SeparationConfig(Mode.AR, PLAN, GRID, seed=v), None),
    ("SamplerConfig", "seed", 0, lambda v: SamplerConfig(GRID, seed=v), None),
    ("Waveform", "sample_rate", 1, lambda v: Waveform(np.zeros(4), v), None),
    ("MixtureProblem", "sources", 2, lambda v: MixtureProblem(SHORT, v), None),
    ("TiledScoreModel", "length", 1,
     lambda v: TiledScoreModel(GaussianPrior(np.zeros(1)), v), None),
    ("nmf_fit", "rank", 1, lambda v: nmf_fit(np.ones((4, 4)), v, 2), None),
    ("nmf_fit", "iterations", 0, lambda v: nmf_fit(np.ones((4, 4)), 2, v), None),
    ("nmf_fit", "seed", 0, lambda v: nmf_fit(np.ones((4, 4)), 2, 2, seed=v), None),
    ("separate_nmf", "components_per_source", 1, lambda v: _nmf(components_per_source=v), None),
    ("separate_nmf", "seed", 0, lambda v: _nmf(seed=v), None),
    ("stft", "frame_size", 2, lambda v: stft(SHORT, v, 1), None),
    ("stft", "hop_size", 1, lambda v: stft(SHORT, 16, v), None),
    ("pitch_candidates", "frame_size", 2,
     lambda v: pitch_candidates(LONG, 80.0, 500.0, v, 512), 2048),
    ("pitch_candidates", "hop_size", 1,
     lambda v: pitch_candidates(LONG, 80.0, 500.0, 2048, v), None),
    ("render_voice", "sample_rate", 1, lambda v: render_voice(BRIGHT, FLAT, v, 0.05), 8000),
    ("render_voice", "seed", 0, lambda v: render_voice(BRIGHT, FLAT, 8000, 0.05, seed=v), None),
    ("make_scenario", "seed", 0, lambda v: make_scenario(ScenarioKind.CROSSING, 2.0, v), None),
    ("build_exemplar_bank", "segment_length", 1,
     lambda v: build_exemplar_bank([BRIGHT], v, 1), None),
    ("build_exemplar_bank", "count_per_singer", 1,
     lambda v: build_exemplar_bank([BRIGHT], 64, v), None),
    ("build_exemplar_bank", "seed", 0, lambda v: build_exemplar_bank([BRIGHT], 64, 1, v), None),
    # a 1-sample frame is valid, but its 16 000 1024-point FFTs per voice take ~130 MB
    ("identity_prototypes", "frame", 1, lambda v: identity_prototypes([BRIGHT], v), 512),
    ("identity_prototypes", "seed", 0, lambda v: identity_prototypes([BRIGHT], 512, v), None),
    ("envelope_features", "frame", 1, lambda v: envelope_features(NOISE.samples, v), None),
    ("sweep", "workers", 1,
     lambda v: sweep(SweepSpec(modes=("nmf",), seeds=(0,), duration=2.0), workers=v), None),
]
IDS = [f"{entry}-{name}" for entry, name, *_ in ENTRY_POINTS]


@pytest.mark.parametrize("bad", [2.5, "3", None, True, "below"])
@pytest.mark.parametrize("entry, name, minimum, call, accepted", ENTRY_POINTS, ids=IDS)
def test_rejects_a_non_integer_or_one_below_the_minimum(entry, name, minimum, call, accepted, bad):
    value = minimum - 1 if bad == "below" else bad
    want = f"{name} must be an integer >= {minimum}, got {value!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(want)}$"):
        call(value)


@pytest.mark.parametrize("entry, name, minimum, call, accepted", ENTRY_POINTS, ids=IDS)
def test_accepts_a_numpy_integer(entry, name, minimum, call, accepted):
    call(np.int64(minimum if accepted is None else accepted))


def test_the_input_errors_share_one_base():
    for error in (ConfigurationError, ParseError, ShapeError, DomainError, UnsupportedFormatError):
        assert issubclass(error, InputError), error.__name__
    assert issubclass(InputError, ValueError)
    assert not issubclass(NumericalDivergenceError, InputError)


class _OtherInputError(InputError):
    pass


@pytest.mark.parametrize("error", [InputError, _OtherInputError])
def test_any_input_error_exits_2(error, monkeypatch, tmp_path, capsys):
    def failing(args):
        raise error("bad input")

    monkeypatch.setattr(cli, "_cmd_synth", failing)
    assert cli.main(["synth", "--out", str(tmp_path / "x")]) == 2
    assert "input error: bad input" in capsys.readouterr().err
