"""Duet source separation via diffusion posterior sampling with
auto-regressive overlapped-segment inpainting, verified at desk scale with
closed-form score models and a synthetic duet benchmark."""

from .core_signal import (
    MixtureProblem,
    Waveform,
    mix,
    read_wav,
    write_wav,
)
from .errors import (
    ConfigurationError,
    DomainError,
    InputError,
    NumericalDivergenceError,
    ParseError,
    ShapeError,
    UnsupportedFormatError,
)
from .metrics import (
    SDR_CAP_DB,
    EvalReport,
    SourceMetrics,
    envelope_features,
    evaluate,
    identity_switch_rate,
    sdr,
    si_sdr,
)
from .pipeline import (
    Mode,
    SegmentPlan,
    Selection,
    SeparationConfig,
    SeparationResult,
    plan_segments,
    select_best_of_k,
    separate,
    stitch,
)
from .posterior_sampler import (
    InpaintCondition,
    Integrator,
    SamplerConfig,
    apply_inpaint,
    posterior_score,
    sample_posterior,
    sample_prior,
)
from .schedule import NoiseSchedule, TimeGrid, make_grid
from .score_models import (
    GaussianPrior,
    MixturePrior,
    TiledScoreModel,
    kde_prior_from_exemplars,
    load_exemplar_bank,
    mixture_score,
)
from .synth_bench import (
    BRIGHT,
    DARK,
    Contour,
    DuetScenario,
    ScenarioKind,
    SingerSpec,
    build_exemplar_bank,
    make_scenario,
    render_voice,
)

__version__ = "0.1.0"
