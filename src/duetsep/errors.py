"""Exception types shared across the toolkit."""


class ShapeError(ValueError):
    """Array lengths, sample rates, or counts do not line up."""


class ConfigurationError(ValueError):
    """A parameter combination is invalid (bad segment plan, empty prior, ...)."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ParseError(ValueError):
    """A file could not be decoded."""


class UnsupportedFormatError(ParseError):
    """The file decoded fine but uses a feature we do not handle."""


class NumericalDivergenceError(RuntimeError):
    """An integrator produced NaN/Inf mid-run.

    `step` is the integrator step that failed and `sigma` the noise level it
    reached. `segment` is the index of the segment being sampled, which
    `separate` adds when it re-raises the error; None outside it.
    """

    def __init__(self, step: int, sigma: float, segment: int | None = None):
        super().__init__(step, sigma, segment)
        self.step = step
        self.sigma = sigma
        self.segment = segment

    def __str__(self) -> str:
        where = "" if self.segment is None else f" of segment {self.segment}"
        return f"non-finite state at integrator step {self.step}{where}, sigma {self.sigma:.6g}"
