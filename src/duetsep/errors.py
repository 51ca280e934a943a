"""Exception types shared across the toolkit, and its one rule for integer parameters."""

import numbers


class InputError(ValueError):
    """The base of every input error: the command line exits 2 on any of them."""


class ShapeError(InputError):
    """Array lengths, sample rates, or counts do not line up."""


class ConfigurationError(InputError):
    """A parameter combination is invalid (bad segment plan, empty prior, ...)."""


class DomainError(InputError):
    """An argument is outside the mathematical domain of the operation."""


class ParseError(InputError):
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


def check_integer(name: str, value, minimum: int) -> None:
    """Raise ConfigurationError unless value is an int or numpy integer, not a bool, >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
