"""Exception taxonomy shared by all zsdet modules."""

import math


class ZsdetError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ZsdetError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatchError(ParseError):
    """Vector or feature length disagrees with the established dimensionality."""


class DuplicateLabelError(ParseError):
    """The same label appears more than once in a vector file."""


class DegenerateEmbeddingError(ZsdetError):
    """A class vector, or the background mean of the unit class vectors, has
    zero norm and cannot be normalized."""


class CoverageError(ZsdetError):
    """A class is missing from (or duplicated in) the meta-class map."""


class DisjointnessError(ZsdetError):
    """Seen and unseen label sets overlap."""


class ShapeError(ZsdetError):
    """An array argument has the wrong shape."""


class NormalizationError(ZsdetError):
    """Score normalization is undefined (zero-norm feature)."""


class InvalidTargetError(ZsdetError):
    """A training target is an unseen class id; unseen classes are never supervised."""


class NumericFailureError(ZsdetError):
    """A loss or gradient became non-finite; carries the offending sample index."""

    def __init__(self, message: str, sample_index: int | None = None):
        self.sample_index = sample_index
        if sample_index is not None:
            message = f"{message} (sample {sample_index})"
        super().__init__(message)


class ConfigError(ZsdetError):
    """A configuration value violates its documented range."""


def check_finite(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite number."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value}")


def check_seed(value: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a usable random seed (>= 0)."""
    if value < 0:
        raise ConfigError(f"seed must be >= 0, got {value}")


def check_unit_interval(name: str, value: float, open_at_zero: bool = False) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite number in
    ``[0, 1]``, or in ``(0, 1]`` when ``open_at_zero``."""
    check_finite(name, value)
    above_low = value > 0.0 if open_at_zero else value >= 0.0
    if not above_low or value > 1.0:
        interval = "(0, 1]" if open_at_zero else "[0, 1]"
        raise ConfigError(f"{name} must be in {interval}, got {value}")
