"""Exception taxonomy shared by all zsdet modules.

Every refusal exits 2 from the CLI; the classes differ only in what a
caller can read from them (a parse error's line, a numeric failure's
sample index).
"""

import math
from contextlib import contextmanager


class ZsdetError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ZsdetError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(ZsdetError):
    """An argument, setting or combination of inputs that the protocol refuses."""


class NumericFailureError(ZsdetError):
    """A loss or gradient became non-finite; carries the offending sample index."""

    def __init__(self, message: str, sample_index: int | None = None):
        self.sample_index = sample_index
        if sample_index is not None:
            message = f"{message} (sample {sample_index})"
        super().__init__(message)


def check_finite(name: str, value: float) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a finite number."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value}")


def check_seed(value: int) -> None:
    """Raise :class:`ConfigError` unless ``value`` is a usable random seed (>= 0)."""
    if value < 0:
        raise ConfigError(f"seed must be >= 0, got {value}")


@contextmanager
def allocating(what: str):
    """Raise :class:`ConfigError` "<what> cannot be allocated" where numpy
    cannot shape an array (ValueError: a dimension past its index range) or
    cannot allocate it (MemoryError)."""
    try:
        yield
    except (ValueError, MemoryError):
        raise ConfigError(f"{what} cannot be allocated") from None
