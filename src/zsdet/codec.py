"""Encodings shared by the file formats: float64 array blocks and UTF-8 text.

An array block is the base64 text of an array's little-endian float64 bytes
in C order.  Dataset files store their per-image proposal features and boxes
this way and the oracle record its feature map; the reader supplies the
shape.  Checkpoints do not use it: they store raw float64 bytes after a JSON
header line (see :func:`zsdet.model.save_checkpoint`).
"""

from __future__ import annotations

import base64
import math
import os
from typing import Iterator

import numpy as np

from .errors import ParseError


def encode_array(a: np.ndarray) -> str:
    """Base64 text of ``a`` as little-endian float64 bytes in C order."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8")).decode("ascii")


def decode_array(text, what: str, shape: tuple[int | None, ...],
                 line: int | None = None) -> np.ndarray:
    """Invert :func:`encode_array` into a new float64 array of ``shape``.

    A leading ``None`` in ``shape`` is the row count, taken from the byte
    count, which must then be a whole number of rows.  Anything else raises
    :class:`ParseError` naming ``what`` (and ``line`` when given).
    """
    if not isinstance(text, str):
        raise ParseError(f"{what} must be a base64 string", line)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:
        raise ParseError(f"{what} is not valid base64: {exc}", line)
    if shape[0] is None:
        row = 8 * math.prod(shape[1:])
        if len(raw) % row:
            raise ParseError(
                f"{what} holds {len(raw)} bytes, not a whole number of "
                f"{row}-byte rows of {shape[1:]}", line
            )
        shape = (len(raw) // row, *shape[1:])
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise ParseError(
            f"{what} holds {len(raw)} bytes, expected {expected} for shape {shape}", line
        )
    return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)


def _utf8(raw: bytes, path: str | os.PathLike, line: int | None = None) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{os.fspath(path)} is not UTF-8 text: {exc}", line)


def read_utf8(path: str | os.PathLike) -> str:
    """The whole file as text; bytes that are not UTF-8 raise :class:`ParseError`."""
    with open(path, "rb") as f:
        return _utf8(f.read(), path)


def utf8_lines(path: str | os.PathLike) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` for each line of the file, numbered from 1.

    A line that is not UTF-8 raises :class:`ParseError` naming it.
    """
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            yield lineno, _utf8(raw, path, lineno)
