"""The one binary layout of checkpoints and datasets, and UTF-8 text reading.

A binary file is one ASCII JSON header line, ``json.dumps`` of an object plus
a newline (``json.dumps`` escapes every non-ASCII or control character, so
the header holds no newline of its own), then raw float64 blocks: each
array's little-endian bytes in C order, in a fixed order, with nothing
between or after them.  Every array of the file is a block, never header
JSON.  The header says enough for the reader to know every block's shape,
so the file holds no offsets, shapes or version field.
"""

from __future__ import annotations

import json
import math
import os
from typing import BinaryIO, Iterable, Iterator, Mapping

import numpy as np

from .errors import ParseError


def write_blocks(path: str | os.PathLike, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write ``header`` as the header line, then each of ``arrays`` as a block
    from its own buffer (a C-order little-endian float64 array is not copied)."""
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode("ascii") + b"\n")
        for a in arrays:
            f.write(np.ascontiguousarray(a, dtype="<f8"))


def read_header(f: BinaryIO, what: str) -> dict:
    """The JSON object on the first line of ``f``, leaving ``f`` at the first
    block.  A missing newline, invalid JSON or a header that is not an object
    raises :class:`ParseError` naming ``what``."""
    line = f.readline()
    if not line.endswith(b"\n"):
        raise ParseError(f"{what} has no header line (no newline)")
    try:
        head = json.loads(line)
    except ValueError as exc:
        raise ParseError(f"invalid {what} header JSON: {exc}")
    if not isinstance(head, dict):
        raise ParseError(f"{what} header must be a JSON object")
    return head


def read_blocks(f: BinaryIO, what: str,
                shapes: Mapping[str, tuple[int, ...]]) -> list[np.ndarray]:
    """The rest of ``f`` as one new, aligned and writable float64 array per
    entry of ``shapes`` (block name to shape), in order.

    The bytes are read straight into the arrays.  A remainder that is not
    exactly the blocks' size (truncated or trailing bytes) raises
    :class:`ParseError` naming ``what`` and every block's shape; so do a
    shape numpy cannot make and a file that changes while it is read.
    """
    expected = 8 * sum(math.prod(shape) for shape in shapes.values())
    held = os.fstat(f.fileno()).st_size - f.tell()
    if held != expected:
        raise ParseError(
            f"{what} holds {held} bytes after its header, expected {expected} for "
            f"{', '.join(f'{k} {shape}' for k, shape in shapes.items())}"
        )
    out = []
    for key, shape in shapes.items():
        try:
            a = np.empty(shape, dtype="<f8")
        except ValueError as exc:  # an empty block with a dimension numpy cannot index
            raise ParseError(f"{what} {key} block cannot have shape {shape}: {exc}")
        if f.readinto(a.reshape(-1).view(np.uint8)) != a.nbytes:
            raise ParseError(f"{what} ended inside its {key} block")
        out.append(a.astype(np.float64, copy=False))
    return out


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
