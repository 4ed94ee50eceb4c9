"""Semantic embeddings and label-space bookkeeping.

Class word vectors are ingested from a plain text file, L2-normalized, and
augmented with a background column defined as the arithmetic mean of the
normalized class vectors (the background is deliberately *not* renormalized).
The label space assigns contiguous 1-based ids: seen classes first, then
unseen classes, then the background id C+1.  Meta-classes partition the
classes; the background gets its own singleton meta-class M+1.

Both structures are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .codec import utf8_lines
from .errors import ConfigError, ParseError


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class EmbeddingTable:
    """Unit-norm per-class semantic vectors, stored column-wise.

    ``vectors`` has shape (d, C); column order matches ``labels``.
    ``background`` (d,) is the mean of the class columns.  Build one from
    raw vectors with :func:`finalize_embeddings`; a model reads only
    :meth:`w2`.
    """

    labels: tuple[str, ...]
    vectors: np.ndarray
    background: np.ndarray

    @property
    def d(self) -> int:
        return self.vectors.shape[0]

    def w2(self, labels: Sequence[str]) -> np.ndarray:
        """Fixed projection matrix, shape (d, C+1): the class columns in the
        order of ``labels``, a permutation of the table's, then the background.

        The background is order-invariant (a mean), so it is carried over.
        """
        index = {l: i for i, l in enumerate(self.labels)}
        missing = [l for l in labels if l not in index]
        if missing:
            raise ConfigError(f"labels absent from embedding table: {missing}")
        if len(set(labels)) != len(labels) or len(labels) != len(self.labels):
            raise ConfigError("labels must name each class of the embedding table exactly once")
        cols = [index[l] for l in labels]
        return _readonly(np.column_stack([self.vectors[:, cols], self.background]))


def load_word_vectors(path: str | os.PathLike) -> EmbeddingTable:
    """Parse a word-vector text file: one ``label v1 ... vd`` record per line.

    Every component must be finite.  The vectors are L2-normalized by
    :func:`finalize_embeddings`.  Multi-token class names must use
    underscores.
    """
    rows: dict[str, np.ndarray] = {}  # label -> vector, in file order
    d: int | None = None
    for lineno, line in utf8_lines(path):
        parts = line.split()
        if not parts:
            continue
        label, tokens = parts[0], parts[1:]
        if not tokens:
            raise ParseError(f"record {label!r} has no vector components", lineno)
        if label in rows:
            raise ParseError(f"duplicate label {label!r}", lineno)
        try:
            vec = np.array(tokens, dtype=np.float64)
        except ValueError as exc:
            raise ParseError(f"non-numeric token in record {label!r}: {exc}", lineno)
        if not np.isfinite(vec).all():
            raise ParseError(f"record {label!r} has a non-finite component", lineno)
        if d is None:
            d = vec.size
        elif vec.size != d:
            raise ParseError(
                f"record {label!r} has {vec.size} components, expected {d}", lineno
            )
        rows[label] = vec
    if not rows:
        raise ParseError(f"no records in {path}")
    return finalize_embeddings(list(rows), np.stack(list(rows.values()), axis=1))


def finalize_embeddings(labels: Sequence[str], vectors: np.ndarray) -> EmbeddingTable:
    """Table from raw class vectors ``(d, C)``: every column L2-normalized.

    The background is the arithmetic mean of the normalized class vectors;
    by the triangle inequality its norm is <= 1 and it is left as-is.  A
    zero-norm class vector or background raises :class:`ConfigError`.
    """
    norms = np.linalg.norm(vectors, axis=0)
    bad = np.where(~(norms > 0.0))[0]
    if bad.size:
        raise ConfigError(f"class {labels[bad[0]]!r} has zero-norm vector")
    vectors = _readonly(vectors / norms)
    background = vectors.mean(axis=1)
    if not np.linalg.norm(background) > 0.0:
        raise ConfigError("the unit class vectors average to zero: "
                          "the background has zero norm")
    return EmbeddingTable(tuple(labels), vectors, _readonly(background))


@dataclass(frozen=True)
class LabelSpace:
    """Contiguous 1-based ids: seen 1..S, unseen S+1..S+U, background C+1.

    ``labels`` names the C classes in id order, and its first ``S`` are
    seen.  ``meta_of`` maps every class id (including bg) to its meta id; meta ids
    are 1..M in first-appearance order of the meta map, and the background
    owns the singleton meta-class M+1.
    """

    labels: tuple[str, ...]
    S: int
    meta_labels: tuple[str, ...]
    _meta_of: tuple[int, ...]

    @property
    def U(self) -> int:
        return len(self.labels) - self.S

    @property
    def C(self) -> int:
        return len(self.labels)

    @property
    def bg_id(self) -> int:
        return self.C + 1

    @property
    def M(self) -> int:
        return len(self.meta_labels)

    @property
    def bg_meta_id(self) -> int:
        return self.M + 1

    @property
    def seen_ids(self) -> range:
        return range(1, self.S + 1)

    @property
    def unseen_ids(self) -> range:
        return range(self.S + 1, self.C + 1)

    def label_of(self, class_id: int) -> str:
        if class_id == self.bg_id:
            return "__background__"
        if not 1 <= class_id < self.bg_id:
            raise ConfigError(f"class id {class_id} outside 1..{self.bg_id}")
        return self.labels[class_id - 1]

    def meta_label_of(self, meta_id: int) -> str:
        if meta_id == self.bg_meta_id:
            return "__background__"
        if not 1 <= meta_id < self.bg_meta_id:
            raise ConfigError(f"meta id {meta_id} outside 1..{self.bg_meta_id}")
        return self.meta_labels[meta_id - 1]

    def is_seen(self, class_id: int) -> bool:
        return 1 <= class_id <= self.S

    def is_unseen(self, class_id: int) -> bool:
        return self.S < class_id <= self.C

    def meta_of(self, class_id: int) -> int:
        if not 1 <= class_id <= self.bg_id:
            raise ConfigError(f"class id {class_id} outside 1..{self.bg_id}")
        return self._meta_of[class_id - 1]

    def members(self, meta_id: int) -> tuple[int, ...]:
        """Class ids belonging to a meta-class, ascending."""
        if meta_id == self.bg_meta_id:
            return (self.bg_id,)
        if not 1 <= meta_id <= self.M:
            raise ConfigError(f"meta id {meta_id} outside 1..{self.bg_meta_id}")
        return tuple(
            cid for cid in range(1, self.C + 1) if self._meta_of[cid - 1] == meta_id
        )

    def unseen_members(self, meta_id: int) -> tuple[int, ...]:
        return tuple(cid for cid in self.members(meta_id) if self.is_unseen(cid))


def load_meta_map(path: str | os.PathLike) -> dict[str, str]:
    """Parse the two-column ``class_label,meta_label`` CSV (no header)."""
    mapping: dict[str, str] = {}
    rows = csv.reader(line for _, line in utf8_lines(path))
    for lineno, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 columns, got {len(row)}", lineno)
        cls, meta = row[0].strip(), row[1].strip()
        if cls in mapping:
            raise ConfigError(f"class {cls!r} listed in more than one meta row")
        mapping[cls] = meta
    if not mapping:
        raise ParseError(f"no rows in meta map {path}")
    return mapping


def save_meta_map(meta_map: Mapping[str, str], path: str | os.PathLike) -> None:
    """Write ``class,meta`` rows; a name holding a comma or a quote is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(meta_map.items())


def build_label_space(
    seen_labels: Sequence[str],
    unseen_labels: Sequence[str],
    meta_map: Mapping[str, str],
) -> LabelSpace:
    """Assign ids (seen, then unseen, then bg) and populate the meta structure.

    Every class must appear exactly once; meta ids follow first appearance
    in the map's iteration order.
    """
    overlap = set(seen_labels) & set(unseen_labels)
    if overlap:
        raise ConfigError(f"labels in both seen and unseen sets: {sorted(overlap)}")
    if len(set(seen_labels)) != len(seen_labels) or len(set(unseen_labels)) != len(unseen_labels):
        raise ConfigError("duplicate labels inside a split set")

    labels = tuple(seen_labels) + tuple(unseen_labels)
    missing = [l for l in labels if l not in meta_map]
    if missing:
        raise ConfigError(f"classes missing from meta map: {missing}")

    meta_order: list[str] = []
    for meta in meta_map.values():
        if meta not in meta_order:
            meta_order.append(meta)
    meta_ids = {m: i + 1 for i, m in enumerate(meta_order)}

    meta_of = tuple(meta_ids[meta_map[l]] for l in labels) + (len(meta_order) + 1,)
    return LabelSpace(
        labels=labels,
        S=len(seen_labels),
        meta_labels=tuple(meta_order),
        _meta_of=meta_of,
    )


def meta_cosine_stats(matrix: np.ndarray, space: LabelSpace) -> tuple[float, float]:
    """Mean intra-meta and inter-meta pairwise cosines of per-class columns.

    ``matrix`` has one column per class id 1..C (background excluded); used
    to quantify how strongly training pulls same-meta embeddings together.
    """
    if matrix.shape[1] != space.C:
        raise ParseError(
            f"expected {space.C} columns, got {matrix.shape[1]}"
        )
    norms = np.linalg.norm(matrix, axis=0)
    if not np.all(norms > 0):
        raise ConfigError("zero-norm column in modified embeddings")
    unit = matrix / norms
    cos = unit.T @ unit
    metas = np.array([space.meta_of(cid) for cid in range(1, space.C + 1)])
    same = metas[:, None] == metas[None, :]
    off_diag = ~np.eye(space.C, dtype=bool)
    intra_mask = same & off_diag
    inter_mask = ~same
    intra = float(cos[intra_mask].mean()) if intra_mask.any() else float("nan")
    inter = float(cos[inter_mask].mean()) if inter_mask.any() else float("nan")
    return intra, inter


def save_word_vectors(
    path: str | os.PathLike, labels: Iterable[str], vectors: np.ndarray
) -> None:
    """Write columns of ``vectors`` in the word-vector text format."""
    vectors = np.asarray(vectors, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as f:
        for j, label in enumerate(labels):
            coords = " ".join(repr(float(v)) for v in vectors[:, j])
            f.write(f"{label} {coords}\n")
