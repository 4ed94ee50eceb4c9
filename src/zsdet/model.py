"""Trainable model state and the forward pass.

The model scores a fixed region feature against every class by projecting it
through an adjustable matrix W1 into the semantic space and then onto the
fixed embedding columns W2: ``o = (W1 W2)^T f``.  No nonlinearity sits
between the two projections, so they act as a single learnable projection
onto the class embeddings.  A second linear head emits four box-regression
offsets per seen class.

W2 is frozen: its array is read-only and training never writes to it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .codec import read_blocks, read_header, write_blocks
from .errors import ConfigError, ParseError
from .semantics import EmbeddingTable, LabelSpace

# Training modes: ``full`` ranks every class, ``seen_only`` the seen ones.
MODES = ("full", "seen_only")


@dataclass(frozen=True)
class RegionBatch:
    """Labeled training rows: ``features (n, d_f)``, class-id targets
    ``ys (n,)`` in S', and the encoded regression targets ``targets (n, 4)``
    of each row against its matched ground-truth box (NaN for background)."""

    features: np.ndarray
    ys: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.ys)

    def rows(self, idx: np.ndarray) -> "RegionBatch":
        """The batch of rows ``idx``, in that order (repeats allowed)."""
        return RegionBatch(self.features[idx], self.ys[idx], self.targets[idx])


@dataclass(frozen=True)
class Model:
    """Adjustable projection + box head over fixed semantic embeddings.

    ``w2`` has shape (d, C+1) with the background mean vector as the last
    column; ``col_norms``, derived from it at construction and read-only,
    holds the column norms used by score normalization (1.0 for classes,
    <=1 for the background).  ``labels`` names the C classes in id order,
    the first ``n_seen`` of them seen and the rest unseen.  ``mode`` is the
    training mode (one of :data:`MODES`).

    The fields cannot be rebound: a model with other arrays is
    ``dataclasses.replace(model, ...)``, which derives fresh norms.
    Training updates ``w1`` and the box head in place.
    """

    w1: np.ndarray
    w2: np.ndarray
    labels: tuple[str, ...]
    n_seen: int
    box_w: np.ndarray
    box_b: np.ndarray
    mode: str
    col_norms: np.ndarray = field(init=False)

    def __post_init__(self):
        norms = np.linalg.norm(self.w2, axis=0)
        norms.flags.writeable = False
        object.__setattr__(self, "col_norms", norms)

    @property
    def d_f(self) -> int:
        return self.w1.shape[0]

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[1] - 1

    @property
    def n_unseen(self) -> int:
        return self.n_classes - self.n_seen


def init_model(
    w2: np.ndarray,
    space: LabelSpace,
    d_f: int,
    seed: int = 0,
    mode: str = "full",
) -> Model:
    """Fresh model: Glorot-uniform W1 and a zero box head over the fixed
    ``w2`` (d, C+1), whose columns follow ``space``'s class ids, as
    ``EmbeddingTable.w2(space.labels)`` gives them.

    Bit-reproducible for a given seed.  A ``mode`` outside :data:`MODES`, or
    a ``w2`` that is not C+1 columns wide, raises :class:`ConfigError`.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    if w2.shape[1] != space.C + 1:
        raise ConfigError(f"w2 has {w2.shape[1]} columns, expected {space.C + 1} "
                          f"for {space.C} classes and the background")
    d = w2.shape[0]
    rng = np.random.default_rng(seed)
    a = np.sqrt(6.0 / (d_f + d))
    w1 = rng.uniform(-a, a, size=(d_f, d))
    return Model(w1, w2, space.labels, space.S, np.zeros((d_f, 4 * space.S)),
                 np.zeros(4 * space.S), mode)


def forward_scores(model: Model, feature: np.ndarray) -> np.ndarray:
    """Raw alignment scores ``o = (W1 W2)^T f`` for all C+1 labels.

    Accepts a single feature (d_f,) or a batch (n, d_f); the score axis is
    always the last one.
    """
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape[-1] != model.d_f:
        raise ConfigError(f"feature length {feature.shape[-1]} != d_f {model.d_f}")
    return (feature @ model.w1) @ model.w2


def feature_norms(features: np.ndarray) -> np.ndarray:
    """L2 norms over the last axis (kept).  A row whose ``np.linalg.norm`` is
    inf or below 1e-150, where its squares over- or underflow, takes
    ``m * norm(f / m)`` with m its largest ``|entry|``; other rows keep their
    ``np.linalg.norm`` bits, and an all-zero row has norm 0."""
    f = np.asarray(features, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(f, axis=-1, keepdims=True)
    redo = (norms < 1e-150) | (norms == np.inf)
    if redo.any():
        m = np.abs(f).max(axis=-1, keepdims=True)
        rescaled = m * np.linalg.norm(f / np.where(m > 0.0, m, 1.0), axis=-1, keepdims=True)
        norms = np.where(redo, rescaled, norms)
    return norms


def normalized_scores(model: Model, feature: np.ndarray) -> np.ndarray:
    """Cosine-style normalization ``o_c / (‖v_c‖ ‖f‖)`` of the scores ``o``
    of :func:`forward_scores`.

    Accepts one feature (d_f,), giving a (C+1,) row, or a batch (n, d_f),
    giving (n, C+1); the feature norm is taken over the last axis by
    :func:`feature_norms`.  Uses each W2 column's actual stored norm; the
    background column's norm is its true (<=1) value, not 1.
    """
    o = forward_scores(model, feature)
    fnorm = feature_norms(feature)
    if np.any(fnorm == 0.0):
        raise ConfigError("cannot normalize scores for a zero feature")
    return o / (model.col_norms * fnorm)


def forward_boxes(model: Model, feature: np.ndarray) -> np.ndarray:
    """Per-seen-class box offsets, flat length 4S, grouped (tx,ty,tw,th)."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape[-1] != model.d_f:
        raise ConfigError(f"feature length {feature.shape[-1]} != d_f {model.d_f}")
    return feature @ model.box_w + model.box_b


def encode_boxes(boxes: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Parameterize target boxes against anchors: (dx/w, dy/h, log w, log h)."""
    boxes = np.asarray(boxes, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    aw = anchors[..., 2] - anchors[..., 0]
    ah = anchors[..., 3] - anchors[..., 1]
    ax = anchors[..., 0] + 0.5 * aw
    ay = anchors[..., 1] + 0.5 * ah
    bw = boxes[..., 2] - boxes[..., 0]
    bh = boxes[..., 3] - boxes[..., 1]
    bx = boxes[..., 0] + 0.5 * bw
    by = boxes[..., 1] + 0.5 * bh
    if np.any(aw <= 0) or np.any(ah <= 0) or np.any(bw <= 0) or np.any(bh <= 0):
        raise ConfigError("boxes must be well-ordered with positive width/height")
    return np.stack(
        [(bx - ax) / aw, (by - ay) / ah, np.log(bw / aw), np.log(bh / ah)], axis=-1
    )


# Largest log-scale offset applied when decoding (Faster R-CNN's bound), so a
# box grows at most 62.5x its anchor and stays finite.
BOX_SCALE_CLAMP = math.log(1000.0 / 16)


def decode_boxes(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Invert :func:`encode_boxes`: apply offsets to anchors.

    ``dw`` and ``dh`` are clamped from above at :data:`BOX_SCALE_CLAMP`, so
    the decoded box is finite for any finite offsets.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    size = anchors[..., 2:4] - anchors[..., 0:2]
    center = deltas[..., 0:2] * size + (anchors[..., 0:2] + 0.5 * size)
    half = 0.5 * (np.exp(np.minimum(deltas[..., 2:4], BOX_SCALE_CLAMP)) * size)
    return np.concatenate([center - half, center + half], axis=-1)


def save_checkpoint(model: Model, path: str | os.PathLike) -> None:
    """Serialize the trainable state (W2 is rebuilt from embeddings).

    The file is in the layout of :mod:`zsdet.codec`: a header line holding
    ``d_f, d, S, U, labels, mode``, then the blocks ``W1``, ``box_weights``
    and ``box_bias``, in that order.
    """
    head = {"d_f": model.d_f, "d": model.d, "S": model.n_seen, "U": model.n_unseen,
            "labels": list(model.labels), "mode": model.mode}
    write_blocks(path, head, (model.w1, model.box_w, model.box_b))


_HEADER_KEYS = ("d_f", "d", "S", "U", "labels", "mode")


def load_checkpoint(path: str | os.PathLike, table: EmbeddingTable) -> Model:
    """Rebuild a model from a checkpoint plus the embedding table.

    The file is read once.  The table may be in any order: the checkpoint's
    labels set the model's class ids, and W2 is ``table.w2(labels)``.  A file
    that is not a complete checkpoint in the current format (a header line
    with exactly the keys of ``save_checkpoint``, then exactly the three
    array blocks), or whose ``W1``, ``box_weights`` or ``box_bias`` holds a
    non-finite value, raises :class:`ParseError`.
    """
    with open(path, "rb") as f:
        head = read_header(f, "checkpoint")
        if set(head) != set(_HEADER_KEYS):
            raise ParseError(
                f"checkpoint header has keys {', '.join(head) or 'none'}, expected "
                f"{', '.join(_HEADER_KEYS)}; re-run `zsdet train` to write a current checkpoint"
            )
        labels, d_f, d, s, u = (head[k] for k in ("labels", "d_f", "d", "S", "U"))
        # ``type(...) is int`` refuses JSON ``true`` and ``2.0``, which ``isinstance``
        # or ``==`` would take for counts
        if not (isinstance(labels, list) and all(isinstance(l, str) for l in labels)
                and type(s) is int and 0 <= s <= len(labels)
                and type(u) is int and u == len(labels) - s):
            raise ParseError(
                "checkpoint labels must be a list of names, S a count within it and U the rest"
            )
        if not (type(d_f) is int and d_f > 0 and type(d) is int and d > 0):
            raise ParseError("checkpoint d_f and d must be positive integers")
        if head["mode"] not in MODES:
            raise ParseError(f"checkpoint mode must be one of {MODES}, got {head['mode']!r}")
        shapes = {"W1": (d_f, d), "box_weights": (d_f, 4 * s), "box_bias": (4 * s,)}
        arrays = read_blocks(f, "checkpoint", shapes)
    if table.d != d:
        raise ConfigError(f"table dimensionality {table.d} != checkpoint d {d}")
    for key, a in zip(shapes, arrays):
        finite = np.isfinite(a)
        if not finite.all():
            at = np.unravel_index(np.argmin(finite), a.shape)
            raise ParseError(f"checkpoint {key} has a non-finite value at {tuple(map(int, at))}")
    w1, box_w, box_b = arrays
    return Model(w1, table.w2(labels), tuple(labels), s, box_w, box_b, head["mode"])


def modified_embeddings(model: Model) -> np.ndarray:
    """Columns ``W1 v_c`` for the C classes (background excluded), shape (d_f, C)."""
    return model.w1 @ model.w2[:, : model.n_classes]
