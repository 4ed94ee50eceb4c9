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

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CoverageError, NormalizationError, ParseError, ShapeError
from .semantics import EmbeddingTable, LabelSpace

if TYPE_CHECKING:
    from .train import TrainConfig


@dataclass
class RegionSample:
    """One labeled proposal: feature vector, box, and (for training) target.

    ``label`` is a class id in S' during training and None at test time.
    ``gt_box`` is the matched ground-truth box for foreground samples and
    None for background; it is the regression target.
    """

    feature: np.ndarray
    box: np.ndarray
    label: int | None = None
    image_id: str = ""
    gt_box: np.ndarray | None = None


@dataclass
class Model:
    """Adjustable projection + box head over fixed semantic embeddings.

    ``w2`` has shape (d, C+1) with the background mean vector as the last
    column; ``col_norms`` caches the column norms used by score
    normalization (1.0 for classes, <=1 for the background).
    """

    w1: np.ndarray
    w2: np.ndarray
    col_norms: np.ndarray
    labels: tuple[str, ...]
    n_seen: int
    n_unseen: int
    box_w: np.ndarray
    box_b: np.ndarray
    config: "TrainConfig"

    @property
    def d_f(self) -> int:
        return self.w1.shape[0]

    @property
    def d(self) -> int:
        return self.w1.shape[1]

    @property
    def n_classes(self) -> int:
        return self.w2.shape[1] - 1


def init_model(
    config: "TrainConfig",
    table: EmbeddingTable,
    space: LabelSpace,
    d_f: int,
    seed: int | None = None,
) -> Model:
    """Fresh model: Glorot-uniform W1, zero box head, W2 frozen from the table.

    ``table`` must be finalized and ordered by class id (seen, unseen).
    Bit-reproducible for a given seed (defaults to ``config.seed``).
    """
    if table.labels != space.labels:
        raise CoverageError("embedding table must be reordered to label-space id order")
    rng = np.random.default_rng(config.seed if seed is None else seed)
    d = table.d
    a = np.sqrt(6.0 / (d_f + d))
    w1 = rng.uniform(-a, a, size=(d_f, d))
    w2 = table.w2()
    return Model(
        w1=w1,
        w2=w2,
        col_norms=np.linalg.norm(w2, axis=0),
        labels=table.labels,
        n_seen=space.S,
        n_unseen=space.U,
        box_w=np.zeros((d_f, 4 * space.S)),
        box_b=np.zeros(4 * space.S),
        config=config,
    )


def forward_scores(model: Model, feature: np.ndarray) -> np.ndarray:
    """Raw alignment scores ``o = (W1 W2)^T f`` for all C+1 labels.

    Accepts a single feature (d_f,) or a batch (n, d_f); the score axis is
    always the last one.
    """
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape[-1] != model.d_f:
        raise ShapeError(f"feature length {feature.shape[-1]} != d_f {model.d_f}")
    return (feature @ model.w1) @ model.w2


def normalized_scores(model: Model, o: np.ndarray, feature: np.ndarray) -> np.ndarray:
    """Cosine-style normalization ``o_c / (‖v_c‖ ‖f‖)``.

    Uses each W2 column's actual stored norm; the background column's norm
    is its true (<=1) value, not 1.
    """
    o = np.asarray(o, dtype=np.float64)
    if o.shape[-1] != model.w2.shape[1]:
        raise ShapeError(f"score length {o.shape[-1]} != C+1 {model.w2.shape[1]}")
    fnorm = float(np.linalg.norm(feature))
    if fnorm == 0.0:
        raise NormalizationError("cannot normalize scores for a zero feature")
    return o / (model.col_norms * fnorm)


def forward_boxes(model: Model, feature: np.ndarray) -> np.ndarray:
    """Per-seen-class box offsets, flat length 4S, grouped (tx,ty,tw,th)."""
    feature = np.asarray(feature, dtype=np.float64)
    if feature.shape[-1] != model.d_f:
        raise ShapeError(f"feature length {feature.shape[-1]} != d_f {model.d_f}")
    return feature @ model.box_w + model.box_b


def box_slice(class_id: int) -> slice:
    """Offset slice of a seen class in the flat 4S box output (ids 1-based)."""
    return slice(4 * (class_id - 1), 4 * class_id)


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
        raise ShapeError("boxes must be well-ordered with positive width/height")
    return np.stack(
        [(bx - ax) / aw, (by - ay) / ah, np.log(bw / aw), np.log(bh / ah)], axis=-1
    )


def decode_boxes(anchors: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Invert :func:`encode_boxes`: apply offsets to anchors."""
    anchors = np.asarray(anchors, dtype=np.float64)
    deltas = np.asarray(deltas, dtype=np.float64)
    aw = anchors[..., 2] - anchors[..., 0]
    ah = anchors[..., 3] - anchors[..., 1]
    ax = anchors[..., 0] + 0.5 * aw
    ay = anchors[..., 1] + 0.5 * ah
    bx = deltas[..., 0] * aw + ax
    by = deltas[..., 1] * ah + ay
    bw = np.exp(deltas[..., 2]) * aw
    bh = np.exp(deltas[..., 3]) * ah
    return np.stack(
        [bx - 0.5 * bw, by - 0.5 * bh, bx + 0.5 * bw, by + 0.5 * bh], axis=-1
    )


def save_checkpoint(model: Model, path: str | os.PathLike) -> None:
    """Serialize the trainable state to JSON (W2 is rebuilt from embeddings)."""
    from dataclasses import asdict

    payload = {
        "d_f": model.d_f,
        "d": model.d,
        "C": model.n_classes,
        "S": model.n_seen,
        "U": model.n_unseen,
        "labels": list(model.labels),
        "W1": model.w1.ravel(order="C").tolist(),
        "box_weights": model.box_w.ravel(order="C").tolist(),
        "box_bias": model.box_b.tolist(),
        "config": asdict(model.config),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.write("\n")


_CHECKPOINT_KEYS = ("d_f", "d", "S", "U", "labels", "W1", "box_weights", "box_bias", "config")


def _read_checkpoint(path: str | os.PathLike) -> dict:
    with open(path, encoding="utf-8") as f:
        try:
            payload = json.load(f)
        except ValueError as exc:
            raise ParseError(f"invalid checkpoint JSON: {exc}")
    if not isinstance(payload, dict):
        raise ParseError("checkpoint must be a JSON object")
    missing = [k for k in _CHECKPOINT_KEYS if k not in payload]
    if missing:
        raise ParseError(f"checkpoint is missing {', '.join(missing)}")
    labels, s = payload["labels"], payload["S"]
    if not (isinstance(labels, list) and all(isinstance(l, str) for l in labels)
            and isinstance(s, int) and 0 <= s <= len(labels)):
        raise ParseError("checkpoint labels must be a list of names and S a count within it")
    return payload


def checkpoint_labels(path: str | os.PathLike) -> tuple[tuple[str, ...], int]:
    """Class labels in id order and the seen-class count S of a checkpoint."""
    payload = _read_checkpoint(path)
    return tuple(payload["labels"]), payload["S"]


def load_checkpoint(path: str | os.PathLike, table: EmbeddingTable) -> Model:
    """Rebuild a model from a checkpoint plus the finalized, id-ordered table.

    A file that is not a complete checkpoint raises :class:`ParseError`.
    """
    from .train import TrainConfig

    payload = _read_checkpoint(path)
    labels = tuple(payload["labels"])
    if labels != table.labels:
        raise CoverageError("checkpoint labels do not match the embedding table order")
    d_f, d = payload["d_f"], payload["d"]
    s = payload["S"]
    if table.d != d:
        raise ShapeError(f"table dimensionality {table.d} != checkpoint d {d}")
    w2 = table.w2()
    try:
        return Model(
            w1=np.array(payload["W1"], dtype=np.float64).reshape(d_f, d),
            w2=w2,
            col_norms=np.linalg.norm(w2, axis=0),
            labels=labels,
            n_seen=s,
            n_unseen=payload["U"],
            box_w=np.array(payload["box_weights"], dtype=np.float64).reshape(d_f, 4 * s),
            box_b=np.array(payload["box_bias"], dtype=np.float64).reshape(4 * s),
            config=TrainConfig(**payload["config"]),
        )
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed checkpoint: {exc}")


def modified_embeddings(model: Model) -> np.ndarray:
    """Columns ``W1 v_c`` for the C classes (background excluded), shape (d_f, C)."""
    return model.w1 @ model.w2[:, : model.n_classes]
