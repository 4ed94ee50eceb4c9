"""Test-time prediction paths.

Each image is scored as one batch: its :class:`~zsdet.data.Proposals`
matrix ``features (P, d_f)`` is taken as it is, rows with a zero-norm
feature are dropped (they cannot be normalized and count as background),
and one normalized ``(P, C+1)`` score matrix feeds the route.  Two routes
read it:

* :func:`detect` - for models trained with unseen embeddings in place: a
  proposal whose top normalized score is background is discarded; otherwise
  the best unseen class is emitted iff its score is strictly above the
  threshold, with the box decoded from the offsets of the best *seen* class
  (no boxes are ever regressed for unseen classes).
* :func:`conse_detect` - for seen-only checkpoints: the proposal is
  projected into semantic space as the top-K score-weighted sum of seen
  class vectors and classified by cosine against the unseen vectors.

:func:`tag_image` takes the column maximum of the same matrix, one score per
unseen class (meta-classes are :mod:`zsdet.evaluation`'s).  Ties break
toward the lowest class id everywhere.  Before results are returned, one
label-aware NMS pass over the image's detections (default IoU 0.5) lets a
box suppress only boxes of its own class; pass ``nms_iou=0`` to disable it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .codec import utf8_lines
from .errors import ConfigError, ParseError, check_finite, check_unit_interval
from .evaluation import nms
from .model import Model, decode_boxes, forward_boxes, forward_scores, normalized_scores
from .semantics import LabelSpace

if TYPE_CHECKING:
    from .data import Proposals


@dataclass(frozen=True)
class Detection:
    """One emitted detection; ``label`` is an unseen class id."""

    image_id: str
    label: int
    score: float
    box: np.ndarray


def _scored(
    model: Model, proposals: "Proposals"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(features, boxes, scores)`` of the proposals with a nonzero feature.

    Rows keep proposal order; ``scores`` is the normalized ``(n, C+1)``
    matrix.  Zero-norm rows are dropped, so they are background everywhere.
    """
    valid = np.linalg.norm(proposals.features, axis=1) != 0.0
    features, boxes = proposals.features[valid], proposals.boxes[valid]
    return features, boxes, normalized_scores(model, forward_scores(model, features), features)


def _emit(
    model: Model, image_id: str, labels: np.ndarray, values: np.ndarray,
    features: np.ndarray, scores: np.ndarray, boxes: np.ndarray,
) -> list[Detection]:
    """One detection per row, its box decoded with the offsets of the row's
    highest-scoring seen class."""
    n = len(features)
    s_star = np.argmax(scores[:, : model.n_seen], axis=1)
    offsets = forward_boxes(model, features).reshape(n, model.n_seen, 4)
    decoded = decode_boxes(boxes, offsets[np.arange(n), s_star])
    return [
        Detection(image_id, int(label), float(value), box)
        for label, value, box in zip(labels, values, decoded)
    ]


def detect(
    model: Model,
    space: LabelSpace,
    proposals: "Proposals",
    image_id: str,
    alpha: float,
    nms_iou: float = 0.5,
) -> list[Detection]:
    """Unseen-class detections for one image's proposals.

    Emits a detection only when the background is not the top label and the
    best unseen normalized score is strictly above ``alpha``.  ``alpha``
    must be finite and ``nms_iou`` a finite number in [0, 1].
    """
    check_finite("alpha", alpha)
    check_unit_interval("nms_iou", nms_iou)
    features, boxes, scores = _scored(model, proposals)
    s, c = space.S, space.C
    u_cols = s + np.argmax(scores[:, s:c], axis=1)
    u_scores = scores[np.arange(len(scores)), u_cols]
    rows = np.flatnonzero(
        (np.argmax(scores, axis=1) != space.bg_id - 1) & (u_scores > alpha)
    )
    out = _emit(model, image_id, u_cols[rows] + 1, u_scores[rows],
                features[rows], scores[rows], boxes[rows])
    return nms(out, nms_iou) if nms_iou > 0.0 and out else out


def check_k(k: int, n_seen: int) -> None:
    """Raise :class:`ConfigError` unless the ConSE top-K is in ``1..n_seen``."""
    if not 1 <= k <= n_seen:
        raise ConfigError(f"K must be in 1..{n_seen}, got {k}")


def conse_project(
    seen_scores: np.ndarray, seen_vectors: np.ndarray, k: int
) -> np.ndarray:
    """Top-K score-weighted sum of seen class vectors.

    ``seen_scores`` is one score row (S,) or a batch of rows (n, S);
    ``seen_vectors`` holds one column per seen class, and the result is
    (d,) or (n, d).  Sorting is stable with ties broken toward the lower
    class id; background never enters the list (its column is a mean, not
    a class).
    """
    seen_scores = np.asarray(seen_scores, dtype=np.float64)
    check_k(k, seen_scores.shape[-1])
    top = np.argsort(-seen_scores, axis=-1, kind="stable")[..., :k]
    weights = np.zeros_like(seen_scores)
    np.put_along_axis(weights, top, np.take_along_axis(seen_scores, top, axis=-1), axis=-1)
    return weights @ seen_vectors.T


def conse_detect(
    model: Model,
    space: LabelSpace,
    proposals: "Proposals",
    image_id: str,
    k: int = 10,
    alpha: float = 0.1,
    nms_iou: float = 0.5,
) -> list[Detection]:
    """ConSE-style detections: classify the projected proposal by cosine.

    Reads only seen and background score entries, so it works with any
    checkpoint regardless of training mode.  A proposal is dropped when the
    background outranks every seen class or its projection is zero.  ``k``,
    ``alpha`` and ``nms_iou`` (in [0, 1]) are checked before any proposal is
    scored.
    """
    s = space.S
    check_k(k, s)
    check_finite("alpha", alpha)
    check_unit_interval("nms_iou", nms_iou)
    features, boxes, scores = _scored(model, proposals)
    rows = np.flatnonzero(~(scores[:, space.bg_id - 1] > scores[:, :s].max(axis=1)))
    e = conse_project(scores[rows, :s], model.w2[:, :s], k)
    e_norm = np.linalg.norm(e, axis=1)
    nonzero = e_norm != 0.0
    rows, e, e_norm = rows[nonzero], e[nonzero], e_norm[nonzero]
    u_cols = np.arange(s, space.C)
    cos = (e @ model.w2[:, u_cols]) / (e_norm[:, None] * model.col_norms[u_cols])
    u_idx = np.argmax(cos, axis=1)
    u_scores = cos[np.arange(len(rows)), u_idx]
    hit = u_scores > alpha
    rows = rows[hit]
    out = _emit(model, image_id, s + u_idx[hit] + 1, u_scores[hit],
                features[rows], scores[rows], boxes[rows])
    return nms(out, nms_iou) if nms_iou > 0.0 and out else out


def tag_image(
    model: Model,
    space: LabelSpace,
    proposals: "Proposals",
) -> dict[int, float]:
    """Image-level score per unseen class id: max over proposals.

    No threshold is applied; the scores feed average precision directly.
    Zero-norm proposals are skipped; with no usable proposal all scores are 0.
    """
    s, c = space.S, space.C
    _, _, scores = _scored(model, proposals)
    best = scores[:, s:c].max(axis=0) if len(scores) else np.zeros(c - s)
    return {s + i + 1: float(best[i]) for i in range(c - s)}


def recognize_top1(
    model: Model, space: LabelSpace, proposals: "Proposals"
) -> int:
    """Single best unseen class for an image; ties go to the lowest id."""
    tags = tag_image(model, space, proposals)
    best_id, best_score = None, -np.inf
    for cid in sorted(tags):
        if tags[cid] > best_score:
            best_id, best_score = cid, tags[cid]
    return int(best_id)


def dump_detections(
    detections: Sequence[Detection], path: str | os.PathLike, space: LabelSpace
) -> None:
    """Write the JSON-lines detection dump, one object per detection."""
    with open(path, "w", encoding="utf-8") as f:
        for d in detections:
            rec = {
                "image_id": d.image_id,
                "label": space.label_of(d.label),
                "score": d.score,
                "box": [float(v) for v in d.box],
            }
            f.write(json.dumps(rec) + "\n")


def load_detections(path: str | os.PathLike, space: LabelSpace) -> list[Detection]:
    """Reader for :func:`dump_detections`.

    Each line must be a JSON object with a known label, a finite score and a
    box of exactly 4 finite numbers, or :class:`ParseError` names the line.
    Boxes need not be ordered: a decoded box can be degenerate.
    """
    out = []
    for lineno, line in utf8_lines(path):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ParseError("detection record must be a JSON object", lineno)
            image_id, label = str(rec["image_id"]), space.id_of(rec["label"])
            score, box = float(rec["score"]), np.array(rec["box"], dtype=np.float64)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad detection record: {exc}", lineno)
        if not math.isfinite(score):
            raise ParseError(f"detection score must be finite, got {score}", lineno)
        if box.shape != (4,) or not np.isfinite(box).all():
            raise ParseError("detection box must be 4 finite numbers", lineno)
        out.append(Detection(image_id, label, score, box))
    return out
