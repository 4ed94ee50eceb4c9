"""Test-time prediction paths.

Each image is scored as one batch: its :class:`~zsdet.data.Proposals`
matrix ``features (P, d_f)`` is taken as it is, rows whose feature is all
zero are dropped (they cannot be normalized and count as background), and
one normalized ``(P, C+1)`` score matrix feeds the route.  Two routes read
it, each returning the image's :class:`Detections`:

* :func:`detect` - for models trained with unseen embeddings in place: a
  proposal whose top normalized score is background is discarded; otherwise
  the best unseen class is emitted iff its score is strictly above the
  threshold, with the box decoded from the offsets of the best *seen* class
  (no boxes are ever regressed for unseen classes).
* :func:`conse_detect` - for seen-only checkpoints: the proposal is
  projected into semantic space as the top-K score-weighted sum of seen
  class vectors and classified by cosine against the unseen vectors.

:func:`tag_image` takes the column maximum of the same matrix, a ``(U,)``
row of one score per unseen class (meta-classes are
:mod:`zsdet.evaluation`'s).  Ties break toward the lowest class id
everywhere.  Before results are returned, one label-aware NMS pass over
the image's detections (at ``NMS_IOU``) lets a box suppress only boxes of
its own class.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import ConfigError, check_finite
from .evaluation import nms
from .model import Model, decode_boxes, forward_boxes, forward_scores, normalized_scores
from .semantics import LabelSpace

if TYPE_CHECKING:
    from .data import Proposals

# The IoU of the per-image NMS that the pipeline runs (the reference protocol's).
NMS_IOU = 0.5


@dataclass(frozen=True)
class Detections:
    """One image's detections as aligned rows: unseen class ids
    ``labels (n,)``, ``scores (n,)`` and decoded ``boxes (n, 4)``."""

    image_id: str
    labels: np.ndarray
    scores: np.ndarray
    boxes: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, rows: np.ndarray) -> "Detections":
        """The detections ``rows``, in that order."""
        return Detections(self.image_id, self.labels[rows], self.scores[rows], self.boxes[rows])


def _scored(
    model: Model, proposals: "Proposals"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(features, boxes, scores)`` of the proposals with a nonzero feature,
    in proposal order; ``scores`` is the normalized ``(n, C+1)`` matrix.
    All-zero rows are dropped, so they are background everywhere."""
    valid = proposals.features.any(axis=1)
    features, boxes = proposals.features[valid], proposals.boxes[valid]
    return features, boxes, normalized_scores(model, forward_scores(model, features), features)


def _emit(
    model: Model, image_id: str, labels: np.ndarray, values: np.ndarray,
    features: np.ndarray, scores: np.ndarray, boxes: np.ndarray,
) -> Detections:
    """The rows as detections, each box decoded with the offsets of the row's
    highest-scoring seen class, then label-aware NMS at ``NMS_IOU``."""
    n = len(features)
    s_star = np.argmax(scores[:, : model.n_seen], axis=1)
    offsets = forward_boxes(model, features).reshape(n, model.n_seen, 4)
    out = Detections(image_id, labels, values, decode_boxes(boxes, offsets[np.arange(n), s_star]))
    return out.take(nms(out, NMS_IOU)) if n else out


def detect(
    model: Model,
    space: LabelSpace,
    proposals: "Proposals",
    image_id: str,
    alpha: float,
) -> Detections:
    """Unseen-class detections for one image's proposals.

    Emits a detection only when the background is not the top label and the
    best unseen normalized score is strictly above ``alpha``, which must be
    finite.
    """
    check_finite("alpha", alpha)
    features, boxes, scores = _scored(model, proposals)
    s, c = space.S, space.C
    u_cols = s + np.argmax(scores[:, s:c], axis=1)
    u_scores = scores[np.arange(len(scores)), u_cols]
    rows = np.flatnonzero(
        (np.argmax(scores, axis=1) != space.bg_id - 1) & (u_scores > alpha)
    )
    return _emit(model, image_id, u_cols[rows] + 1, u_scores[rows],
                 features[rows], scores[rows], boxes[rows])


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
) -> Detections:
    """ConSE-style detections: classify the projected proposal by cosine.

    Reads only seen and background score entries, so it works with any
    checkpoint regardless of training mode.  A proposal is dropped when the
    background outranks every seen class or its projection is zero.  ``k``
    and ``alpha`` are checked before any proposal is scored.
    """
    s = space.S
    check_k(k, s)
    check_finite("alpha", alpha)
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
    return _emit(model, image_id, s + u_idx[hit] + 1, u_scores[hit],
                 features[rows], scores[rows], boxes[rows])


def tag_image(
    model: Model,
    space: LabelSpace,
    proposals: "Proposals",
) -> np.ndarray:
    """Image-level scores ``(U,)``, column ``k`` for unseen class id
    ``S + 1 + k``: the max over proposals.

    No threshold is applied; the scores feed average precision directly.
    All-zero proposals are skipped; with no usable proposal all scores are 0.
    """
    _, _, scores = _scored(model, proposals)
    return scores[:, space.S : space.C].max(axis=0) if len(scores) else np.zeros(space.U)


def dump_detections(
    detections: Sequence[Detections], path: str | os.PathLike, space: LabelSpace
) -> None:
    """Write the JSON-lines detection dump, one object per detection, with
    the bytes ``json.dumps`` gives each record: strings are encoded once, and
    floats take ``repr`` (``json.dumps`` in an image with a non-finite value)."""
    names = {cid: json.dumps(space.label_of(cid)) for cid in range(1, space.bg_id + 1)}
    with open(path, "w", encoding="utf-8") as f:
        for d in detections:
            head = '{"image_id": ' + json.dumps(d.image_id) + ', "label": '
            finite = np.isfinite(d.scores).all() and np.isfinite(d.boxes).all()
            num = repr if finite else json.dumps
            f.writelines(
                f'{head}{names[label]}, "score": {num(score)}, '
                f'"box": [{num(x1)}, {num(y1)}, {num(x2)}, {num(y2)}]}}\n'
                for label, score, (x1, y1, x2, y2) in zip(
                    d.labels.tolist(), d.scores.tolist(), d.boxes.tolist())
            )
