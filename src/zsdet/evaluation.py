"""Detection geometry and the four-task evaluation protocol.

Average precision uses all-points interpolation (precision envelope) with
greedy score-ordered matching: each detection matches the highest-IoU
still-unmatched ground truth in its image at or above the IoU threshold.
Classes without any ground truth are excluded from the mean.

Tasks:
  T1  per-unseen-class box AP (zero-shot detection)
  T2  boxes relabeled to meta-classes (zero-shot meta-class detection)
  T3  image-level AP per unseen class from tag scores (zero-shot tagging)
  T4  image-level AP per meta-class (zero-shot meta-class tagging)

Every input is a set of aligned array rows: ground truths as ``(image_ids,
class ids, boxes)``, detections as per-image :class:`~zsdet.infer.Detections`
and tags as one ``(images, U)`` score matrix.  One relabel map takes each
unseen class id to itself (T1/T3) or to its meta-class (T2/T4), on both the
ground-truth and the model side.  For tagging, a label is a positive for an
image iff the image has at least one ground truth of that label; a meta tag
score is the max over the meta's unseen members.  These readings are echoed
in the report metadata.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .errors import ConfigError
from .semantics import LabelSpace

if TYPE_CHECKING:
    from .infer import Detections

# The IoU at or above which a detection matches a ground truth (the reference
# protocol's).
EVAL_IOU = 0.5
TASKS = ("T1", "T2", "T3", "T4")
TASK_NAMES = {
    "T1": "ZSD",
    "T2": "ZSMD",
    "T3": "ZST",
    "T4": "ZSMT",
}


@dataclass(frozen=True)
class ApRow:
    label: int
    name: str
    ap: float
    n_gt: int
    n_det: int


@dataclass(frozen=True)
class DetectionReport:
    """Per-class AP table plus the task mAP and evaluation settings."""

    task: str
    rows: list[ApRow]
    mean_ap: float
    meta: dict = field(default_factory=dict)


def _box_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of the boxes in ``a[..., :4]`` with those in ``b[..., :4]``, under
    broadcasting.  No overlap, a degenerate box or a zero union gives 0.

    Sides and areas past the float range (coordinates beyond about 1e154)
    overflow to inf without a warning, and the IoU is then IEEE's: 0 when
    only the union is infinite, NaN when the intersection is too.  NMS counts
    a NaN IoU as an overlap, and AP matching as a miss."""
    with np.errstate(over="ignore", invalid="ignore"):
        iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
        ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
        inter = iw * ih
        union = (
            (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
            + (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
            - inter
        )
    zero = (iw <= 0.0) | (ih <= 0.0) | (union <= 0.0)
    return np.divide(inter, union, out=np.zeros_like(inter), where=~zero)


def iou_matrix(boxes_a, boxes_b) -> np.ndarray:
    """``(n, m)`` IoU of every box in ``boxes_a`` (n, 4) with every box in
    ``boxes_b`` (m, 4).

    Entry ``[i, j]`` is bit for bit the IoU that :func:`average_precision`
    computes for the pair ``(boxes_a[i], boxes_b[j])``: both run the same
    elementwise operations in the same order.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    return _box_iou(a[:, None, :], b[None, :, :])


def nms(detections: "Detections", iou_thresh: float) -> np.ndarray:
    """Greedy label-aware suppression over one image's detections; returns
    the kept row indices.

    Visits detections by descending score, ties by ascending row.  A
    detection is kept iff its IoU with every box of its own label kept
    before it is ``<= iou_thresh``; labels never suppress each other.  The
    kept rows are ordered by ascending label, and within a label by
    descending score, so the result equals one greedy pass per label.
    """
    labels = detections.labels
    # column k: the other boxes a kept box k suppresses; "not <=" keeps the
    # rule above exact when an IoU is NaN
    suppresses = ~(iou_matrix(detections.boxes, detections.boxes) <= iou_thresh)
    suppresses &= labels[:, None] == labels[None, :]
    np.fill_diagonal(suppresses, False)
    order = np.argsort(-detections.scores, kind="stable")
    keep = np.ones(len(detections), dtype=bool)
    # a box that suppresses nothing changes nothing when visited, so the
    # greedy pass visits only the others
    for idx in order[suppresses.any(axis=0)[order]]:
        if keep[idx]:
            keep &= ~suppresses[:, idx]
    kept = order[keep[order]]
    return kept[np.argsort(labels[kept], kind="stable")]


def average_precision(
    image_ids: Sequence[str],
    scores: np.ndarray,
    boxes: np.ndarray,
    gt_image_ids: Sequence[str],
    gt_boxes: np.ndarray,
    iou_thresh: float,
) -> float:
    """All-points interpolated AP for a single class over its detections'
    aligned rows ``image_ids (n,)``, ``scores (n,)`` and ``boxes (n, 4)``
    against its ground truths' rows ``gt_image_ids (g,)`` and ``gt_boxes
    (g, 4)``; score ties rank by row.  Raises ValueError when there is no
    ground truth; such classes are excluded from mAP by :func:`evaluate`."""
    n_gt = len(gt_image_ids)
    if not n_gt:
        raise ValueError("average precision is undefined with zero ground truths")
    if not len(scores):
        return 0.0

    gt_by_image: dict[str, list[int]] = {}
    for gi, image_id in enumerate(gt_image_ids):
        gt_by_image.setdefault(image_id, []).append(gi)
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    # every same-image (detection, ground truth) pair, by rank then gt index
    ranked_ids = np.asarray(image_ids, dtype=object)[order].tolist()
    candidates = [gt_by_image.get(image_id, ()) for image_id in ranked_ids]
    pair_det = np.repeat(order, [len(c) for c in candidates])
    pair_gt = np.fromiter(chain.from_iterable(candidates), dtype=np.intp, count=pair_det.size)
    det_boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    overlaps = iter(_box_iou(det_boxes[pair_det], gt_boxes[pair_gt]).tolist())

    matched = [False] * n_gt
    hits = []
    for gis in candidates:
        best_iou, best_gi = 0.0, -1
        for gi, overlap in zip(gis, overlaps):
            if not matched[gi] and overlap >= iou_thresh and overlap > best_iou:
                best_iou, best_gi = overlap, gi
        if best_gi >= 0:
            matched[best_gi] = True
        hits.append(best_gi >= 0)
    return _ranking_ap(hits, n_gt)


def _envelope_area(recall: np.ndarray, precision: np.ndarray) -> float:
    """Area under the precision envelope over recall (all-points rule)."""
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def _ranking_ap(ranked_positive_flags: Sequence[bool], n_pos: int) -> float:
    """AP of a ranked list of hit flags against ``n_pos`` positives."""
    if n_pos == 0:
        raise ValueError("undefined with zero positives")
    if not ranked_positive_flags:
        return 0.0
    flags = np.asarray(ranked_positive_flags, dtype=np.float64)
    cum_tp = np.cumsum(flags)
    cum_n = np.arange(1, flags.size + 1)
    recall = cum_tp / n_pos
    precision = cum_tp / cum_n
    return _envelope_area(recall, precision)


def _flat(detections: Sequence["Detections"], relabel: Mapping[int, int]) -> tuple:
    """``(image_ids, labels, scores, boxes)``: the images' detections as one
    set of rows, images in order and each in its own row order, with labels
    mapped by ``relabel``; a label missing from ``relabel`` raises KeyError."""
    classes, at = np.unique(np.concatenate([np.empty(0, np.intp), *(d.labels for d in detections)]),
                            return_inverse=True)
    return (
        np.repeat(np.array([d.image_id for d in detections], dtype=object),
                  [len(d) for d in detections]),
        np.array([relabel[c] for c in classes.tolist()], dtype=np.intp)[at],
        np.concatenate([np.empty(0), *(d.scores for d in detections)]),
        np.concatenate([np.empty((0, 4)), *(d.boxes for d in detections)]),
    )


def evaluate(
    model_outputs,
    ground_truths: tuple,
    space: LabelSpace,
    task: str,
) -> DetectionReport:
    """Score one task.

    ``ground_truths`` are the rows ``(image_ids (g,), class ids (g,), boxes
    (g, 4))`` of :func:`zsdet.data.ground_truth_rows`; those of seen classes
    are ignored.  T1/T2 take a sequence of per-image unseen-class
    :class:`Detections`, ranked as one list (images in order, score ties by
    position); a detection whose label is not an unseen class id raises
    :class:`ConfigError`.  T3/T4 take ``(image_ids (n,), tags (n, U))``, one
    row of unseen-class tag scores per image (column ``k`` for class id
    ``S + 1 + k``), ranked by a stable sort on score; tags of another shape
    raise :class:`ConfigError`.  Both sides go through the relabel map (T2/T4:
    to meta ids).  A box matches at IoU ``EVAL_IOU`` or above.
    """
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")
    boxes, to_meta = task in ("T1", "T2"), task in ("T2", "T4")
    relabel = {cid: space.meta_of(cid) if to_meta else cid for cid in space.unseen_ids}
    name_of = space.meta_label_of if to_meta else space.label_of
    gt_image_ids, gt_classes, gt_boxes = ground_truths
    gt_labels = np.array([relabel.get(c, 0) for c in gt_classes.tolist()], dtype=np.intp)
    if boxes:
        try:
            image_ids, labels, scores, det_boxes = _flat(model_outputs, relabel)
        except KeyError as exc:
            raise ConfigError(f"label {exc.args[0]} is not an unseen class id; "
                              f"{task} expects unseen-class detections") from None
    else:
        image_ids, tags = model_outputs
        tags = np.asarray(tags, dtype=np.float64)
        if tags.shape != (len(image_ids), space.U):
            raise ConfigError(f"{task} expects tags of shape ({len(image_ids)}, {space.U}), "
                              f"one row per image, got {tags.shape}")
        # per label, the max of its classes' columns in ascending class id;
        # ``>`` keeps the first maximum, so ties and NaN keep their bits
        label_tags: dict[int, np.ndarray] = {}
        for col, cid in zip(tags.T, space.unseen_ids):
            best = label_tags.get(relabel[cid], col)
            label_tags[relabel[cid]] = np.where(col > best, col, best)

    rows: list[ApRow] = []
    # a sorted set, as np.unique without return_inverse imports numpy.ma on first use
    for lid in sorted(set(gt_labels[gt_labels > 0].tolist())):
        rows_g = np.flatnonzero(gt_labels == lid)
        if boxes:
            rows_l = np.flatnonzero(labels == lid)
            ap = average_precision(image_ids[rows_l], scores[rows_l], det_boxes[rows_l],
                                   gt_image_ids[rows_g], gt_boxes[rows_g], EVAL_IOU)
            n_gt, n_det = len(rows_g), len(rows_l)
        else:
            positives = set(gt_image_ids[rows_g].tolist())
            scored = sorted(zip(image_ids, label_tags[lid].tolist()), key=lambda t: -t[1])
            flags = [img in positives for img, _ in scored]
            ap, n_gt, n_det = _ranking_ap(flags, len(positives)), len(positives), len(scored)
        rows.append(ApRow(lid, name_of(lid), ap, n_gt, n_det))

    mean_ap = float(np.mean([r.ap for r in rows])) if rows else 0.0
    meta = {
        "task": task,
        "task_name": TASK_NAMES[task],
        "iou_thresh": EVAL_IOU,
        "interpolation": "all-points precision envelope",
        "tagging": "image-level AP; a label is positive for an image iff the "
        "image holds >=1 ground truth of it; meta tag score = max "
        "over the meta's unseen members",
    }
    return DetectionReport(task=task, rows=rows, mean_ap=mean_ap, meta=meta)


def render_report(report: DetectionReport) -> str:
    """Aligned text table, one row per evaluated label."""
    lines = [
        f"task {report.task} ({TASK_NAMES[report.task]})  "
        f"iou={report.meta.get('iou_thresh', '-')}  mAP={report.mean_ap:.4f}"
    ]
    if report.rows:
        name_w = max(len(r.name) for r in report.rows)
        name_w = max(name_w, len("label"))
        lines.append(f"  {'label':<{name_w}}  {'id':>4}  {'AP':>8}  {'#gt':>5}  {'#det':>6}")
        for r in report.rows:
            lines.append(
                f"  {r.name:<{name_w}}  {r.label:>4}  {r.ap:>8.4f}  {r.n_gt:>5}  {r.n_det:>6}"
            )
    return "\n".join(lines)


def report_to_dict(report: DetectionReport) -> dict:
    return {
        "task": report.task,
        "task_name": TASK_NAMES[report.task],
        "mean_ap": report.mean_ap,
        "per_class": [asdict(r) for r in report.rows],
        "meta": report.meta,
    }
