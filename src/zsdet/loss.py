"""Margin and clustering losses, smooth-L1 regression, and their gradients.

The classification loss mixes two ranking terms: a max-margin loss that
separates the target's score from every other label, and a meta-class
clustering loss that pushes the scores of the target's meta-class members
above the scores of all labels outside that meta-class.  Both are means of
``log(1 + exp(o_c - o_j))`` terms and are evaluated through
``np.logaddexp(0, .)`` so score gaps of several hundred do not overflow.

In ``seen_only`` mode (training without predefined unseen classes) the
margin loss reads only the seen and background entries and the clustering
term is dropped entirely; the reported mixing weight is then 1.0 so the
breakdown identity ``l_cls = lam*l_mm + (1-lam)*l_mc`` always holds.

One kernel, :func:`_class_terms`, turns an (n, C+1) score matrix into
per-row ``l_mm``, ``l_mc`` and ``dL_cls/do`` for the whole batch; the
single-row losses below are one-row calls into it.

Gradient convention: the batch classification loss is averaged over all
samples, while the regression loss is averaged over foreground samples
only (background and unseen carry no box loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, InvalidTargetError, NumericFailureError, ShapeError
from .model import Model, RegionBatch, box_slice, encode_boxes
from .semantics import LabelSpace

MODES = ("full", "seen_only")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-step loss components; ``lam`` is the effective mixing weight."""

    l_mm: float
    l_mc: float
    l_cls: float
    l_reg: float
    total: float
    lam: float


@dataclass
class Gradients:
    """Analytic gradients shaped like the trainable parameters."""

    dw1: np.ndarray
    dbox: np.ndarray
    dbox_b: np.ndarray


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _check_target(y: int | None, space: LabelSpace) -> int:
    if y is None:
        raise InvalidTargetError("sample has no training label")
    if space.is_unseen(y):
        raise InvalidTargetError(
            f"target {y} is an unseen class; unseen classes are never supervised"
        )
    if not (space.is_seen(y) or y == space.bg_id):
        raise InvalidTargetError(f"target {y} outside the extended label set")
    return y


@lru_cache(maxsize=64)
def _margin_table(space: LabelSpace, mode: str) -> np.ndarray:
    """(C+2, K) table: row y holds the 0-based score columns ranked against target y.

    ``full`` compares against every other class and background (K = C);
    ``seen_only`` against the other seen classes and background (K = S).
    Rows of ids that are never valid targets (0 and unseen) stay zero.
    """
    if mode == "full":
        ids = np.arange(1, space.bg_id + 1)
    elif mode == "seen_only":
        ids = np.array([*space.seen_ids, space.bg_id])
    else:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    table = np.zeros((space.bg_id + 1, ids.size - 1), dtype=np.intp)
    for y in (*space.seen_ids, space.bg_id):
        table[y] = ids[ids != y] - 1
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _meta_columns(space: LabelSpace) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Meta id per class id, and each meta's (member, outside) 0-based columns."""
    meta = np.array([0] + [space.meta_of(c) for c in range(1, space.bg_id + 1)])
    members = {m: np.array(space.members(m)) - 1 for m in range(1, space.bg_meta_id + 1)}
    return meta, {m: (z, np.setdiff1d(np.arange(space.bg_id), z)) for m, z in members.items()}


def _class_terms(
    scores: np.ndarray, ys: np.ndarray, space: LabelSpace, lam: float, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(l_mm, l_mc, dL_cls/do)`` of an (n, C+1) score matrix.

    ``ys`` holds the validated 1-based targets.  The margin term gathers
    each row's comparison columns from :func:`_margin_table`; the
    clustering term groups rows by target meta-class and ranks every
    outside column against every member column in one (n_g, |out|, |z|)
    block per group.  In ``seen_only`` mode ``l_mc`` is zero and the
    gradient is the margin gradient alone.  Blocks are made C-contiguous
    before reducing so each row sums in the same order as a lone row.
    """
    rows = np.arange(scores.shape[0])
    cols = _margin_table(space, mode)[ys]
    diffs = np.ascontiguousarray(
        np.take_along_axis(scores, cols, axis=1) - scores[rows, ys - 1][:, None]
    )
    l_mm = _softplus(diffs).mean(axis=1)
    w = _sigmoid(diffs) / cols.shape[1]
    g_mm = np.zeros_like(scores)
    np.put_along_axis(g_mm, cols, w, axis=1)
    g_mm[rows, ys - 1] -= w.sum(axis=1)
    l_mc = np.zeros(scores.shape[0])
    if mode == "seen_only":
        return l_mm, l_mc, g_mm

    g_mc = np.zeros_like(scores)
    meta, groups = _meta_columns(space)
    target_meta = meta[ys]
    for m in np.unique(target_meta):
        idx = np.flatnonzero(target_meta == m)
        z, out = groups[int(m)]
        o = scores[idx]
        pairs = np.ascontiguousarray(o[:, out, None] - o[:, None, z])
        l_mc[idx] = _softplus(pairs).reshape(idx.size, -1).mean(axis=1)
        w = _sigmoid(pairs) / (out.size * z.size)
        g_mc[idx[:, None], out] += w.sum(axis=2)
        g_mc[idx[:, None], z] -= w.sum(axis=1)
    return l_mm, l_mc, lam * g_mm + (1.0 - lam) * g_mc


def _row_losses(
    o: np.ndarray, y: int, space: LabelSpace, lam: float, mode: str
) -> tuple[float, float]:
    o = _check_scores(o, space)
    y = _check_target(y, space)
    l_mm, l_mc, _ = _class_terms(o[None], np.array([y]), space, lam, mode)
    return float(l_mm[0]), float(l_mc[0])


def max_margin_loss(
    o: np.ndarray, y: int, space: LabelSpace, mode: str = "full"
) -> float:
    """Mean softplus margin of every non-target label against the target.

    ``full`` ranges over all classes plus background; ``seen_only`` reads
    only the seen and background entries (the L'_mm variant).
    """
    return _row_losses(o, y, space, 1.0, mode)[0]


def clustering_loss(o: np.ndarray, y: int, space: LabelSpace) -> float:
    """Pair-mean softplus of outside-meta scores over the target meta's members.

    With z the members of the target's meta-class, every label outside z
    (including background) is ranked against every member of z; the sum is
    normalized by the pair count.
    """
    return _row_losses(o, y, space, 0.0, "full")[1]


def classification_loss(
    o: np.ndarray, y: int, space: LabelSpace, lam: float, mode: str = "full"
) -> LossBreakdown:
    """Mix margin and clustering terms: ``lam*L_mm + (1-lam)*L_mc``."""
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must be in [0, 1], got {lam}")
    l_mm, l_mc = _row_losses(o, y, space, lam, mode)
    lam_eff = 1.0 if mode == "seen_only" else lam
    l_cls = lam_eff * l_mm + (1.0 - lam_eff) * l_mc
    return LossBreakdown(l_mm, l_mc, l_cls, 0.0, l_cls, lam_eff)


def smooth_l1(x: np.ndarray) -> np.ndarray:
    """Elementwise smooth-L1 with transition point 1.0."""
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def regression_loss(
    pred_offsets: np.ndarray,
    proposal_box: np.ndarray,
    gt_box: np.ndarray,
    y: int,
    space: LabelSpace,
) -> float:
    """Smooth-L1 over the 4 offsets of the target class slice.

    Background and unseen targets contribute zero by contract: no box is
    regressed for labels without visual training examples.
    """
    if not space.is_seen(y):
        return 0.0
    pred_offsets = np.asarray(pred_offsets, dtype=np.float64)
    if pred_offsets.shape != (4 * space.S,):
        raise ShapeError(
            f"expected {4 * space.S} offsets, got shape {pred_offsets.shape}"
        )
    target = encode_boxes(np.asarray(gt_box), np.asarray(proposal_box))
    return float(smooth_l1(pred_offsets[box_slice(y)] - target).sum())


def _check_scores(o: np.ndarray, space: LabelSpace) -> np.ndarray:
    o = np.asarray(o, dtype=np.float64)
    if o.shape != (space.bg_id,):
        raise ShapeError(f"expected score vector of length {space.bg_id}, got {o.shape}")
    return o


def loss_gradients(
    model: Model,
    batch: RegionBatch,
    space: LabelSpace,
    lam: float,
    mode: str = "full",
) -> tuple[LossBreakdown, Gradients]:
    """Mean batch loss and exact analytic gradients for W1 and the box head.

    The score-path gradient chains through the bilinear form:
    ``dW1 = (1/T) sum_i f_i (W2 dL/do_i)^T``.  Every target must be a seen
    class or background, and every foreground row needs a finite
    regression target.
    """
    if not batch:
        raise ConfigError("batch must be nonempty")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must be in [0, 1], got {lam}")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    n = len(batch)
    feats, ys = batch.features, batch.ys
    if feats.shape != (n, model.d_f) or batch.targets.shape != (n, 4):
        raise ShapeError(f"batch features {feats.shape} and targets {batch.targets.shape}"
                         f" must be ({n}, d_f {model.d_f}) and ({n}, 4)")
    bad = np.flatnonzero(((ys < 1) | (ys > space.S)) & (ys != space.bg_id))
    if bad.size:
        _check_target(int(ys[bad[0]]), space)
    scores = (feats @ model.w1) @ model.w2
    offsets = feats @ model.box_w + model.box_b

    finite = np.isfinite(scores).all(axis=1)
    if not finite.all():
        raise NumericFailureError("non-finite score", sample_index=int(np.argmin(finite)))
    mm, mc, g_scores = _class_terms(scores, ys, space, lam, mode)
    finite = np.isfinite(g_scores).all(axis=1)
    if not finite.all():
        raise NumericFailureError("non-finite gradient", sample_index=int(np.argmin(finite)))

    fg = np.flatnonzero(ys <= space.S)
    n_pos = fg.size
    d_offsets = np.zeros_like(offsets)
    reg_sum = 0.0
    if n_pos:
        target = batch.targets[fg]
        finite = np.isfinite(target).all(axis=1)
        if not finite.all():
            raise ConfigError(
                f"foreground sample {fg[np.argmin(finite)]} has no finite regression target"
            )
        box_cols = 4 * (ys[fg, None] - 1) + np.arange(4)
        diff = offsets[fg[:, None], box_cols] - target
        reg_sum = sum(smooth_l1(diff).sum(axis=1).tolist())
        d_offsets[fg[:, None], box_cols] = np.clip(diff, -1.0, 1.0)

    # Loss totals (reg_sum too) add per-sample values in sample order, so the
    # reported losses do not depend on how numpy pairs up a reduction.
    lam_eff = 1.0 if mode == "seen_only" else lam
    l_mm = sum(mm.tolist()) / n
    l_mc = sum(mc.tolist()) / n
    l_cls = lam_eff * l_mm + (1.0 - lam_eff) * l_mc
    l_reg = reg_sum / n_pos if n_pos else 0.0

    # Gradients are scaled in place: the same division, without a second
    # full-size array per gradient.
    dw1 = feats.T @ (g_scores @ model.w2.T)
    np.divide(dw1, n, out=dw1)
    if n_pos:
        dbox = feats.T @ d_offsets
        np.divide(dbox, n_pos, out=dbox)
        dbox_b = d_offsets.sum(axis=0) / n_pos
    else:
        dbox = np.zeros_like(model.box_w)
        dbox_b = np.zeros_like(model.box_b)

    breakdown = LossBreakdown(l_mm, l_mc, l_cls, l_reg, l_cls + l_reg, lam_eff)
    return breakdown, Gradients(dw1=dw1, dbox=dbox, dbox_b=dbox_b)

