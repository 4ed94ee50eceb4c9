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
per-row ``l_mm``, ``l_mc`` and ``dL_cls/do`` for the whole batch.
Background is its own meta-class ``{bg}``, so a background row's
clustering term is its ``full`` margin term and costs nothing more;
seen-target rows are ranked in one block per meta-class size, and all
blocks share one softplus and one sigmoid call.  The smooth-L1 regression
term is batched in :func:`loss_gradients`.

Gradient convention: the batch classification loss is averaged over all
samples, while the regression loss is averaged over foreground samples
only (background and unseen carry no box loss).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericFailureError
from .model import Model, RegionBatch, forward_boxes, forward_scores
from .semantics import LabelSpace


@dataclass(frozen=True)
class LossBreakdown:
    """Per-step loss components; ``lam`` is the effective mixing weight."""

    l_mm: float
    l_mc: float
    l_cls: float
    l_reg: float
    total: float
    lam: float


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Mask-free 1/(1+exp(-x)) for x >= 0 and exp(x)/(1+exp(x)) below it.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


@lru_cache(maxsize=64)
def _margin_table(space: LabelSpace, mode: str) -> np.ndarray:
    """(C+2, K) table: row y holds the 0-based score columns ranked against target y.

    ``full`` compares against every other class and background (K = C);
    ``seen_only`` against the other seen classes and background (K = S).
    Rows of ids that are never valid targets (0 and unseen) stay zero.
    """
    if mode == "seen_only":
        ids = np.array([*space.seen_ids, space.bg_id])
    else:
        ids = np.arange(1, space.bg_id + 1)
    table = np.zeros((space.bg_id + 1, ids.size - 1), dtype=np.intp)
    for y in (*space.seen_ids, space.bg_id):
        table[y] = ids[ids != y] - 1
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _meta_tables(space: LabelSpace) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Meta-class size per class id, and per size k two column tables.

    Row y of the (C+2, k) member table holds the 0-based columns of class
    y's meta-class; row y of the (C+2, C+1-k) outside table holds every
    other column, ascending.  Rows of ids in a meta-class of another size,
    and of 0 and background, stay zero (size 0).
    """
    size = np.zeros(space.bg_id + 1, dtype=np.intp)
    tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for m in range(1, space.bg_meta_id):
        z = np.array(space.members(m)) - 1
        k = z.size
        if k not in tables:
            tables[k] = (np.zeros((space.bg_id + 1, k), dtype=np.intp),
                         np.zeros((space.bg_id + 1, space.bg_id - k), dtype=np.intp))
        members, outside = tables[k]
        members[z + 1] = z
        # a mask, as np.setdiff1d imports numpy.ma on first use
        rest = np.ones(space.bg_id, dtype=bool)
        rest[z] = False
        outside[z + 1] = rest.nonzero()[0]
        size[z + 1] = k
    for table in (size, *(t for pair in tables.values() for t in pair)):
        table.flags.writeable = False
    return size, tables


def _class_terms(
    scores: np.ndarray, ys: np.ndarray, space: LabelSpace, lam: float, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(l_mm, l_mc, dL_cls/do)`` of an (n, C+1) score matrix.

    ``ys`` holds the validated 1-based targets.  The margin term gathers
    each row's comparison columns from :func:`_margin_table`.  In
    ``seen_only`` mode ``l_mc`` is zero and the gradient is the margin
    gradient alone.  Otherwise background rows take their clustering term
    from the margin term: background is its own meta-class ``{bg}``, so
    its clustering term ranks every class, ascending, against ``bg``, which
    is the ``full`` margin term of the same row.  Seen-target rows run in
    one (n_k, C+1-k, k) block per meta-class size k (:func:`_meta_tables`),
    every outside column ranked against every member column.  All blocks
    share one softplus and one sigmoid call, then each reduces its own
    C-contiguous slice: each row sums the same values in the same order.
    """
    rows = np.arange(len(ys))
    cols = _margin_table(space, mode)[ys]
    blocks = [scores[rows[:, None], cols] - scores[rows, ys - 1][:, None]]
    groups = []
    if mode != "seen_only":
        bg = ys == space.bg_id
        fg = rows[~bg]
        size, tables = _meta_tables(space)
        target_size = size[ys[fg]]
        for k, (members, outside) in tables.items():
            idx = fg[target_size == k]
            if idx.size:
                r, z, out = idx[:, None], members[ys[idx]], outside[ys[idx]]
                groups.append((idx, r, z, out))
                blocks.append(scores[r, out][:, :, None] - scores[r, z][:, None, :])
    flat = np.concatenate(blocks, axis=None)
    soft, sig = _softplus(flat), _sigmoid(flat)

    # ``.sum(axis=1) / K`` gives ``.mean(axis=1)``'s bits with less call overhead.
    (n, K), lo = cols.shape, cols.size
    l_mm = soft[:lo].reshape(n, K).sum(axis=1) / K
    w = sig[:lo].reshape(n, K) / K
    g_mm = np.zeros(scores.shape)
    g_mm[rows[:, None], cols] = w
    g_mm[rows, ys - 1] -= w.sum(axis=1)
    if mode == "seen_only":
        return l_mm, np.zeros(n), g_mm

    l_mc = np.where(bg, l_mm, 0.0)
    g_mc = np.where(bg[:, None], g_mm, 0.0)
    for (idx, r, z, out), block in zip(groups, blocks[1:]):
        hi, pairs = lo + block.size, block[0].size
        l_mc[idx] = soft[lo:hi].reshape(idx.size, pairs).sum(axis=1) / pairs
        w = sig[lo:hi].reshape(block.shape) / pairs
        g_mc[r, out] = w.sum(axis=2)
        g_mc[r, z] -= w.sum(axis=1)
        lo = hi
    return l_mm, l_mc, lam * g_mm + (1.0 - lam) * g_mc


def smooth_l1(x: np.ndarray) -> np.ndarray:
    """Elementwise smooth-L1 with transition point 1.0: ``0.5 x^2`` below it,
    ``|x| - 0.5`` above, as ``m (|x| - 0.5 m)`` with ``m = min(|x|, 1)``, so a
    huge ``x`` squares nothing and cannot overflow."""
    ax = np.abs(x)
    m = np.minimum(ax, 1.0)
    return m * (ax - 0.5 * m)


def _first_bad_row(a: np.ndarray) -> int:
    """Index of the first row of ``a`` holding a non-finite value."""
    return int(np.argmin(np.isfinite(a).all(axis=1)))


def loss_gradients(model: Model, batch: RegionBatch, space: LabelSpace,
                   lam: float) -> tuple[LossBreakdown, dict[str, np.ndarray]]:
    """Mean batch loss and exact analytic gradients for W1 and the box head,
    in the model's training mode.

    The gradients are keyed by parameter name (``w1``, ``box_w``, ``box_b``)
    and shaped like the parameters.  The score-path gradient chains through
    the bilinear form: ``dW1 = (1/T) sum_i f_i (W2 dL/do_i)^T``.  Every
    target must be a seen class or background, and every foreground row
    needs a finite regression target.
    """
    if not batch:
        raise ConfigError("batch must be nonempty")
    if not 0.0 <= lam <= 1.0:
        raise ConfigError(f"lambda must be in [0, 1], got {lam}")

    n = len(batch)
    feats, ys = batch.features, batch.ys
    if feats.shape != (n, model.d_f) or batch.targets.shape != (n, 4):
        raise ConfigError(f"batch features {feats.shape} and targets {batch.targets.shape}"
                          f" must be ({n}, d_f {model.d_f}) and ({n}, 4)")
    bad = ((ys < 1) | (ys > space.S)) & (ys != space.bg_id)
    if bad.any():
        y = int(ys[bad.argmax()])
        raise ConfigError(
            f"target {y} is an unseen class; unseen classes are never supervised"
            if space.is_unseen(y) else f"target {y} outside the extended label set")
    # an overflow is refused below, as a non-finite score, gradient or box
    # offset, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        scores = forward_scores(model, feats)
        offsets = forward_boxes(model, feats)

    if not np.isfinite(scores).all():
        raise NumericFailureError("non-finite score", sample_index=_first_bad_row(scores))
    mm, mc, g_scores = _class_terms(scores, ys, space, lam, model.mode)
    if not np.isfinite(g_scores).all():
        raise NumericFailureError("non-finite gradient", sample_index=_first_bad_row(g_scores))

    fg = (ys <= space.S).nonzero()[0]
    n_pos = fg.size
    d_offsets = np.zeros(offsets.shape)
    reg_sum = 0.0
    if n_pos:
        target = batch.targets[fg]
        if not np.isfinite(target).all():
            raise ConfigError(f"foreground sample {fg[_first_bad_row(target)]}"
                              " has no finite regression target")
        # As (n, S, 4) views, [i, y - 1] is row i's class-y box offsets.
        at = fg, ys[fg] - 1
        diff = offsets.reshape(n, -1, 4)[at] - target
        if not np.isfinite(diff).all():
            raise NumericFailureError("non-finite box offset",
                                      sample_index=int(fg[_first_bad_row(diff)]))
        reg_sum = sum(smooth_l1(diff).sum(axis=1).tolist())
        d_offsets.reshape(n, -1, 4)[at] = np.clip(diff, -1.0, 1.0)

    # Loss totals (reg_sum too) add per-sample values in sample order, so the
    # reported losses do not depend on how numpy pairs up a reduction.
    lam_eff = 1.0 if model.mode == "seen_only" else lam
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
    return breakdown, {"w1": dw1, "box_w": dbox, "box_b": dbox_b}

