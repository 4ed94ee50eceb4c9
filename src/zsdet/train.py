"""Adam training of the projection and box head over per-image mini-batches.

Each image's proposals are labeled once, up front, into a
:class:`~zsdet.model.RegionBatch` of all its rows: class-id targets from
the max-IoU ground truth and regression targets encoded against it.  Each
epoch then walks the images in dataset order, drawing one mini-batch per
image as row indices: up to ``n_pos`` foreground and ``n_neg`` background
rows, without replacement when the pool is large enough, with replacement
(repetition) otherwise.  The whole run is bit-reproducible from the config
seed; W2 is read-only and verified untouched by tests.

Loss averaging: the classification term is averaged over all batch samples,
the regression term over foreground samples only.  Rebalancing runs once,
up front, before any optimization step.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import warnings
from collections import Counter, deque
from dataclasses import dataclass, replace
from itertools import compress, groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from .data import Dataset, Proposals, gt_class_ids
from .errors import ConfigError, NumericFailureError, check_seed
from .evaluation import iou_matrix
from .loss import loss_gradients
from .model import MODES, Model, RegionBatch, encode_boxes, init_model
from .semantics import LabelSpace


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    ``lam`` weights the margin loss against the clustering loss; ``mode``
    selects full (seen+unseen+bg) or seen-only margin training.  Defaults
    follow the full-scale reference protocol (lr 1e-5, 16+16 proposals per
    image); desk-scale runs typically raise ``lr``.  Adam's betas and eps and
    the foreground IoU are the module constants below.
    """

    lam: float = 0.8
    mode: str = "full"
    lr: float = 1e-5
    n_pos: int = 16
    n_neg: int = 16
    epochs: int = 10
    seed: int = 0
    min_similar: int = 200

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must be in [0, 1], got {self.lam}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be a positive finite number, got {self.lr}")
        if self.n_pos < 0 or self.n_neg < 0:
            raise ConfigError("proposal counts must be >= 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.min_similar < 0:
            raise ConfigError("min_similar must be >= 0")
        check_seed(self.seed)


# Elements per Adam block: the step's 14 in-place operations run over one
# block of p, g, m, v and the two scratch arrays while it is in cache (six
# 256 KB slices at 32K float64s).  In a sweep at the paper shape, 16K-64K
# were equally fast and 8K and 128K slower (CHANGES.md has the numbers).
# Block loops release the GIL, so ``adam_step`` may share them between two threads.
ADAM_BLOCK = 32768
# The reference protocol's Adam betas and eps, and the IoU at or above which
# a proposal is labeled foreground.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
FG_IOU = 0.5


@dataclass
class AdamState:
    """First/second moment accumulators per parameter plus the step counter,
    which ``adam_step`` advances: the one record that is not frozen."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "AdamState":
        """Zero moments in C order, whatever the parameters' order:
        ``adam_step`` walks them as flat views."""
        return cls(
            m={k: np.zeros(p.shape) for k, p in params.items()},
            v={k: np.zeros(p.shape) for k, p in params.items()},
        )


def _adam_update(p, g, m, v, buf, den, b1, b2, c1, c2, lr, eps) -> None:
    # buf and den may be None: the first write to each then allocates it.
    buf = np.multiply(g, 1.0 - b1, out=buf)
    np.multiply(m, b1, out=m)
    np.add(m, buf, out=m)
    np.multiply(g, 1.0 - b2, out=buf)
    np.multiply(buf, g, out=buf)
    np.multiply(v, b2, out=v)
    np.add(v, buf, out=v)
    np.divide(m, c1, out=buf)
    np.multiply(buf, lr, out=buf)
    den = np.divide(v, c2, out=den)
    np.sqrt(den, out=den)
    np.add(den, eps, out=den)
    np.divide(buf, den, out=buf)
    np.subtract(p, buf, out=p)


def _adam_blocks(todo, coefs, errstate) -> None:
    scratch = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
    with np.errstate(**errstate):
        while todo:
            try:
                block = todo.popleft()
            except IndexError:  # the other side took the last one
                break
            _adam_update(*block, *(s[: block[0].size] for s in scratch), *coefs)


@functools.cache
def _adam_worker(pid: int):
    """The thread that shares multi-block steps, or ``None`` on one CPU; one
    per process id, as a forked child does not inherit the thread."""
    probe = getattr(os, "sched_getaffinity", None)
    if (len(probe(0)) if probe else os.cpu_count() or 1) < 2:
        return None
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="zsdet-adam")


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState,
              lr: float) -> None:
    """Standard bias-corrected Adam update at learning rate ``lr``, applied
    in place elementwise.

    ``p``, ``state.m`` and ``state.v`` are updated in place.  Each operation
    is the one the textbook formula evaluates, in the same order::

        m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g
        p -= (lr * (m / (1-b1**t))) / (sqrt(v / (1-b2**t)) + eps)

    so results are bit-identical to evaluating it with temporaries.  A
    parameter of at most ``ADAM_BLOCK`` elements is updated as one array.  A
    larger one is walked as flat views in blocks of ``ADAM_BLOCK`` elements
    (the last one ragged), each running all the operations while it is in
    cache, with two block-sized scratch arrays (``buf`` for the ``g`` terms
    and the step, ``den`` for the denominator) reused across blocks.  Given
    two or more blocks and a second CPU, the caller and a persistent worker
    thread take blocks off one deque until it is empty, each with its own
    scratch and the caller's numpy error state; the caller then waits and
    re-raises a worker error.  Blocks are disjoint and every element takes
    the same operations in the same order on either thread, so the bits do
    not depend on the split.  Each gradient's shape and finiteness and the
    C-contiguity of each ``p``, ``m`` and ``v`` are checked before any write;
    a non-contiguous array raises ``ConfigError`` (its flat view is a copy).
    """
    for key, p in params.items():
        g = grads[key]
        if g.shape != p.shape:
            raise ConfigError(f"gradient shape {g.shape} != param shape {p.shape}")
        # A sum is finite only if every term is; only a sum that overflows
        # needs the elementwise test.
        if not (math.isfinite(g.sum()) or np.isfinite(g).all()):
            raise NumericFailureError(f"non-finite gradient for {key!r}")
        if not (
            p.flags.c_contiguous
            and state.m[key].flags.c_contiguous
            and state.v[key].flags.c_contiguous
        ):
            raise ConfigError(f"{key!r}: param, m and v must be C-contiguous")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    coefs = (b1, b2, 1.0 - b1**state.t, 1.0 - b2**state.t, lr, ADAM_EPS)
    blocks = deque()
    for key, p in params.items():
        g, m, v = grads[key], state.m[key], state.v[key]
        if p.size <= ADAM_BLOCK:
            _adam_update(p, g, m, v, None, None, *coefs)
            continue
        flat = [a.reshape(-1) for a in (p, g, m, v)]
        blocks += [[a[lo:lo + ADAM_BLOCK] for a in flat] for lo in range(0, p.size, ADAM_BLOCK)]
    if not blocks:  # a parameter above one block has at least two
        return
    worker = _adam_worker(os.getpid())
    pending = worker.submit(_adam_blocks, blocks, coefs, np.geterr()) if worker else None
    try:
        _adam_blocks(blocks, coefs, np.geterr())
    finally:
        if pending is not None:
            pending.result()


def label_proposals(
    proposals: Proposals,
    gt_ids: Sequence[int],
    gt_boxes: np.ndarray,
    space: LabelSpace,
) -> RegionBatch:
    """Label an image's proposals with the class of their max-IoU ground truth.

    ``gt_ids`` (G,) holds the class ids of the ground-truth boxes
    ``gt_boxes`` (G, 4).  A proposal is foreground iff its best IoU is
    >= ``FG_IOU`` (boundary inclusive); among equal best IoUs the first
    ground truth wins.  Foreground rows get their regression target encoded
    against the matched box, in one call for the image; background rows get
    the background id and a NaN target.
    """
    ys = np.full(len(proposals), space.bg_id, dtype=np.intp)
    targets = np.full((len(proposals), 4), np.nan)
    if len(gt_ids):
        overlaps = iou_matrix(proposals.boxes, gt_boxes)
        best = overlaps.argmax(axis=1)
        fg = np.flatnonzero(overlaps[np.arange(len(proposals)), best] >= FG_IOU)
        ys[fg] = np.asarray(gt_ids)[best[fg]]
        targets[fg] = encode_boxes(gt_boxes[best[fg]], proposals.boxes[fg])
    return RegionBatch(proposals.features, ys, targets)


def _draw(pool: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    if n <= 0 or not pool.size:
        return pool[:0]
    if pool.size < n:  # the rows ``choice(..., replace=True)`` draws, minus its overhead
        return pool[rng.integers(pool.size, size=n)]
    return pool[rng.choice(pool.size, size=n, replace=False)]


def compose_batch(
    labeled: RegionBatch,
    n_pos: int,
    n_neg: int,
    rng: np.random.Generator,
    bg_id: int,
) -> RegionBatch:
    """Sample a per-image batch: n_pos foreground plus n_neg background rows.

    Short pools repeat rows (draw with replacement); an empty pool
    contributes nothing, so an image without proposals gives an empty batch.
    """
    background = labeled.ys == bg_id
    return labeled.rows(np.concatenate([
        _draw((~background).nonzero()[0], n_pos, rng),
        _draw(background.nonzero()[0], n_neg, rng),
    ]))


def rebalance_dataset(
    dataset: Dataset,
    space: LabelSpace,
    min_similar: int,
    rng: np.random.Generator,
) -> Dataset:
    """Repetition augmentation: balance per-meta foreground instance counts.

    For every meta-class holding an unseen class, the pool of seen-class
    instances sharing that meta is grown to at least ``min_similar`` by
    duplicating pool images (uniform, with replacement) or shrunk to exactly
    ``min_similar`` by removing a uniform subset of instances; instances
    removed this way simply become background at labeling time.  Meta-classes
    are processed in id order against the working set, so every retained
    sample exists in the original dataset, though a copy made for one
    meta-class may lose instances to a later one.  A copy is its source
    record itself, so the result may repeat an image id: it is internal to
    :func:`train` and never saved, so the unique-id rule of
    :func:`~zsdet.data.load_dataset` does not apply to it.
    """
    if min_similar <= 0:
        return dataset
    images = list(dataset.images)
    for mid in range(1, space.M + 1):
        if not space.unseen_members(mid):
            continue
        seen_m = {
            space.label_of(cid) for cid in space.members(mid) if space.is_seen(cid)
        }
        instances = [
            (ii, gi)
            for ii, img in enumerate(images)
            for gi, label in enumerate(img.gt_labels)
            if label in seen_m
        ]
        count = len(instances)
        if count == 0:
            warnings.warn(
                f"meta-class {space.meta_label_of(mid)!r} has no seen "
                f"{'instances' if seen_m else 'members'}; its unseen classes stay unsupported"
            )
            continue
        if count < min_similar:
            pool_counts = Counter(ii for ii, _ in instances)
            pool = sorted(pool_counts)
            while count < min_similar:
                pick = pool[int(rng.integers(len(pool)))]
                images.append(images[pick])
                count += pool_counts[pick]
        elif count > min_similar:
            kept = np.zeros(count, dtype=bool)
            kept[rng.choice(count, size=min_similar, replace=False)] = True
            # instances run in image order, so each image's dropped ones are adjacent
            for ii, dropped in groupby(compress(instances, ~kept), key=itemgetter(0)):
                img = images[ii]
                mask = np.ones(len(img.gt_labels), dtype=bool)
                mask[[gi for _, gi in dropped]] = False
                images[ii] = replace(img, gt_labels=tuple(compress(img.gt_labels, mask)),
                                     gt_boxes=img.gt_boxes[mask])
    return Dataset(d_f=dataset.d_f, images=images)


def train(
    dataset: Dataset,
    w2: np.ndarray,
    space: LabelSpace,
    config: TrainConfig,
) -> tuple[Model, np.ndarray]:
    """Full training loop over the fixed class matrix ``w2``, its columns in
    ``space``'s class order; deterministic given (dataset, config, seed).

    Returns the trained model and the loss history: a float64 ``(steps, 5)``
    block, one row ``l_mm, l_mc, l_cls, l_reg, total`` per step, the
    columns of :func:`write_loss_history`; a row holds the floats of its
    step's :class:`~zsdet.loss.LossBreakdown`.
    """
    # the input is checked before rebalancing, which would warn about it first
    for img, ids in zip(dataset.images, gt_class_ids(dataset, space)):
        leaked = ids[ids > space.S]
        if leaked.size:
            raise ConfigError(f"train dataset leaks unseen class "
                              f"{space.label_of(int(leaked[0]))!r} in image {img.image_id}")
    work = rebalance_dataset(
        dataset, space, config.min_similar, np.random.default_rng([config.seed, 1])
    )
    gt_ids = gt_class_ids(work, space)
    model = init_model(w2, space, dataset.d_f, config.seed, config.mode)
    labeled = [label_proposals(img.proposals, ids, img.gt_boxes, space)
               for img, ids in zip(work.images, gt_ids)]

    # the model's own arrays (it is frozen, so they stay its own): Adam
    # updates them in place
    params = {"w1": model.w1, "box_w": model.box_w, "box_b": model.box_b}
    state = AdamState.for_params(params)
    rng = np.random.default_rng([config.seed, 2])
    # a row for every image of every epoch, the most steps there can be (an
    # empty batch takes none); a large block's unwritten pages stay unmapped
    try:
        history = np.empty((config.epochs * len(labeled), 5))
    except (ValueError, MemoryError):
        raise ConfigError(f"a loss history of {config.epochs} epochs x {len(labeled)} images "
                          "cannot be allocated") from None
    step = 0
    for _ in range(config.epochs):
        for rows in labeled:
            try:
                batch = compose_batch(rows, config.n_pos, config.n_neg, rng, space.bg_id)
            except MemoryError:
                raise ConfigError(f"a batch of n_pos {config.n_pos} + n_neg {config.n_neg} rows "
                                  "cannot be allocated") from None
            if not batch:
                continue
            try:
                breakdown, grads = loss_gradients(model, batch, space, config.lam)
                adam_step(params, grads, state, config.lr)
                del grads  # else the next loss_gradients builds its own while these live
            except NumericFailureError as exc:
                raise NumericFailureError(f"training step {step}: {exc}") from exc
            history[step] = (breakdown.l_mm, breakdown.l_mc, breakdown.l_cls,
                             breakdown.l_reg, breakdown.total)
            step += 1
    # a step's own checks see only its inputs, so the last step's result is
    # checked here: a model that trained into overflow is not written
    for key, p in params.items():
        if not (math.isfinite(p.sum()) or np.isfinite(p).all()):
            raise NumericFailureError(f"training step {step - 1} left a non-finite value "
                                      f"in {key!r}")
    return model, history[:step]


def write_loss_history(history: np.ndarray, path: str | os.PathLike) -> None:
    """CSV emitted beside the checkpoint: step,l_mm,l_mc,l_cls,l_reg,total.

    ``history`` is :func:`train`'s ``(steps, 5)`` block; each value is
    written as its shortest round-trip ``repr``.  Rows are converted one at
    a time, so the writer holds no second copy of the history.
    """
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "l_mm", "l_mc", "l_cls", "l_reg", "total"])
        for i, row in enumerate(history):
            writer.writerow([i, *map(repr, row.tolist())])
