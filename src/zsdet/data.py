"""Dataset files, the seen/unseen split protocol, and the synthetic generator.

The generator replaces the convolutional backbone with a known linear map G
from semantic space to feature space: a positive proposal's feature is
``G v_y`` plus isotropic noise, so score-based recognition is identifiable
by construction and features of unseen classes stay related to those of
same-meta seen classes.  Ground-truth boxes live on a 3x3 grid; each
positive proposal is its object's cell under a bounded random translation,
and the remaining proposals are background (noise features, random boxes).
Its draw order is its contract: one stream from the seed gives the meta
centroids, each class vector, G, then per image its classes, its grid cells
and, per proposal in row order, a normal feature draw and its box's uniforms
(an object's x, y shift; a background box's x1, y1, w, h).  Another order
changes every synth file and the mAPs in ``perfbench/reference.json``.

A dataset file is in the binary layout of :mod:`zsdet.codec`: a JSON header
line with ``d_f`` and each image's id, proposal count and ground-truth
labels, then one block of every proposal feature, one of every proposal box
and one of every ground-truth box (:func:`save_dataset`); the header holds
no float.  Proposals are stored unlabeled; training assigns labels by IoU
against the ground truths.  In memory an image keeps its rows
of the blocks, its proposals as :class:`Proposals`, until they are scored
or trained on.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import accumulate, chain
from typing import Mapping, Sequence

import numpy as np

from .codec import read_blocks, read_header, read_utf8, write_blocks
from .errors import ConfigError, ParseError, check_seed
from .semantics import EmbeddingTable, LabelSpace, _readonly

CANVAS = 256.0
GRID = 3
MIN_BG_BOX = 20.0
# the standard deviation of a proposal feature's noise (times the oracle's
# ``bg_feature_scale`` for a background proposal), and of a class vector's
# offset from its meta centroid before it is normalized
NOISE_SIGMA = 0.1
META_SPREAD = 0.5


@dataclass(frozen=True)
class Proposals:
    """An image's unlabeled region proposals as aligned rows:
    ``features (P, d_f)`` and ``boxes (P, 4)``."""

    features: np.ndarray
    boxes: np.ndarray

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class ImageRecord:
    """One image: its proposals, and its ground truths as a label per row of
    ``gt_boxes (G, 4)`` (class names; :func:`gt_class_ids` gives their ids)."""

    image_id: str
    proposals: Proposals
    gt_labels: tuple[str, ...]
    gt_boxes: np.ndarray


@dataclass(frozen=True)
class Dataset:
    d_f: int
    images: list[ImageRecord]

    def class_stats(self) -> Counter[str]:
        """Ground-truth instances per class; a class without one counts 0."""
        return Counter(label for img in self.images for label in img.gt_labels)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs for the synthetic generator; see the module docstring."""

    s: int = 20
    u: int = 5
    m: int = 5
    d: int = 16
    d_f: int = 16
    images: int = 200
    test_images: int = 50
    proposals_per_image: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.u < 1:
            raise ConfigError("need at least one unseen class")
        if self.s < 1:
            raise ConfigError("need at least one seen class")
        if not 1 <= self.m <= self.s + self.u:
            raise ConfigError("meta-class count must be in 1..S+U")
        if min(self.d, self.d_f) < 2:
            raise ConfigError("dimensionalities must be >= 2")
        if min(self.images, self.test_images, self.proposals_per_image) < 1:
            raise ConfigError("images, test_images, proposals_per_image must be >= 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class SyntheticBundle:
    """Everything the generator emits; ``oracle`` is what synth writes as ``oracle.json``."""

    table: EmbeddingTable
    meta_map: dict[str, str]
    train: Dataset
    test: Dataset
    oracle: dict


# the grid's cells as boxes, row-major
_CELLS = CANVAS / GRID * np.array([(c, r, c + 1, r + 1) for r in range(GRID) for c in range(GRID)],
                                  dtype=float)


def _make_image(
    image_id: str,
    class_ids: np.ndarray,
    labels: Sequence[str],
    centres: np.ndarray,
    bg_scale: float,
    cfg: SynthConfig,
    rng: np.random.Generator,
) -> ImageRecord:
    # two draws per proposal, in the order the module docstring fixes, each
    # into its row; in-place arithmetic over the block then gives the values
    # of ``rng.uniform(lo, hi)``, which is ``lo + (hi - lo) * random()``
    gt_boxes = _CELLS[rng.choice(GRID * GRID, size=class_ids.size, replace=False)]
    features = np.empty((cfg.proposals_per_image, cfg.d_f))
    boxes = np.empty((cfg.proposals_per_image, 4))
    k = class_ids.size
    for feature, box in zip(features[:k], boxes[:k]):
        rng.standard_normal(out=feature)
        rng.random(out=box[:2])
    for feature, box in zip(features[k:], boxes[k:]):
        rng.standard_normal(out=feature)
        rng.random(out=box)
    features[:k] *= NOISE_SIGMA
    features[:k] += centres[class_ids - 1]
    features[k:] *= NOISE_SIGMA * bg_scale
    shift = boxes[:k, :2]
    shift *= 0.4
    shift -= 0.2
    shift *= CANVAS / GRID
    boxes[:k, 2:] = shift
    boxes[:k] += gt_boxes
    corner, size = boxes[k:, :2], boxes[k:, 2:]
    corner *= CANVAS - MIN_BG_BOX
    size *= CANVAS / 2 - MIN_BG_BOX
    size += MIN_BG_BOX
    size += corner
    np.minimum(size, CANVAS, out=size)
    gt_labels = tuple(labels[cid - 1] for cid in class_ids)
    return ImageRecord(image_id, Proposals(features, boxes), gt_labels, gt_boxes)


def generate_synthetic(cfg: SynthConfig) -> SyntheticBundle:
    """Build embeddings, meta map, train/test datasets, and the oracle record.

    Classes are assigned to meta-classes round-robin so every meta-class
    mixes seen and unseen members whenever counts allow.  The train set
    contains no unseen instances; every test image holds at least one
    unseen instance.
    """
    rng = np.random.default_rng(cfg.seed)
    n_classes = cfg.s + cfg.u
    labels = tuple(f"class{i:03d}" for i in range(1, n_classes + 1))
    meta_labels = tuple(f"meta{j:02d}" for j in range(1, cfg.m + 1))
    meta_map = {labels[i]: meta_labels[i % cfg.m] for i in range(n_classes)}

    centroids = rng.standard_normal((cfg.d, cfg.m))
    centroids /= np.linalg.norm(centroids, axis=0)
    raw = np.empty((cfg.d, n_classes))
    for i in range(n_classes):
        v = centroids[:, i % cfg.m] + META_SPREAD * rng.standard_normal(cfg.d)
        raw[:, i] = v / np.linalg.norm(v)
    vectors = _readonly(raw)
    background = _readonly(raw.mean(axis=1))
    table = EmbeddingTable(labels=labels, vectors=vectors, background=background)

    g_map = rng.standard_normal((cfg.d_f, cfg.d)) / np.sqrt(cfg.d)
    bg_scale = float(
        np.sqrt(np.mean(np.linalg.norm(g_map @ vectors, axis=0) ** 2)) / np.sqrt(cfg.d_f)
    )

    # one matrix-vector product per class: a single ``g_map @ vectors`` differs
    # in the last bits, and so would every feature
    centres = np.array([g_map @ vectors[:, c] for c in range(n_classes)])
    objects = min(max(1, cfg.proposals_per_image // 4), GRID * GRID)
    seen_ids = np.arange(1, cfg.s + 1)
    unseen_ids = np.arange(cfg.s + 1, n_classes + 1)
    all_ids = np.arange(1, n_classes + 1)

    train_images = [
        _make_image(f"train{i:04d}", rng.choice(seen_ids, size=objects, replace=True), labels,
                    centres, bg_scale, cfg, rng)
        for i in range(cfg.images)
    ]
    test_images = []
    for i in range(cfg.test_images):
        first = rng.choice(unseen_ids, size=1)
        rest = rng.choice(all_ids, size=objects - 1, replace=True) if objects > 1 else []
        class_ids = np.concatenate([first, rest]).astype(int) if objects > 1 else first
        test_images.append(
            _make_image(f"test{i:04d}", class_ids, labels, centres, bg_scale, cfg, rng))

    train = Dataset(d_f=cfg.d_f, images=train_images)
    test = Dataset(d_f=cfg.d_f, images=test_images)

    oracle = {
        "seen_labels": list(labels[: cfg.s]),
        "unseen_labels": list(labels[cfg.s :]),
        "meta_of": meta_map,
        "bg_feature_scale": bg_scale,
        "canvas": CANVAS,
        "objects_per_image": objects,
        "config": asdict(cfg),
    }
    return SyntheticBundle(
        table=table, meta_map=meta_map, train=train, test=test, oracle=oracle
    )


def propose_split(
    class_stats: Mapping[str, int],
    meta_map: Mapping[str, str],
    rng: np.random.Generator,
    exclude: Sequence[str] = (),
) -> tuple[list[str], list[str]]:
    """Pick unseen classes from the rare half of each meta-class.

    Two candidates are drawn from meta-classes with nine or more members
    and one from the others.
    Eligibility is the rarest floor(n/2) members by instance count, with
    ties at the boundary count also eligible.  Meta-classes named in
    ``exclude`` (or with fewer than two members) contribute no unseen class.
    Returned lists preserve the meta map's class order.
    """
    if not class_stats and not meta_map:
        raise ConfigError("empty class statistics")

    by_meta: dict[str, list[str]] = {}
    for cls, meta in meta_map.items():
        by_meta.setdefault(meta, []).append(cls)

    unseen: set[str] = set()
    for meta, members in by_meta.items():
        if meta in exclude:
            continue
        if len(members) < 2:
            warnings.warn(
                f"meta-class {meta!r} has fewer than two members; no unseen pick"
            )
            continue
        n_pick = min(2 if len(members) >= 9 else 1, len(members) - 1)
        ranked = sorted(members, key=lambda c: (class_stats.get(c, 0), c))
        boundary = class_stats.get(ranked[len(members) // 2 - 1], 0)
        pool = [c for c in ranked if class_stats.get(c, 0) <= boundary]
        n_pick = min(n_pick, len(pool))
        picks = rng.choice(len(pool), size=n_pick, replace=False)
        unseen.update(pool[int(i)] for i in picks)

    ordered = list(meta_map.keys())
    return [c for c in ordered if c not in unseen], [c for c in ordered if c in unseen]


def save_dataset(dataset: Dataset, path: str | os.PathLike) -> None:
    """Write ``dataset`` in the layout of :mod:`zsdet.codec`.

    The header holds ``d_f`` and, per image, ``image_id``, its proposal
    count ``proposals`` and its ground-truth labels ``gt_labels``.  Three
    blocks follow, images in order: every proposal feature, ``(ΣP, d_f)``,
    every proposal box, ``(ΣP, 4)``, and every ground-truth box, ``(ΣG, 4)``.
    Each image's arrays are written from their own buffers.
    """
    images = dataset.images
    head = {"d_f": dataset.d_f, "images": [
        {"image_id": img.image_id, "proposals": len(img.proposals),
         "gt_labels": list(img.gt_labels)}
        for img in images
    ]}
    write_blocks(path, head, chain((img.proposals.features for img in images),
                                   (img.proposals.boxes for img in images),
                                   (img.gt_boxes for img in images)))


def _require(rec, key: str, where: str, kind: type = object, line: int | None = None):
    if not isinstance(rec, dict) or key not in rec:
        raise ParseError(f"{where}missing field {key!r}", line)
    if not isinstance(rec[key], kind):
        raise ParseError(f"{where}field {key!r} must be a {kind.__name__}", line)
    return rec[key]


def _fault(rows: np.ndarray, boxes: bool) -> tuple[int, str] | None:
    """``(row, fault)`` for the first of ``rows`` that holds a non-finite value
    or, for ``boxes``, lacks ``x1 < x2`` and ``y1 < y2``; else ``None``."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        return int(np.argmin(finite)), "has a non-finite value"
    if boxes:
        ordered = (rows[:, 0] < rows[:, 2]) & (rows[:, 1] < rows[:, 3])
        if not ordered.all():
            return int(np.argmin(ordered)), "must have x1 < x2 and y1 < y2"
    return None


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Read a file that :func:`save_dataset` wrote; the file is read once.

    Each image's :class:`Proposals` and ``gt_boxes`` are row slices of the
    file's three blocks.  A header key besides ``d_f`` and ``images`` (older
    files hold ``labels``) is ignored.  Raises :class:`ParseError` for a
    header whose ``d_f`` is not a positive integer, a proposal count that is
    not a non-negative integer, ``gt_labels`` that are not a list of strings,
    a file whose length is not the header plus exactly the three blocks, a
    non-finite feature value, a proposal or ground-truth box that is not
    finite with ``x1 < x2`` and ``y1 < y2``, and a repeated ``image_id``.  An
    error in one image's data names the image by index and id.
    """
    with open(path, "rb") as f:
        head = read_header(f, "dataset")
        d_f = _require(head, "d_f", "", line=1)
        if isinstance(d_f, bool) or not isinstance(d_f, int) or d_f < 1:
            raise ParseError(f"header d_f must be a positive integer, got {d_f!r}", 1)
        index: dict[str, int] = {}  # image id to its index, in file order
        counts, gt_labels = [], []
        for k, rec in enumerate(_require(head, "images", "", list, line=1)):
            image_id = str(_require(rec, "image_id", f"image {k}: "))
            where = f"image {k} ({image_id!r}): "
            if image_id in index:
                raise ParseError(f"{where}repeats the id of image {index[image_id]}")
            index[image_id] = k
            count = _require(rec, "proposals", where, int)
            if isinstance(count, bool) or count < 0:
                raise ParseError(f"{where}proposal count must be a non-negative integer, "
                                 f"got {count!r}")
            names = _require(rec, "gt_labels", where, list)
            for i, name in enumerate(names):
                if not isinstance(name, str):
                    raise ParseError(f"{where}ground-truth label {i} must be a string, "
                                     f"got {name!r}")
            counts.append(count)
            gt_labels.append(tuple(names))
        image_ids = list(index)
        bounds, gt_bounds = [0, *accumulate(counts)], [0, *accumulate(map(len, gt_labels))]
        features, boxes, gt_boxes = read_blocks(f, "dataset", {
            "features": (bounds[-1], d_f), "boxes": (bounds[-1], 4),
            "gt_boxes": (gt_bounds[-1], 4)})
    for what, rows, starts, is_box in (("proposal feature", features, bounds, False),
                                       ("proposal box", boxes, bounds, True),
                                       ("ground-truth box", gt_boxes, gt_bounds, True)):
        fault = _fault(rows, is_box)
        if fault:
            row, text = fault
            k = bisect_right(starts, row) - 1
            raise ParseError(f"image {k} ({image_ids[k]!r}): {what} {row - starts[k]} {text}")
    images = [ImageRecord(image_id, Proposals(features[a:b], boxes[a:b]), names, gt_boxes[g:h])
              for image_id, a, b, names, g, h in zip(image_ids, bounds, bounds[1:], gt_labels,
                                                     gt_bounds, gt_bounds[1:])]
    return Dataset(d_f=d_f, images=images)


def save_split(
    seen: Sequence[str], unseen: Sequence[str], path: str | os.PathLike
) -> None:
    """Write the split as the JSON record that synth's ``oracle.json`` also is."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"seen_labels": list(seen), "unseen_labels": list(unseen)}) + "\n")


def load_split(path: str | os.PathLike) -> tuple[list[str], list[str]]:
    """Read a JSON split record (as ``save_split`` or synth's ``oracle.json``
    writes it) whose ``seen_labels`` and ``unseen_labels`` are lists of
    strings; anything else raises :class:`ParseError`."""
    try:
        rec = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON split record: {exc}")
    if not isinstance(rec, dict):
        raise ParseError(f"a split file holds one JSON object, got {type(rec).__name__}")
    for key in ("seen_labels", "unseen_labels"):
        labels = rec.get(key)
        if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
            raise ParseError(f"JSON split record needs {key!r} as a list of strings")
    return rec["seen_labels"], rec["unseen_labels"]


def save_meta_map(meta_map: Mapping[str, str], path: str | os.PathLike) -> None:
    """Write ``class,meta`` rows; a name holding a comma or a quote is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(meta_map.items())


def gt_class_ids(dataset: Dataset, space: LabelSpace) -> list[np.ndarray]:
    """Each image's ground-truth class ids ``(G,)``, in row order; a label
    outside ``space`` raises :class:`ConfigError` naming it and its image."""
    ids = dict(zip(space.labels, range(1, space.C + 1)))
    out = []
    for img in dataset.images:
        try:
            out.append(np.array([ids[label] for label in img.gt_labels], dtype=np.intp))
        except KeyError as exc:
            raise ConfigError(f"ground-truth label {exc.args[0]!r} in image {img.image_id} "
                              "not in label space") from None
    return out


def ground_truth_rows(dataset: Dataset, space: LabelSpace) -> tuple:
    """``(image_ids (g,), class ids (g,), boxes (g, 4))``: the dataset's
    ground truths as one set of rows, images in order."""
    ids = gt_class_ids(dataset, space)
    return (
        np.repeat(np.array([img.image_id for img in dataset.images], dtype=object),
                  [len(i) for i in ids]),
        np.concatenate([np.empty(0, np.intp), *ids]),
        np.concatenate([np.empty((0, 4)), *(img.gt_boxes for img in dataset.images)]),
    )
