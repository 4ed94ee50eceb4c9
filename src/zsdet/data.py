"""Dataset files, the seen/unseen split protocol, and the synthetic generator.

The generator replaces the convolutional backbone with a known linear map G
from semantic space to feature space: a positive proposal's feature is
``G v_y`` plus isotropic noise, so score-based recognition is identifiable
by construction and features of unseen classes stay related to those of
same-meta seen classes.  Ground-truth boxes live on a 3x3 grid; each
positive proposal is its object's cell under a bounded random translation,
and the remaining proposals are background (noise features, random boxes).

A dataset file is in the binary layout of :mod:`zsdet.codec`: a JSON header
line with ``d_f``, the labels and each image's id, proposal count and
ground truths, then one block of every proposal feature and one of every
proposal box (:func:`save_dataset`).  Proposals are stored unlabeled;
training assigns labels by IoU against the ground truths.  In memory an
image keeps its rows of both blocks, as :class:`Proposals`, until they are
scored or trained on.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from bisect import bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import accumulate, chain
from typing import Mapping, Sequence

import numpy as np

from .codec import read_blocks, read_header, read_utf8, write_blocks
from .errors import ConfigError, CoverageError, ParseError, check_seed
from .semantics import EmbeddingTable, LabelSpace, _readonly

CANVAS = 256.0
GRID = 3
MIN_BG_BOX = 20.0


@dataclass(frozen=True)
class Proposals:
    """An image's unlabeled region proposals as aligned rows:
    ``features (P, d_f)`` and ``boxes (P, 4)``."""

    features: np.ndarray
    boxes: np.ndarray

    def __len__(self) -> int:
        return len(self.features)


@dataclass
class ImageRecord:
    """One image: its proposals, and its ground truths as a label per row of
    ``gt_boxes (G, 4)`` (class names; :func:`gt_class_ids` gives their ids)."""

    image_id: str
    proposals: Proposals
    gt_labels: tuple[str, ...]
    gt_boxes: np.ndarray


@dataclass
class Dataset:
    d_f: int
    labels: tuple[str, ...]
    images: list[ImageRecord]

    def class_stats(self) -> dict[str, int]:
        """Ground-truth instances per class, covering all header labels."""
        counts = Counter(label for img in self.images for label in img.gt_labels)
        return {label: counts.get(label, 0) for label in self.labels}


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
    noise_sigma: float = 0.1
    meta_spread: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.u < 1:
            raise ConfigError("need at least one unseen class")
        if self.s < 1:
            raise ConfigError("need at least one seen class")
        if not 1 <= self.m <= self.s + self.u:
            raise ConfigError("meta-class count must be in 1..S+U")
        if not 0 <= self.noise_sigma < math.inf:
            raise ConfigError(f"noise_sigma must be a finite number >= 0, got {self.noise_sigma}")
        if not 0 <= self.meta_spread < math.inf:
            raise ConfigError(f"meta_spread must be a finite number >= 0, got {self.meta_spread}")
        if min(self.d, self.d_f) < 2:
            raise ConfigError("dimensionalities must be >= 2")
        if min(self.images, self.test_images, self.proposals_per_image) < 1:
            raise ConfigError("images, test_images, proposals_per_image must be >= 1")
        check_seed(self.seed)


@dataclass
class SyntheticBundle:
    """Everything the generator emits, including the latent oracle record."""

    table: EmbeddingTable
    meta_map: dict[str, str]
    train: Dataset
    test: Dataset
    oracle: dict


def _grid_cell(idx: int) -> np.ndarray:
    cell = CANVAS / GRID
    r, c = divmod(idx, GRID)
    return np.array([c * cell, r * cell, (c + 1) * cell, (r + 1) * cell])


def _make_image(
    image_id: str,
    class_ids: np.ndarray,
    labels: Sequence[str],
    g_map: np.ndarray,
    vectors: np.ndarray,
    bg_scale: float,
    cfg: SynthConfig,
    rng: np.random.Generator,
) -> ImageRecord:
    cell = CANVAS / GRID
    cells = rng.choice(GRID * GRID, size=class_ids.size, replace=False)
    features = np.empty((cfg.proposals_per_image, cfg.d_f))
    boxes = np.empty((cfg.proposals_per_image, 4))
    gt_boxes = np.empty((class_ids.size, 4))
    # a huge noise_sigma overflows here; the check below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (cid, cell_idx) in enumerate(zip(class_ids, cells)):
            gt_boxes[i] = _grid_cell(int(cell_idx))
            features[i] = (g_map @ vectors[:, cid - 1]
                           + cfg.noise_sigma * rng.standard_normal(cfg.d_f))
            shift = rng.uniform(-0.2, 0.2, size=2) * cell
            boxes[i] = gt_boxes[i] + shift[[0, 1, 0, 1]]
        for i in range(class_ids.size, cfg.proposals_per_image):
            features[i] = cfg.noise_sigma * bg_scale * rng.standard_normal(cfg.d_f)
            x1 = rng.uniform(0.0, CANVAS - MIN_BG_BOX)
            y1 = rng.uniform(0.0, CANVAS - MIN_BG_BOX)
            w = rng.uniform(MIN_BG_BOX, CANVAS / 2)
            h = rng.uniform(MIN_BG_BOX, CANVAS / 2)
            boxes[i] = (x1, y1, min(x1 + w, CANVAS), min(y1 + h, CANVAS))
    if not np.isfinite(features).all():
        raise ConfigError(f"noise_sigma {cfg.noise_sigma} is too large: "
                          f"proposal features overflow")
    gt_labels = tuple(labels[cid - 1] for cid in class_ids)
    return ImageRecord(image_id, Proposals(features, boxes), gt_labels, gt_boxes)


def generate_synthetic(cfg: SynthConfig) -> SyntheticBundle:
    """Build embeddings, meta map, train/test datasets, and the oracle record.

    Classes are assigned to meta-classes round-robin so every meta-class
    mixes seen and unseen members whenever counts allow.  The train set
    contains no unseen instances (hard-checked); every test image holds at
    least one unseen instance.
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
        with np.errstate(over="ignore"):  # a huge meta_spread is refused below
            v = centroids[:, i % cfg.m] + cfg.meta_spread * rng.standard_normal(cfg.d)
            norm = np.linalg.norm(v)
        if not norm < math.inf:
            raise ConfigError(f"meta_spread {cfg.meta_spread} is too large: "
                              f"a class vector's norm overflows")
        raw[:, i] = v / norm
    vectors = _readonly(raw)
    background = _readonly(raw.mean(axis=1))
    table = EmbeddingTable(labels=labels, vectors=vectors, background=background)

    g_map = rng.standard_normal((cfg.d_f, cfg.d)) / np.sqrt(cfg.d)
    bg_scale = float(
        np.sqrt(np.mean(np.linalg.norm(g_map @ vectors, axis=0) ** 2)) / np.sqrt(cfg.d_f)
    )

    objects = min(max(1, cfg.proposals_per_image // 4), GRID * GRID)
    seen_ids = np.arange(1, cfg.s + 1)
    unseen_ids = np.arange(cfg.s + 1, n_classes + 1)
    all_ids = np.arange(1, n_classes + 1)

    train_images = [
        _make_image(
            f"train{i:04d}",
            rng.choice(seen_ids, size=objects, replace=True),
            labels,
            g_map,
            vectors,
            bg_scale,
            cfg,
            rng,
        )
        for i in range(cfg.images)
    ]
    test_images = []
    for i in range(cfg.test_images):
        first = rng.choice(unseen_ids, size=1)
        rest = rng.choice(all_ids, size=objects - 1, replace=True) if objects > 1 else []
        test_images.append(
            _make_image(
                f"test{i:04d}",
                np.concatenate([first, rest]).astype(int) if objects > 1 else first,
                labels,
                g_map,
                vectors,
                bg_scale,
                cfg,
                rng,
            )
        )

    train = Dataset(d_f=cfg.d_f, labels=labels, images=train_images)
    test = Dataset(d_f=cfg.d_f, labels=labels, images=test_images)

    unseen_set = set(labels[cfg.s :])
    leaked = [
        label for img in train.images for label in img.gt_labels if label in unseen_set
    ]
    if leaked:
        raise AssertionError(f"unseen labels leaked into the train set: {leaked[:5]}")

    oracle = {
        "seen_labels": list(labels[: cfg.s]),
        "unseen_labels": list(labels[cfg.s :]),
        "meta_of": meta_map,
        "g_map": g_map,
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

    The header holds ``d_f``, ``labels`` and, per image, ``image_id``, its
    proposal count ``proposals`` and its ground truths ``gts`` as a list of
    ``{label, box}``.  Two blocks follow: every image's proposal features,
    ``(ΣP, d_f)``, then every image's proposal boxes, ``(ΣP, 4)``, images in
    order.  The images' records are encoded one at a time, and their arrays
    written from their own buffers.
    """
    head = {"d_f": dataset.d_f, "labels": list(dataset.labels), "images": (
        {"image_id": img.image_id, "proposals": len(img.proposals), "gts": [
            {"label": label, "box": box}
            for label, box in zip(img.gt_labels, img.gt_boxes.tolist())
        ]}
        for img in dataset.images
    )}
    write_blocks(path, head, chain((img.proposals.features for img in dataset.images),
                                   (img.proposals.boxes for img in dataset.images)))


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


def _gt_boxes(gts: list, where: str) -> np.ndarray:
    """The ``box`` of each ground truth as one checked ``(G, 4)`` array.

    Converted in one call; only a malformed list is walked row by row, to
    name the offending entry.
    """
    values = [_require(g, "box", where) for g in gts]
    if not values:
        return np.empty((0, 4))
    try:
        rows = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        rows = None
    if rows is None or rows.shape != (len(values), 4):
        for i, value in enumerate(values):
            try:
                row = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ParseError(f"{where}ground-truth box {i} must be numbers: {exc}")
            if row.shape != (4,):
                raise ParseError(f"{where}ground-truth box {i} has shape {row.shape}, "
                                 "expected (4,)")
        raise ParseError(f"{where}each ground-truth box must be a list of 4 numbers")
    fault = _fault(rows, boxes=True)
    if fault:
        raise ParseError(f"{where}ground-truth box {fault[0]} {fault[1]}")
    return rows


def load_dataset(path: str | os.PathLike) -> Dataset:
    """Read a file that :func:`save_dataset` wrote; the file is read once.

    Each image's :class:`Proposals` are row slices of the file's two blocks.
    Raises :class:`ParseError` for a header whose ``d_f`` is not a positive
    integer or whose ``labels`` are not strings, a proposal count that is not
    a non-negative integer, a file whose length is not the header plus
    exactly the two blocks, a non-finite feature value, a box that is not 4
    finite numbers with ``x1 < x2`` and ``y1 < y2``, and a repeated
    ``image_id``.  An error in one image's data names the image by index and id.
    """
    with open(path, "rb") as f:
        head = read_header(f, "dataset")
        d_f = _require(head, "d_f", "", line=1)
        labels = _require(head, "labels", "", line=1)
        if isinstance(d_f, bool) or not isinstance(d_f, int) or d_f < 1:
            raise ParseError(f"header d_f must be a positive integer, got {d_f!r}", 1)
        if not (isinstance(labels, list) and all(isinstance(l, str) for l in labels)):
            raise ParseError("header labels must be a list of strings", 1)
        index: dict[str, int] = {}  # image id to its index, in file order
        counts, annotations = [], []
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
            gts = _require(rec, "gts", where, list)
            gt_boxes = _gt_boxes(gts, where)
            counts.append(count)
            annotations.append((tuple(str(_require(g, "label", where)) for g in gts),
                                gt_boxes))
        image_ids, bounds = list(index), [0, *accumulate(counts)]
        features, boxes = read_blocks(f, "dataset", {"features": (bounds[-1], d_f),
                                                     "boxes": (bounds[-1], 4)})
    for what, rows, is_box in (("proposal feature", features, False),
                               ("proposal box", boxes, True)):
        fault = _fault(rows, is_box)
        if fault:
            row, text = fault
            k = bisect_right(bounds, row) - 1
            raise ParseError(f"image {k} ({image_ids[k]!r}): {what} {row - bounds[k]} {text}")
    images = [ImageRecord(image_id, Proposals(features[a:b], boxes[a:b]), *gts)
              for image_id, a, b, gts in zip(image_ids, bounds, bounds[1:], annotations)]
    return Dataset(d_f=d_f, labels=tuple(labels), images=images)


def save_split(
    seen: Sequence[str], unseen: Sequence[str], path: str | os.PathLike
) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("seen: " + ",".join(seen) + "\n")
        f.write("unseen: " + ",".join(unseen) + "\n")


def load_split(path: str | os.PathLike) -> tuple[list[str], list[str]]:
    """Read a split file; also accepts a JSON record whose ``seen_labels`` and
    ``unseen_labels`` are lists of strings."""
    text = read_utf8(path)
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON split record: {exc}")
        for key in ("seen_labels", "unseen_labels"):
            labels = rec.get(key)
            if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
                raise ParseError(f"JSON split record needs {key!r} as a list of strings")
        return rec["seen_labels"], rec["unseen_labels"]
    seen: list[str] | None = None
    unseen: list[str] | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("seen:"):
            seen = [t for t in line[len("seen:") :].strip().split(",") if t]
        elif line.startswith("unseen:"):
            unseen = [t for t in line[len("unseen:") :].strip().split(",") if t]
        else:
            raise ParseError("expected 'seen:' or 'unseen:' prefix", lineno)
    if seen is None or unseen is None:
        raise ParseError("split file must define both seen and unseen lines")
    return seen, unseen


def save_meta_map(meta_map: Mapping[str, str], path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for cls, meta in meta_map.items():
            f.write(f"{cls},{meta}\n")


def gt_class_ids(dataset: Dataset, space: LabelSpace) -> list[np.ndarray]:
    """Each image's ground-truth class ids ``(G,)``, in row order; a label
    outside ``space`` raises :class:`CoverageError` naming it and its image."""
    ids = dict(zip(space.labels, range(1, space.C + 1)))
    out = []
    for img in dataset.images:
        try:
            out.append(np.array([ids[label] for label in img.gt_labels], dtype=np.intp))
        except KeyError as exc:
            raise CoverageError(f"ground-truth label {exc.args[0]!r} in image {img.image_id} "
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
