"""Shared builders for small hand-constructed instances, and the argument
lists that drive each pipeline stage through the CLI."""

import base64
import json
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

import zsdet.train
from zsdet.cli import main
from zsdet.data import (CANVAS, GRID, META_SPREAD, MIN_BG_BOX, NOISE_SIGMA, Dataset,
                        ImageRecord, Proposals, SyntheticBundle)
from zsdet.evaluation import average_precision
from zsdet.infer import Detections
from zsdet.loss import LossBreakdown, _class_terms
from zsdet.model import Model, init_model
from zsdet.semantics import EmbeddingTable, build_label_space, finalize_embeddings


def run(*argv):
    """``zsdet.cli.main`` on ``argv``, each argument as its ``str``."""
    return main([str(a) for a in argv])


def stage_args(command, **flags):
    """``[command, "--flag", value, ...]``, a flag per keyword with its
    underscores as dashes: ``n_pos=4`` is ``--n-pos 4``, and
    ``**{"lambda": 1.0}`` is ``--lambda 1.0``."""
    argv = [command]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", value]
    return argv


def train_args(synth_dir, out, /, **flags):
    """``zsdet train`` on a synth directory's word vectors, meta map, oracle
    split and train set, writing the checkpoint ``out``; a keyword adds a
    flag or replaces one of these (``split=``, ``data=``)."""
    return stage_args("train", **{
        "embeddings": synth_dir / "embeddings.txt", "meta_map": synth_dir / "meta_map.csv",
        "split": synth_dir / "oracle.json", "data": synth_dir / "train.jsonl", "out": out,
    } | flags)


def model_args(command, synth_dir, ckpt, /, **flags):
    """``zsdet predict``, ``eval`` or ``export-embeddings`` on the checkpoint
    ``ckpt`` and a synth directory's word vectors; ``predict`` and ``eval``
    also read its meta map and, unless ``data=`` names another, its test
    set.  A keyword adds a flag or replaces one of these."""
    base = {"checkpoint": ckpt, "embeddings": synth_dir / "embeddings.txt"}
    if command != "export-embeddings":
        base |= {"meta_map": synth_dir / "meta_map.csv", "data": synth_dir / "test.jsonl"}
    return stage_args(command, **(base | flags))


def make_table(vectors, labels=None):
    """Table from raw column vectors (d, C)."""
    vectors = np.asarray(vectors, dtype=np.float64)
    if labels is None:
        labels = tuple(f"c{i}" for i in range(1, vectors.shape[1] + 1))
    return finalize_embeddings(labels, vectors)


def make_space(n_seen, n_unseen, meta_of=None, n_meta=None, labels=None):
    """Label space over c1..cN; default meta assignment is round-robin."""
    n = n_seen + n_unseen
    if labels is None:
        labels = [f"c{i}" for i in range(1, n + 1)]
    if meta_of is None:
        n_meta = n_meta or min(3, n)
        meta_of = {labels[i]: f"m{(i % n_meta) + 1}" for i in range(n)}
    return build_label_space(labels[:n_seen], labels[n_seen:], meta_of)


def permuted(table, cols):
    """``table``'s classes stored in the column order ``cols``, with its own
    background: a mean taken in another order can differ in its last bit."""
    return EmbeddingTable(tuple(table.labels[c] for c in cols), table.vectors[:, cols],
                          table.background)


def column(table, label):
    """The unit vector of ``label`` in ``table``."""
    return table.vectors[:, table.labels.index(label)]


def make_model(table, space, d_f=None, seed=0, mode="full") -> Model:
    return init_model(table.w2(space.labels), space, d_f or table.d, seed, mode)


def axis_setup(n_seen=2, n_unseen=1, d=4):
    """Orthonormal axis embeddings with identity W1: scores are cosines."""
    n = n_seen + n_unseen
    table = make_table(np.eye(d)[:, :n])
    space = make_space(n_seen, n_unseen)
    model = replace(make_model(table, space, d_f=d), w1=np.eye(d))
    return model, table, space


def block_file_bytes(head, arrays):
    """A file in the checkpoint and dataset layout: ``json.dumps(head)`` and a
    newline, then the little-endian float64 bytes of each of ``arrays``."""
    blocks = (np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)
    return (json.dumps(head) + "\n").encode("ascii") + b"".join(blocks)


def read_dataset(path):
    """A dataset file as ``(header, features, boxes, gt_boxes)``: the JSON
    object on its first line, and its three raw blocks, ``(ΣP, d_f)``,
    ``(ΣP, 4)`` and ``(ΣG, 4)``.  The blocks must end the file."""
    raw = Path(path).read_bytes()
    end = raw.index(b"\n")
    head = json.loads(raw[:end].decode("ascii"))
    rows = sum(image["proposals"] for image in head["images"])
    gts = sum(len(image["gt_labels"]) for image in head["images"])
    blocks = np.frombuffer(raw, dtype="<f8", offset=end + 1)
    assert blocks.size == rows * (head["d_f"] + 4) + gts * 4, "the blocks do not end the file"
    split, gt_start = rows * head["d_f"], rows * (head["d_f"] + 4)
    return (head, blocks[:split].reshape(rows, -1).copy(),
            blocks[split:gt_start].reshape(rows, 4).copy(), blocks[gt_start:].reshape(gts, 4).copy())


def write_dataset(path, head, features, boxes, gt_boxes):
    """Invert :func:`read_dataset` (a test may make the parts disagree)."""
    Path(path).write_bytes(block_file_bytes(head, (features, boxes, gt_boxes)))


CHECKPOINT_BLOCKS = ("W1", "box_weights", "box_bias")


def read_checkpoint(path):
    """A checkpoint file as ``(header, arrays)``: the JSON object on its first
    line, and ``{name: float64 array}`` of the raw blocks after it, shaped
    from the header's ``d_f``, ``d`` and ``S``.  The blocks must end the file."""
    raw = Path(path).read_bytes()
    end = raw.index(b"\n")
    head = json.loads(raw[:end].decode("ascii"))
    d_f, d, s = head["d_f"], head["d"], head["S"]
    arrays, at = {}, end + 1
    for key, shape in zip(CHECKPOINT_BLOCKS, ((d_f, d), (d_f, 4 * s), (4 * s,))):
        n = math.prod(shape)
        arrays[key] = np.frombuffer(raw, dtype="<f8", count=n, offset=at).reshape(shape).copy()
        at += 8 * n
    assert at == len(raw), f"{len(raw) - at} bytes after the last block"
    return head, arrays


def write_checkpoint(path, head, arrays):
    """Invert :func:`read_checkpoint` (a test may drop or reshape an array)."""
    Path(path).write_bytes(block_file_bytes(head, arrays.values()))


def base64_array(a):
    """Base64 text of ``a``'s little-endian float64 bytes in C order: how
    checkpoints stored arrays before raw blocks."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8")).decode("ascii")


def legacy_checkpoint_bytes(head, arrays, encode):
    """A checkpoint in a format from before raw blocks: one JSON object with
    each array as ``encode(array)`` (a list, or a base64 string) between the
    labels and the mode."""
    payload = {k: v for k, v in head.items() if k != "mode"}
    payload |= {key: encode(a) for key, a in arrays.items()}
    payload["mode"] = head["mode"]
    return (json.dumps(payload) + "\n").encode("ascii")


def _reference_image(image_id, class_ids, labels, g_map, vectors, bg_scale, cfg, rng):
    """One synthetic image built a proposal at a time, each value from its
    own draw: the reference for :func:`zsdet.data._make_image`."""
    cell = CANVAS / GRID
    cells = rng.choice(GRID * GRID, size=class_ids.size, replace=False)
    features = np.empty((cfg.proposals_per_image, cfg.d_f))
    boxes = np.empty((cfg.proposals_per_image, 4))
    gt_boxes = np.empty((class_ids.size, 4))
    for i, (cid, cell_idx) in enumerate(zip(class_ids, cells)):
        r, c = divmod(int(cell_idx), GRID)
        gt_boxes[i] = (c * cell, r * cell, (c + 1) * cell, (r + 1) * cell)
        features[i] = g_map @ vectors[:, cid - 1] + NOISE_SIGMA * rng.standard_normal(cfg.d_f)
        shift = rng.uniform(-0.2, 0.2, size=2) * cell
        boxes[i] = gt_boxes[i] + shift[[0, 1, 0, 1]]
    for i in range(class_ids.size, cfg.proposals_per_image):
        features[i] = NOISE_SIGMA * bg_scale * rng.standard_normal(cfg.d_f)
        x1 = rng.uniform(0.0, CANVAS - MIN_BG_BOX)
        y1 = rng.uniform(0.0, CANVAS - MIN_BG_BOX)
        w = rng.uniform(MIN_BG_BOX, CANVAS / 2)
        h = rng.uniform(MIN_BG_BOX, CANVAS / 2)
        boxes[i] = (x1, y1, min(x1 + w, CANVAS), min(y1 + h, CANVAS))
    gt_labels = tuple(labels[cid - 1] for cid in class_ids)
    return ImageRecord(image_id, Proposals(features, boxes), gt_labels, gt_boxes)


def reference_synthetic(cfg):
    """The reference for :func:`zsdet.data.generate_synthetic` on a config
    whose values stay finite: the same random stream, drawn in the same order,
    with every proposal built from its own draws."""
    rng = np.random.default_rng(cfg.seed)
    n_classes = cfg.s + cfg.u
    labels = tuple(f"class{i:03d}" for i in range(1, n_classes + 1))
    meta_labels = tuple(f"meta{j:02d}" for j in range(1, cfg.m + 1))
    meta_map = {labels[i]: meta_labels[i % cfg.m] for i in range(n_classes)}
    centroids = rng.standard_normal((cfg.d, cfg.m))
    centroids /= np.linalg.norm(centroids, axis=0)
    vectors = np.empty((cfg.d, n_classes))
    for i in range(n_classes):
        v = centroids[:, i % cfg.m] + META_SPREAD * rng.standard_normal(cfg.d)
        vectors[:, i] = v / np.linalg.norm(v)
    table = EmbeddingTable(labels, vectors, vectors.mean(axis=1))
    g_map = rng.standard_normal((cfg.d_f, cfg.d)) / np.sqrt(cfg.d)
    bg_scale = float(
        np.sqrt(np.mean(np.linalg.norm(g_map @ vectors, axis=0) ** 2)) / np.sqrt(cfg.d_f))
    objects = min(max(1, cfg.proposals_per_image // 4), GRID * GRID)
    seen_ids, all_ids = np.arange(1, cfg.s + 1), np.arange(1, n_classes + 1)

    def image(image_id, class_ids):
        return _reference_image(image_id, class_ids, labels, g_map, vectors, bg_scale, cfg, rng)

    train = [image(f"train{i:04d}", rng.choice(seen_ids, size=objects, replace=True))
             for i in range(cfg.images)]
    test = []
    for i in range(cfg.test_images):
        first = rng.choice(np.arange(cfg.s + 1, n_classes + 1), size=1)
        if objects > 1:
            first = np.concatenate([first, rng.choice(all_ids, size=objects - 1, replace=True)])
        test.append(image(f"test{i:04d}", first))
    oracle = {
        "seen_labels": list(labels[: cfg.s]), "unseen_labels": list(labels[cfg.s :]),
        "meta_of": meta_map, "bg_feature_scale": bg_scale, "canvas": CANVAS,
        "objects_per_image": objects, "config": asdict(cfg),
    }
    return SyntheticBundle(table, meta_map, Dataset(cfg.d_f, train), Dataset(cfg.d_f, test),
                           oracle)


@dataclass(frozen=True)
class Detection:
    """One detection row, the reference form of a :class:`Detections` row."""

    image_id: str
    label: int
    score: float
    box: np.ndarray


@dataclass(frozen=True)
class GroundTruth:
    """One annotated box, the reference form of a ground-truth row."""

    image_id: str
    label: int
    box: np.ndarray


def gt_rows(gts):
    """``gts`` as the ``(image_ids, class ids, boxes)`` rows that
    :func:`zsdet.evaluation.evaluate` takes."""
    return (np.array([g.image_id for g in gts], dtype=object),
            np.array([g.label for g in gts], dtype=np.intp),
            np.array([g.box for g in gts], dtype=np.float64).reshape(-1, 4))


def read_dump(path, labels):
    """The :class:`Detection` rows of a detection dump, in file order;
    ``labels`` names the class ids, as in :func:`zsdet.infer.dump_detections`."""
    with open(path, encoding="utf-8") as f:
        recs = [json.loads(line) for line in f]
    return [Detection(r["image_id"], labels.index(r["label"]) + 1, r["score"],
                      np.array(r["box"], dtype=np.float64)) for r in recs]


def stacked(rows, image_id="i"):
    """One image's :class:`Detections` from ``rows`` (their image ids unread)."""
    return Detections(image_id,
                      np.array([d.label for d in rows], dtype=np.intp),
                      np.array([d.score for d in rows], dtype=np.float64),
                      np.array([d.box for d in rows], dtype=np.float64).reshape(-1, 4))


def per_image(rows):
    """``rows`` as one :class:`Detections` per run of equal image id."""
    return [stacked(list(run), image_id) for image_id, run in groupby(rows, lambda d: d.image_id)]


def rows_of(detections):
    """The rows of one :class:`Detections`, or of a list of them, in order."""
    if isinstance(detections, Detections):
        detections = [detections]
    return [Detection(d.image_id, int(label), float(score), box)
            for d in detections for label, score, box in zip(d.labels, d.scores, d.boxes)]


def ap_of(rows, gts, thresh):
    """:func:`average_precision` of one label's detection ``rows`` against
    its ground truths ``gts``."""
    d, (gt_image_ids, _, gt_boxes) = stacked(rows), gt_rows(gts)
    return average_precision([r.image_id for r in rows], d.scores, d.boxes,
                             gt_image_ids, gt_boxes, thresh)


def classification_loss(o, y, space, lam, mode="full"):
    """One score row's :func:`zsdet.loss._class_terms`, mixed with the
    effective lambda (1.0 in ``seen_only``): ``lam*L_mm + (1-lam)*L_mc``."""
    l_mm, l_mc, _ = _class_terms(np.asarray(o, dtype=np.float64)[None], np.array([y]),
                                 space, lam, mode)
    l_mm, l_mc, lam = float(l_mm[0]), float(l_mc[0]), 1.0 if mode == "seen_only" else lam
    l_cls = lam * l_mm + (1.0 - lam) * l_mc
    return LossBreakdown(l_mm, l_mc, l_cls, 0.0, l_cls, lam)


def max_margin_loss(o, y, space, mode="full"):
    return classification_loss(o, y, space, 1.0, mode).l_mm


def clustering_loss(o, y, space):
    return classification_loss(o, y, space, 0.0).l_mc


def random_unit_columns(rng, d, n):
    v = rng.standard_normal((d, n))
    return v / np.linalg.norm(v, axis=0)


@contextmanager
def adam_cpus(n):
    """Run ``adam_step`` as in a process that may use ``n`` CPUs: with 2 a
    multi-block step hands half of its blocks to the worker thread, with 1
    the caller runs them all.  Yields the set of thread names that ran
    blocks, filled as steps run."""
    ran = set()

    def recorded(*args):
        ran.add(threading.current_thread().name)
        return blocks(*args)

    blocks = zsdet.train._adam_blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        mp.setattr(zsdet.train, "_adam_blocks", recorded)
        zsdet.train._adam_worker.cache_clear()
        try:
            yield ran
        finally:
            worker = zsdet.train._adam_worker(os.getpid())
            if worker is not None:
                worker.shutdown()
            zsdet.train._adam_worker.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
