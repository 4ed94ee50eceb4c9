"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass/fail line
per criterion.  The synthetic end-to-end ordering experiment (criteria 4-7)
is trained once per session, one seed per task on two worker processes, and
shared; criterion 7 repeats it from scratch in fresh workers to check
bit-level determinism.
"""

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from zsdet.audit import random_batch
from zsdet.data import SynthConfig, generate_synthetic, ground_truth_rows
from zsdet.evaluation import evaluate, nms
from zsdet.infer import conse_detect, detect, tag_image
from zsdet.loss import loss_gradients
from zsdet.model import init_model, modified_embeddings, save_checkpoint
from zsdet.semantics import build_label_space, load_word_vectors, meta_cosine_stats, save_word_vectors
from zsdet.train import TrainConfig, train

from conftest import (
    Detection,
    ap_of,
    classification_loss,
    make_space,
    make_table,
    per_image,
    random_unit_columns,
    stacked,
)
from test_evaluation import ap_ref, nms_ref, random_case


@contextmanager
def criterion(n: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"criterion {n}: FAIL - {desc}")
        raise
    print(f"criterion {n}: PASS - {desc}")


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_gradient_fidelity():
    rng = np.random.default_rng(101)
    combos = [(m, l) for m in ("full", "seen_only") for l in (0.0, 0.6, 1.0)]
    h = 1e-5
    started = time.monotonic()
    worst = 0.0
    with criterion(1, "analytic W1 gradients match central finite differences (<1e-4)"):
        for trial in range(100):
            mode, lam = combos[trial % len(combos)]
            space = make_space(5, 2, n_meta=3)
            table = make_table(random_unit_columns(rng, 8, 7))
            from conftest import make_model

            model = make_model(table, space, d_f=8, seed=int(rng.integers(2**31)), mode=mode)
            model = replace(model, w1=rng.standard_normal((8, 8)) * 0.5,
                            box_w=rng.standard_normal(model.box_w.shape) * 0.1,
                            box_b=rng.standard_normal(model.box_b.shape) * 0.1)
            batch = random_batch(rng, space, 8, size=4)
            _, grads = loss_gradients(model, batch, space, lam)
            flat = model.w1.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_gradients(model, batch, space, lam)[0].total
                flat[idx] = orig - h
                down = loss_gradients(model, batch, space, lam)[0].total
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                analytic = float(grads["w1"].reshape(-1)[idx])
                scale = max(abs(analytic), abs(numeric))
                if scale >= 1e-7:
                    worst = max(worst, abs(analytic - numeric) / scale)
        elapsed = time.monotonic() - started
        assert worst < 1e-4, f"max relative error {worst:.3e}"
        assert elapsed < 10.0, f"gradient audit took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: metric oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(202)
    started = time.monotonic()
    with criterion(2, "AP and NMS match brute-force references on 500 tiny cases"):
        for _ in range(500):
            dets, gts = random_case(rng)
            ap = ap_of(dets, gts, 0.5)
            assert ap == pytest.approx(ap_ref(dets, gts, 0.5), abs=1e-9)
            kept = [dets[i] for i in nms(stacked(dets), 0.4)]
            ref = nms_ref(dets, 0.4)
            assert [id(d) for d in kept] == [id(d) for d in ref]
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"metric oracle sweep took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: loss identities
# ---------------------------------------------------------------------------


def test_criterion_3_loss_identities():
    rng = np.random.default_rng(303)
    with criterion(3, "lambda identities, log-2 uniform case, seen-only invariance"):
        space = make_space(5, 2, n_meta=3)
        for _ in range(20):
            o = rng.standard_normal(space.bg_id) * 2
            y = int(rng.integers(1, space.S + 1))
            b1 = classification_loss(o, y, space, lam=1.0)
            assert b1.l_cls == b1.l_mm
            b0 = classification_loss(o, y, space, lam=0.0)
            assert b0.l_cls == b0.l_mc

            uniform = np.full(space.bg_id, float(rng.standard_normal()))
            bu = classification_loss(uniform, y, space, lam=0.37)
            assert abs(bu.l_mm - math.log(2)) <= 1e-12
            assert abs(bu.l_mc - math.log(2)) <= 1e-12

            base = classification_loss(o, y, space, lam=0.5, mode="seen_only")
            perturbed = o.copy()
            perturbed[space.S : space.C] += rng.standard_normal(space.U) * 1e6
            alt = classification_loss(perturbed, y, space, lam=0.5, mode="seen_only")
            assert alt.l_cls == base.l_cls
            assert alt.total == base.total


# ---------------------------------------------------------------------------
# criteria 4-7: synthetic end-to-end ordering experiment
# ---------------------------------------------------------------------------

SEEDS = (0, 1, 2, 3, 4)
ALPHA_CLUSTER = 0.2
ALPHA_CONSE = 0.1
CONSE_K = 10


def _train_config(seed, lam, mode):
    return TrainConfig(
        lam=lam, mode=mode, lr=1e-3, epochs=15, n_pos=8, n_neg=8,
        min_similar=200, seed=seed,
    )


def _checkpoint_bytes(model, tmp_path, name):
    path = tmp_path / name
    save_checkpoint(model, path)
    return path.read_bytes()


def _zsd_map(dets, gts, space):
    return evaluate(dets, gts, space, "T1").mean_ap


def _collect(detector, images):
    return [detector(img) for img in images]


def _run_seed(seed, tmp_path):
    """Train all method variants on one seed; return its mAPs, gaps, checkpoints."""
    cfg = SynthConfig(
        s=20, u=5, m=5, d=16, d_f=16, images=200, test_images=50, seed=seed,
    )
    bundle = generate_synthetic(cfg)
    space = build_label_space(
        bundle.oracle["seen_labels"], bundle.oracle["unseen_labels"], bundle.meta_map
    )
    w2 = bundle.table.w2(space.labels)
    gts = ground_truth_rows(bundle.test, space)

    cluster, _ = train(bundle.train, w2, space, _train_config(seed, 0.8, "full"))
    margin_only, _ = train(bundle.train, w2, space, _train_config(seed, 1.0, "full"))
    seen_only, _ = train(bundle.train, w2, space, _train_config(seed, 1.0, "seen_only"))
    baseline = init_model(w2, space, bundle.train.d_f, seed, "seen_only")

    maps = {
        "cluster": _zsd_map(
            _collect(
                lambda img: detect(cluster, img.proposals, img.image_id, ALPHA_CLUSTER),
                bundle.test.images,
            ),
            gts, space,
        ),
        "seen_only": _zsd_map(
            _collect(
                lambda img: conse_detect(
                    seen_only, img.proposals, img.image_id, CONSE_K, ALPHA_CONSE
                ),
                bundle.test.images,
            ),
            gts, space,
        ),
        "baseline": _zsd_map(
            _collect(
                lambda img: conse_detect(
                    baseline, img.proposals, img.image_id, CONSE_K, ALPHA_CONSE
                ),
                bundle.test.images,
            ),
            gts, space,
        ),
    }

    chance_rng = np.random.default_rng([seed, 99])
    chance_dets = [
        Detection(
            img.image_id,
            int(chance_rng.integers(space.S + 1, space.C + 1)),
            float(chance_rng.uniform()),
            np.asarray(box),
        )
        for img in bundle.test.images
        for box in img.proposals.boxes
    ]
    maps["chance"] = _zsd_map(per_image(chance_dets), gts, space)

    tag_maps = {}
    for name, model in (("cluster", cluster), ("seen_only", seen_only), ("baseline", baseline)):
        tags = ([img.image_id for img in bundle.test.images],
                np.array([tag_image(model, img.proposals) for img in bundle.test.images]))
        tag_maps[name] = {
            "T3": evaluate(tags, gts, space, "T3").mean_ap,
            "T4": evaluate(tags, gts, space, "T4").mean_ap,
        }

    # embedding separation, measured on the exported modified vectors
    gaps = {}
    for name, model in (("cluster", cluster), ("margin_only", margin_only)):
        path = tmp_path / f"modified_{name}_{seed}.txt"
        save_word_vectors(path, space.labels, modified_embeddings(model))
        exported = load_word_vectors(path)
        intra, inter = meta_cosine_stats(exported.vectors, space)
        gaps[name] = (intra, inter)

    return {
        "maps": maps,
        "tags": tag_maps,
        "gaps": gaps,
        "checkpoints": {
            "cluster": _checkpoint_bytes(cluster, tmp_path, f"cluster_{seed}.json"),
            "margin_only": _checkpoint_bytes(margin_only, tmp_path, f"margin_{seed}.json"),
            "seen_only": _checkpoint_bytes(seen_only, tmp_path, f"seen_{seed}.json"),
        },
    }


def _run_experiment(tmp_path):
    """Train all method variants on 5 seeds, one seed per task on two worker
    processes; return mAPs, gaps, checkpoints and the wall time."""
    started = time.monotonic()
    # spawned workers start clean: no BLAS or hypothesis state is forked
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        per_seed = list(pool.map(_run_seed, SEEDS, [tmp_path] * len(SEEDS), timeout=300.0))
    return {"per_seed": per_seed, "elapsed": time.monotonic() - started}


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    return _run_experiment(tmp_path_factory.mktemp("exp"))


def _avg(experiment, key):
    return float(np.mean([s["maps"][key] for s in experiment["per_seed"]]))


def test_criterion_4_end_to_end_ordering(experiment):
    with criterion(4, "seed-averaged ZSD ordering cluster >= conse >= baseline, 3x chance"):
        cluster = _avg(experiment, "cluster")
        seen_only = _avg(experiment, "seen_only")
        baseline = _avg(experiment, "baseline")
        chance = _avg(experiment, "chance")
        print(
            f"  ZSD mAP: cluster={cluster:.4f} conse={seen_only:.4f} "
            f"baseline={baseline:.4f} chance={chance:.4f} "
            f"({experiment['elapsed']:.0f}s)"
        )
        assert cluster - seen_only >= -0.01
        assert seen_only - baseline >= -0.01
        assert cluster >= 3.0 * chance
        assert experiment["elapsed"] < 300.0, "experiment exceeded 5 minutes"


def test_criterion_5_embedding_separation(experiment):
    with criterion(5, "cluster training widens the intra/inter meta cosine gap"):
        gap_cluster = float(
            np.mean([s["gaps"]["cluster"][0] - s["gaps"]["cluster"][1] for s in experiment["per_seed"]])
        )
        gap_margin = float(
            np.mean(
                [s["gaps"]["margin_only"][0] - s["gaps"]["margin_only"][1] for s in experiment["per_seed"]]
            )
        )
        intra = float(np.mean([s["gaps"]["cluster"][0] for s in experiment["per_seed"]]))
        inter = float(np.mean([s["gaps"]["cluster"][1] for s in experiment["per_seed"]]))
        print(f"  cluster intra={intra:.4f} inter={inter:.4f}; gap {gap_cluster:.4f} vs margin-only {gap_margin:.4f}")
        assert intra > inter
        assert gap_cluster > gap_margin


def test_criterion_6_task_relaxation(experiment):
    with criterion(6, "meta-class tagging mAP >= tagging mAP for every method"):
        for method in ("cluster", "seen_only", "baseline"):
            t3 = float(np.mean([s["tags"][method]["T3"] for s in experiment["per_seed"]]))
            t4 = float(np.mean([s["tags"][method]["T4"] for s in experiment["per_seed"]]))
            assert t4 >= t3, f"{method}: ZSMT {t4:.4f} < ZST {t3:.4f}"


def test_criterion_7_determinism(experiment, tmp_path):
    with criterion(7, "repeat run reproduces every mAP (1e-12) and checkpoint bytes"):
        repeat = _run_experiment(tmp_path)
        for first, second in zip(experiment["per_seed"], repeat["per_seed"]):
            for key in first["maps"]:
                assert abs(first["maps"][key] - second["maps"][key]) <= 1e-12
            for method in first["tags"]:
                for task in ("T3", "T4"):
                    assert abs(first["tags"][method][task] - second["tags"][method][task]) <= 1e-12
            for name in first["checkpoints"]:
                assert first["checkpoints"][name] == second["checkpoints"][name]


def test_criterion_8_leakage_guard():
    with criterion(8, "generator train sets contain zero unseen-class ground truths"):
        for seed in SEEDS:
            cfg = SynthConfig(s=8, u=3, m=3, d=8, d_f=8, images=25, test_images=8, seed=seed)
            bundle = generate_synthetic(cfg)
            unseen = set(bundle.oracle["unseen_labels"])
            leaked = [
                label
                for img in bundle.train.images
                for label in img.gt_labels
                if label in unseen
            ]
            assert leaked == []
            stats = bundle.train.class_stats()
            assert all(stats[u] == 0 for u in unseen)
