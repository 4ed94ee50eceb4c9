import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zsdet.train
from zsdet.data import SynthConfig, generate_synthetic
from zsdet.errors import ConfigError, NumericFailureError
from zsdet.loss import loss_gradients
from zsdet.model import RegionBatch, encode_boxes, init_model, save_checkpoint
from zsdet.semantics import build_label_space
from zsdet.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    AdamState,
    TrainConfig,
    adam_step,
    _draw,
    compose_batch,
    label_proposals,
    rebalance_dataset,
    train,
    write_loss_history,
)
from zsdet.data import Dataset, ImageRecord, Proposals

from conftest import GroundTruth, adam_cpus, gt_rows, make_space
from test_evaluation import iou


def one_param(value):
    params = {"w": np.array([float(value)])}
    return params, AdamState.for_params(params)


class TestAdamStep:
    def test_first_step_is_signed_lr(self):
        lr = 0.01
        for g in (3.7, -0.04, 1e-3):
            params, state = one_param(1.0)
            adam_step(params, {"w": np.array([g])}, state, lr)
            expected = 1.0 - lr * g / (abs(g) + ADAM_EPS)
            assert params["w"][0] == pytest.approx(expected, abs=1e-15)
            assert params["w"][0] == pytest.approx(1.0 - lr * np.sign(g), abs=1e-5)

    def test_zero_gradient_is_identity(self):
        lr = 1e-5
        params, state = one_param(2.5)
        assert adam_step(params, {"w": np.zeros(1)}, state, lr) is None
        assert params["w"][0] == 2.5
        assert state.t == 1

    def test_quadratic_descent_matches_scalar_simulation(self):
        lr = 0.1
        params, state = one_param(1.0)
        # independent scalar Adam simulation
        w, m, v, t = 1.0, 0.0, 0.0, 0
        trajectory = []
        for _ in range(10):
            g = 2.0 * w
            t += 1
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
            w -= lr * (m / (1 - ADAM_BETA1**t)) / (np.sqrt(v / (1 - ADAM_BETA2**t)) + ADAM_EPS)
            trajectory.append(w)
        magnitudes = [1.0]
        for step in range(10):
            g = 2.0 * params["w"]
            adam_step(params, {"w": g}, state, lr)
            assert params["w"][0] == pytest.approx(trajectory[step], abs=1e-12)
            magnitudes.append(abs(params["w"][0]))
        assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))

    @staticmethod
    def check_bitwise_textbook_adam(shapes, steps=12):
        lr = 1e-3
        rng = np.random.default_rng(7)
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        state = AdamState.for_params(params)
        ref = {k: (p.copy(), np.zeros(s), np.zeros(s)) for (k, p), s in
               zip(params.items(), shapes.values())}
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        zero_key = list(shapes)[-1]
        for t in range(1, steps + 1):
            grads = {k: rng.standard_normal(s) * rng.integers(0, 2, s) for k, s in shapes.items()}
            if t % 4 == 0:
                grads[zero_key] = np.zeros(shapes[zero_key])
            if t % 5 == 0:
                grads = {k: np.zeros(s) for k, s in shapes.items()}
            adam_step(params, grads, state, lr)
            for key, g in grads.items():
                p, m, v = ref[key]
                m = b1 * m + (1.0 - b1) * g
                v = b2 * v + (1.0 - b2) * g * g
                m_hat = m / (1.0 - b1**t)
                v_hat = v / (1.0 - b2**t)
                p = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                ref[key] = (p, m, v)
                assert params[key].tobytes() == p.tobytes()
                assert state.m[key].tobytes() == m.tobytes()
                assert state.v[key].tobytes() == v.tobytes()

    def test_in_place_update_is_bitwise_textbook_adam(self):
        self.check_bitwise_textbook_adam({"w": (5, 3), "b": (4,)})

    def check_blocked_update(self, cpus):
        # one block, a ragged second block, and two blocks plus a tail; the
        # largest is 2-D (rows x cols, rows its smallest factor above 1).
        # With the worker, the caller and its thread share the five blocks.
        n = 2 * ADAM_BLOCK + 13
        rows = next(r for r in range(2, n + 1) if n % r == 0)
        with adam_cpus(cpus) as ran:
            self.check_bitwise_textbook_adam({
                "one": (1,),
                "under": (ADAM_BLOCK - 1,),
                "exact": (ADAM_BLOCK,),
                "over": (ADAM_BLOCK + 1,),
                "two_d": (rows, n // rows),
            })
        others = ran - {threading.current_thread().name}
        assert threading.current_thread().name in ran
        assert [name.startswith("zsdet-adam") for name in others] == [True] * (cpus - 1)

    def test_blocked_update_is_bitwise_textbook_adam(self):
        self.check_blocked_update(cpus=2)

    def test_blocked_update_on_one_cpu_is_bitwise_textbook_adam(self):
        self.check_blocked_update(cpus=1)

    def test_single_block_params_start_no_worker(self):
        with adam_cpus(2) as ran:
            self.check_bitwise_textbook_adam({"w": (ADAM_BLOCK,), "b": (7,)}, steps=3)
            assert zsdet.train._adam_worker.cache_info().misses == 0 and not ran

    def test_concurrent_callers_share_one_worker_bit_for_bit(self):
        # more callers than cores hand blocks to the one worker while threads
        # switch often: a block run twice, or never, would change the bits
        from concurrent.futures import ThreadPoolExecutor

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with adam_cpus(2) as ran, ThreadPoolExecutor(4) as callers:
                shapes = {"w": (6 * ADAM_BLOCK + 5,), "b": (3,)}
                runs = [callers.submit(self.check_bitwise_textbook_adam, shapes, 6)
                        for _ in range(4)]
                for run in runs:
                    run.result(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert any(name.startswith("zsdet-adam") for name in ran)

    def test_worker_error_is_raised_in_caller(self):
        def fail_off_caller(blocks, coefs, errstate):
            if threading.current_thread() is not caller:
                raise FloatingPointError("worker failed")
            run_blocks(blocks, coefs, errstate)

        caller = threading.current_thread()
        params = {"w": np.ones(3 * ADAM_BLOCK)}
        state = AdamState.for_params(params)
        with adam_cpus(2), pytest.MonkeyPatch.context() as mp:
            run_blocks = zsdet.train._adam_blocks
            mp.setattr(zsdet.train, "_adam_blocks", fail_off_caller)
            with pytest.raises(FloatingPointError, match="worker failed"):
                adam_step(params, {"w": np.ones(3 * ADAM_BLOCK)}, state, 1e-5)
        # the worker failed before taking a block: the caller ran all three
        assert (params["w"] < 1.0).all()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_steps_on_a_worker_of_its_own(self):
        # the parent's worker thread does not exist in a forked child: a step
        # there that handed blocks to the parent's executor would never end
        params = {"w": np.ones(3 * ADAM_BLOCK)}
        grads = {"w": np.ones(3 * ADAM_BLOCK)}
        state = AdamState.for_params(params)
        with adam_cpus(2) as ran:
            adam_step(params, grads, state, 1e-5)
            assert len(ran) == 2
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    adam_step(params, grads, state, 1e-5)
                    code = 0
                finally:
                    os._exit(code)
            deadline = time.monotonic() + 20
            while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            if done[0] == 0:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0

    def test_non_finite_in_last_block_writes_nothing(self):
        # NaN in the tail block of a multi-block parameter, after a finite
        # parameter: nothing may be written, in any block of any parameter
        rng = np.random.default_rng(3)
        shapes = {"first": (7,), "big": (2 * ADAM_BLOCK + 13,)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        state = AdamState.for_params(params)
        lr = 1e-3
        adam_step(params, {k: rng.standard_normal(s) for k, s in shapes.items()}, state, lr)
        before = {k: (params[k].copy(), state.m[k].copy(), state.v[k].copy()) for k in shapes}
        grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
        grads["big"][-1] = np.nan
        with pytest.raises(NumericFailureError):
            adam_step(params, grads, state, lr)
        for key, (p, m, v) in before.items():
            assert params[key].tobytes() == p.tobytes()
            assert state.m[key].tobytes() == m.tobytes()
            assert state.v[key].tobytes() == v.tobytes()
        assert state.t == 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_gradient_aborts(self, bad):
        params, state = one_param(0.0)
        with pytest.raises(NumericFailureError):
            adam_step(params, {"w": np.array([bad])}, state, 1e-5)

    def test_finite_gradient_whose_sum_overflows_is_accepted(self):
        params = {"w": np.zeros(3)}
        state = AdamState.for_params(params)
        with np.errstate(over="ignore"):  # g*g overflows; v saturates at inf
            adam_step(params, {"w": np.array([1e308, 1e308, -1e308])}, state, 1e-5)
        assert np.isfinite(params["w"]).all() and state.t == 1

    def test_moments_are_c_ordered_for_fortran_param(self):
        params = {"w": np.asfortranarray(np.ones((3, 4)))}
        state = AdamState.for_params(params)
        assert state.m["w"].flags.c_contiguous and state.v["w"].flags.c_contiguous

    @pytest.mark.parametrize("which", ["param", "m", "v", "strided_param"])
    def test_non_contiguous_array_is_config_error(self, which):
        # a flat view of a non-C-contiguous array is a copy: an update written
        # there would be lost, so it must be refused before any write
        rng = np.random.default_rng(5)
        shape = (3, ADAM_BLOCK)
        params = {"first": np.ones(4), "w": rng.standard_normal(shape)}
        state = AdamState.for_params(params)
        if which == "param":
            params["w"] = np.asfortranarray(params["w"])
        elif which == "strided_param":
            params["w"] = rng.standard_normal((3, 2 * ADAM_BLOCK))[:, ::2]
        else:
            getattr(state, which)["w"] = np.asfortranarray(np.zeros(shape))
        before = {k: (params[k].copy(), state.m[k].copy(), state.v[k].copy()) for k in params}
        grads = {k: np.ones(p.shape) for k, p in params.items()}
        with pytest.raises(ConfigError, match="C-contiguous"):
            adam_step(params, grads, state, 1e-5)
        for key, (p, m, v) in before.items():
            assert params[key].tobytes() == p.tobytes()
            assert state.m[key].tobytes() == m.tobytes()
            assert state.v[key].tobytes() == v.tobytes()

    def test_non_finite_gradient_aborts(self):
        params, state = one_param(0.0)
        with pytest.raises(Exception):
            adam_step(params, {"w": np.array([np.nan])}, state, 1e-5)
        assert params["w"][0] == 0.0 and state.m["w"][0] == 0.0 and state.v["w"][0] == 0.0

    def test_shape_mismatch(self):
        params, state = one_param(0.0)
        with pytest.raises(ConfigError):
            adam_step(params, {"w": np.zeros(2)}, state, 1e-5)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(lam=1.5)
        with pytest.raises(ConfigError):
            TrainConfig(lr=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(mode="other")
        with pytest.raises(ConfigError):
            TrainConfig(n_pos=-1)

    @pytest.mark.parametrize("knob", [
        {"lr": float("nan")}, {"lr": float("inf")}, {"lam": float("nan")},
    ], ids=lambda k: "_".join(f"{n}_{v}" for n, v in k.items()))
    def test_non_finite_knob_rejected(self, knob):
        with pytest.raises(ConfigError):
            TrainConfig(**knob)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            TrainConfig(seed=-1)


def proposals_at(*boxes, d_f=3):
    """Proposals with all-ones features at ``boxes``."""
    return Proposals(np.ones((len(boxes), d_f)), np.array(boxes, dtype=np.float64).reshape(-1, 4))


def label_gts(proposals, gts, space):
    """``label_proposals`` over a list of :class:`GroundTruth` records."""
    _, ids, boxes = gt_rows(gts)
    return label_proposals(proposals, ids, boxes, space)


class TestLabelProposals:
    def setup_method(self):
        self.space = make_space(2, 1)

    def test_identical_box_gets_gt_label(self):
        gts = [GroundTruth("i", 2, np.array([0.0, 0.0, 10.0, 10.0]))]
        props = proposals_at([0.0, 0.0, 10.0, 10.0])
        labeled = label_gts(props, gts, self.space)
        assert labeled.ys[0] == 2
        np.testing.assert_array_equal(labeled.targets[0], encode_boxes(gts[0].box, props.boxes[0]))

    def test_disjoint_is_background(self):
        gts = [GroundTruth("i", 1, np.array([0.0, 0.0, 10.0, 10.0]))]
        props = proposals_at([50.0, 50.0, 60.0, 60.0])
        labeled = label_gts(props, gts, self.space)
        assert labeled.ys[0] == self.space.bg_id
        assert np.isnan(labeled.targets[0]).all()

    def test_iou_exactly_at_threshold_is_foreground(self):
        # proposal covers exactly half the gt: IoU = 50/100 = 0.5
        gts = [GroundTruth("i", 1, np.array([0.0, 0.0, 10.0, 10.0]))]
        props = proposals_at([0.0, 0.0, 10.0, 5.0])
        assert label_gts(props, gts, self.space).ys[0] == 1

    def test_max_iou_gt_wins(self):
        gts = [
            GroundTruth("i", 1, np.array([0.0, 0.0, 10.0, 10.0])),
            GroundTruth("i", 2, np.array([2.0, 2.0, 12.0, 12.0])),
        ]
        props = proposals_at([2.0, 2.0, 12.0, 12.0])
        assert label_gts(props, gts, self.space).ys[0] == 2


def label_proposals_ref(proposals, gts, fg_iou, space):
    """The per-pair loop: (label, matched gt box or None) per proposal."""
    out = []
    for box in proposals.boxes:
        best_iou, best = 0.0, None
        for gt in gts:
            overlap = iou(box, gt.box)
            if overlap > best_iou or best is None:
                best_iou, best = overlap, gt
        if best is not None and best_iou >= fg_iou:
            out.append((best.label, best.box))
        else:
            out.append((space.bg_id, None))
    return out


class TestLabelProposalsMatchesLoop:
    def test_grid_boxes_with_ties(self, rng, monkeypatch):
        # integer boxes: equal IoUs against several gts and IoU exactly 0.5
        space = make_space(3, 1)
        for _ in range(200):
            def box():
                x1, y1 = rng.integers(0, 8, 2)
                w, h = rng.integers(1, 5, 2)
                return np.array([x1, y1, x1 + w, y1 + h], dtype=np.float64)

            gts = [GroundTruth("i", int(rng.integers(1, 4)), box())
                   for _ in range(int(rng.integers(0, 5)))]
            gts += gts[: int(rng.integers(0, 2))]  # a repeated gt box: an exact tie
            props = proposals_at(*(box() for _ in range(int(rng.integers(0, 8)))), d_f=2)
            fg_iou = float(rng.choice([0.0, 0.3, 0.5]))
            monkeypatch.setattr(zsdet.train, "FG_IOU", fg_iou)
            got = label_gts(props, gts, space)
            ref = label_proposals_ref(props, gts, fg_iou, space)
            assert list(got.ys) == [y for y, _ in ref]
            for target, prop_box, (_, gt_box) in zip(got.targets, props.boxes, ref):
                want = np.full(4, np.nan) if gt_box is None else encode_boxes(gt_box, prop_box)
                assert target.tobytes() == want.tobytes()


class TestComposeBatch:
    def make_rows(self, n_fg, n_bg, space):
        """Labeled rows whose first feature is the row index."""
        features = np.zeros((n_fg + n_bg, 2))
        features[:, 0] = np.arange(n_fg + n_bg)
        ys = np.array([1] * n_fg + [space.bg_id] * n_bg, dtype=np.intp)
        targets = np.full((n_fg + n_bg, 4), np.nan)
        targets[:n_fg] = 0.0
        return RegionBatch(features, ys, targets)

    def test_full_pools_no_duplicates(self):
        space = make_space(2, 1)
        rows = self.make_rows(20, 20, space)
        batch = compose_batch(rows, 16, 16, np.random.default_rng(0), space.bg_id)
        assert len(batch) == 32
        assert len(set(batch.features[:, 0])) == 32
        assert int(np.sum(batch.ys != space.bg_id)) == 16

    def test_short_pool_repeats(self):
        space = make_space(2, 1)
        rows = self.make_rows(3, 20, space)
        batch = compose_batch(rows, 16, 16, np.random.default_rng(0), space.bg_id)
        fg = batch.ys != space.bg_id
        assert int(fg.sum()) == 16
        assert len(set(batch.features[fg, 0])) <= 3

    def test_fixed_seed_reproducible(self):
        space = make_space(2, 1)
        rows = self.make_rows(10, 10, space)
        a = compose_batch(rows, 4, 4, np.random.default_rng(7), space.bg_id)
        b = compose_batch(rows, 4, 4, np.random.default_rng(7), space.bg_id)
        assert list(a.features[:, 0]) == list(b.features[:, 0])

    def test_rows_stay_aligned(self):
        space = make_space(2, 1)
        rows = self.make_rows(5, 5, space)
        batch = compose_batch(rows, 8, 8, np.random.default_rng(3), space.bg_id)
        picked = batch.features[:, 0].astype(int)
        assert list(batch.ys) == list(rows.ys[picked])
        assert batch.targets.tobytes() == rows.targets[picked].tobytes()

    def test_empty_image_skips(self):
        space = make_space(2, 1)
        batch = compose_batch(self.make_rows(0, 0, space), 4, 4,
                              np.random.default_rng(0), space.bg_id)
        assert len(batch) == 0


class TestDraw:
    @pytest.mark.parametrize("seed", range(3))
    def test_same_rows_and_stream_as_choice(self, seed):
        # with replacement only when the pool is short, as ``choice`` was called
        for size in range(41):
            pool = np.arange(100, 100 + size)
            for n in range(21):
                got_rng = np.random.default_rng([seed, size, n])
                want_rng = np.random.default_rng([seed, size, n])
                got = _draw(pool, n, got_rng)
                want = (pool[want_rng.choice(pool.size, size=n, replace=pool.size < n)]
                        if n and size else pool[:0])
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()
                assert got_rng.random() == want_rng.random()


def stats_dataset(space, counts, objects_per_image=1):
    """One image per instance; class c appears counts[c] times."""
    images = []
    n = 0
    for label, count in counts.items():
        for _ in range(count):
            box = np.array([0.0, 0.0, 10.0, 10.0])
            images.append(
                ImageRecord(
                    image_id=f"im{n}",
                    proposals=Proposals(np.ones((1, 2)), box[None]),
                    gt_labels=(label,),
                    gt_boxes=box[None],
                )
            )
            n += 1
    return Dataset(d_f=2, images=images)


@st.composite
def rebalance_cases(draw):
    """Small datasets of seen-class ground truths with unique image ids, some
    of which read like the id of another image's copy (``a~r1``)."""
    n_seen = draw(st.integers(1, 5))
    space = make_space(n_seen, draw(st.integers(0, 3)), n_meta=draw(st.integers(1, 3)))
    id_parts = st.tuples(st.sampled_from(["a", "b", "a~r1"]),
                         st.sampled_from(["", "~r1", "~r2", "~"]))
    ids = draw(st.lists(id_parts.map("".join), max_size=8, unique=True))
    images = []
    for i, image_id in enumerate(ids):
        labels = tuple(draw(st.lists(st.sampled_from(space.labels[:n_seen]), max_size=4)))
        n_props = draw(st.integers(0, 3))
        images.append(ImageRecord(
            image_id, Proposals(np.full((n_props, 2), float(i)), np.zeros((n_props, 4))),
            labels, np.arange(4.0 * len(labels)).reshape(-1, 4) + 100 * i))
    dataset = Dataset(d_f=2, images=images)
    return space, dataset, draw(st.integers(0, 12)), draw(st.integers(0, 2**32 - 1))


class TestRebalance:
    def test_min_zero_is_identity(self):
        space = make_space(2, 1, meta_of={"c1": "m", "c2": "m", "c3": "m"})
        ds = stats_dataset(space, {"c1": 3, "c2": 2})
        assert rebalance_dataset(ds, space, 0, np.random.default_rng(0)) is ds

    def test_oversized_pool_subsampled_exactly(self):
        space = make_space(2, 1, meta_of={"c1": "m", "c2": "m", "c3": "m"})
        ds = stats_dataset(space, {"c1": 70, "c2": 50})  # pool 120
        out = rebalance_dataset(ds, space, 100, np.random.default_rng(0))
        stats = out.class_stats()
        assert stats["c1"] + stats["c2"] == 100

    def test_short_pool_duplicates_to_target(self):
        space = make_space(2, 1, meta_of={"c1": "m", "c2": "m", "c3": "m"})
        ds = stats_dataset(space, {"c1": 25, "c2": 15})  # pool 40
        out = rebalance_dataset(ds, space, 100, np.random.default_rng(0))
        stats = out.class_stats()
        assert stats["c1"] + stats["c2"] >= 100
        original_ids = {img.image_id for img in ds.images}
        kept = {img.image_id for img in out.images if "~r" not in img.image_id}
        assert kept == original_ids  # each original appears at least once

    def test_copies_trace_back_to_originals(self):
        space = make_space(2, 1, meta_of={"c1": "m", "c2": "m", "c3": "m"})
        ds = stats_dataset(space, {"c1": 5})
        out = rebalance_dataset(ds, space, 30, np.random.default_rng(1))
        originals = {img.image_id: img for img in ds.images}
        for img in out.images:
            original = originals[img.image_id.split("~r")[0]]
            assert img.proposals is original.proposals

    def test_dropped_instances_keep_labels_and_boxes_aligned(self):
        space = make_space(2, 1, meta_of={"c1": "m", "c2": "m", "c3": "m"})
        boxes = np.array([[0, 0, 10, 10.0], [20, 20, 30, 30.0], [40, 40, 50, 50.0]])
        images = [ImageRecord(f"im{i}", Proposals(np.ones((3, 2)), boxes),
                              ("c1", "c2", "c1"), boxes) for i in range(4)]
        ds = Dataset(d_f=2, images=images)
        out = rebalance_dataset(ds, space, 7, np.random.default_rng(0))
        assert sum(out.class_stats().values()) == 7
        for img in out.images:
            rows = [int(b[0]) // 20 for b in img.gt_boxes]
            assert img.gt_labels == tuple(("c1", "c2", "c1")[r] for r in rows)

    def test_copy_ids_skip_taken_input_ids(self):
        space = make_space(2, 1, meta_of={"c1": "m", "c2": "m", "c3": "m"})
        box = np.zeros((1, 4))
        images = [ImageRecord("a", Proposals(np.ones((1, 2)), box), ("c1",), box),
                  ImageRecord("a~r1", Proposals(np.ones((1, 2)), box), (), box[:0])]
        ds = Dataset(d_f=2, images=images)
        out = rebalance_dataset(ds, space, 3, np.random.default_rng(0))
        assert [img.image_id for img in out.images] == ["a", "a~r1", "a~r1~", "a~r2"]

    def test_copy_can_lose_instances_to_a_later_meta(self):
        # m1 copies image "1" (its only c1); m2 then subsamples its pool of
        # three c2 instances to two, and the one it drops is the copy's
        space = make_space(2, 2, meta_of={"c1": "m1", "c2": "m2", "c3": "m1", "c4": "m2"})
        boxes = np.arange(12.0).reshape(3, 4)
        images = [ImageRecord("1", Proposals(np.ones((0, 2)), np.zeros((0, 4))),
                              ("c1", "c2"), boxes[:2]),
                  ImageRecord("11", Proposals(np.ones((0, 2)), np.zeros((0, 4))),
                              ("c2",), boxes[2:])]
        ds = Dataset(d_f=2, images=images)
        out = rebalance_dataset(ds, space, 2, np.random.default_rng(1))
        assert [(img.image_id, img.gt_labels) for img in out.images] == [
            ("1", ("c1", "c2")), ("11", ("c2",)), ("1~r1", ("c1",))]
        assert out.images[2].proposals is images[0].proposals

    @pytest.mark.filterwarnings("ignore:meta-class")
    @settings(max_examples=300, deadline=None)
    @given(rebalance_cases())
    def test_every_image_traces_to_an_input_image(self, case):
        space, ds, min_similar, seed = case

        def snapshot():
            return [(id(img), img.image_id, id(img.proposals), img.gt_labels,
                     img.gt_boxes.tobytes()) for img in ds.images]

        before, inputs = snapshot(), list(ds.images)
        out = rebalance_dataset(ds, space, min_similar, np.random.default_rng(seed))
        assert snapshot() == before
        ids = [img.image_id for img in out.images]
        assert len(set(ids)) == len(ids)
        by_id = {img.image_id: img for img in inputs}
        for img in out.images:
            # an input image under its own id, or a copy under a new id
            if img.image_id in by_id:
                source = by_id[img.image_id]
                assert img.proposals is source.proposals
            else:
                (source,) = [s for s in inputs if s.proposals is img.proposals]
                assert img.image_id.startswith(f"{source.image_id}~r")
            # its ground truths an ordered subset of the source's, labels and
            # boxes aligned (every drawn box is distinct)
            rows = [source.gt_boxes.tolist().index(b) for b in img.gt_boxes.tolist()]
            assert rows == sorted(set(rows))
            assert img.gt_labels == tuple(source.gt_labels[r] for r in rows)
            if len(rows) == len(source.gt_labels):
                assert img.gt_boxes is source.gt_boxes  # untouched images share arrays

    def test_meta_without_seen_members_warns(self):
        space = make_space(2, 2, meta_of={"c1": "m1", "c2": "m1", "c3": "m1", "c4": "m2"})
        ds = stats_dataset(space, {"c1": 2, "c2": 2})
        with pytest.warns(UserWarning, match="no seen members"):
            rebalance_dataset(ds, space, 10, np.random.default_rng(0))


def toy_bundle(seed=0, **overrides):
    cfg = SynthConfig(
        s=4, u=1, m=2, d=4, d_f=4, images=30, test_images=5,
        proposals_per_image=8, seed=seed, **overrides,
    )
    bundle = generate_synthetic(cfg)
    space = build_label_space(
        bundle.oracle["seen_labels"], bundle.oracle["unseen_labels"], bundle.meta_map
    )
    return bundle, bundle.table.w2(space.labels), space


class TestTrain:
    def config(self, **kw):
        base = dict(lam=0.8, lr=1e-3, epochs=3, n_pos=4, n_neg=4,
                    min_similar=0, seed=3)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_epochs_equals_init(self):
        bundle, w2, space = toy_bundle()
        cfg = self.config(epochs=0)
        model, history = train(bundle.train, w2, space, cfg)
        ref = init_model(w2, space, bundle.train.d_f, cfg.seed, cfg.mode)
        assert history.shape == (0, 5) and history.dtype == np.float64
        assert model.w1.tobytes() == ref.w1.tobytes()
        assert not model.box_w.any()

    def test_margin_loss_trends_down(self):
        bundle, w2, space = toy_bundle()
        _, history = train(bundle.train, w2, space, self.config(epochs=10))
        mm = history[:, 0]
        head = np.mean(mm[: max(1, len(mm) // 10)])
        tail = np.mean(mm[-max(1, len(mm) // 10):])
        assert tail < head

    def test_deterministic_checkpoints(self, tmp_path):
        bundle, w2, space = toy_bundle()
        cfg = self.config()
        m1, h1 = train(bundle.train, w2, space, cfg)
        m2, h2 = train(bundle.train, w2, space, cfg)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(m1, p1)
        save_checkpoint(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert h1.tobytes() == h2.tobytes()

    @pytest.mark.parametrize("key", ["w1", "box_w", "box_b"])
    def test_overflow_in_the_last_step_raises(self, monkeypatch, key):
        # a step checks its own scores and gradients, not the parameters it
        # writes, so an update that overflows on the last step is caught after
        bundle, w2, space = toy_bundle()
        cfg = self.config(epochs=1)
        _, history = train(bundle.train, w2, space, cfg)
        steps = []

        def overflowing(params, grads, state, lr):
            adam_step(params, grads, state, lr)
            steps.append(state.t)
            if len(steps) == len(history):
                params[key].flat[-1] = np.inf

        monkeypatch.setattr(zsdet.train, "adam_step", overflowing)
        with pytest.raises(NumericFailureError, match=f"training step {len(history) - 1} "
                                                      f"left a non-finite value in '{key}'"):
            train(bundle.train, w2, space, cfg)

    def test_w2_untouched_by_training(self):
        bundle, w2, space = toy_bundle()
        before = w2.tobytes()
        model, _ = train(bundle.train, w2, space, self.config())
        assert model.w2.tobytes() == before

    def test_modes_produce_different_w1(self):
        bundle, w2, space = toy_bundle()
        full, _ = train(bundle.train, w2, space, self.config(mode="full", lam=1.0))
        seen, _ = train(bundle.train, w2, space, self.config(mode="seen_only", lam=1.0))
        assert np.any(full.w1 != seen.w1)

    @staticmethod
    def with_image_of(dataset, label):
        """``dataset`` plus one image holding a single ``label`` instance."""
        box = np.array([[0, 0, 10, 10.0]])
        bad = ImageRecord("bad", Proposals(np.ones((1, dataset.d_f)), box), (label,), box)
        return Dataset(d_f=dataset.d_f, images=dataset.images + [bad])

    def test_unseen_leak_rejected(self):
        bundle, w2, space = toy_bundle()
        poisoned = self.with_image_of(bundle.train, bundle.oracle["unseen_labels"][0])
        with pytest.raises(ConfigError, match="train dataset leaks unseen class"):
            train(poisoned, w2, space, self.config())

    def test_label_outside_label_space_rejected(self):
        bundle, w2, space = toy_bundle()
        poisoned = self.with_image_of(bundle.train, "not_a_class")
        with pytest.raises(ConfigError, match="'not_a_class' in image bad"):
            train(poisoned, w2, space, self.config())

    def test_loss_history_csv(self, tmp_path):
        bundle, w2, space = toy_bundle()
        _, history = train(bundle.train, w2, space, self.config(epochs=1))
        path = tmp_path / "loss.csv"
        write_loss_history(history, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,l_mm,l_mc,l_cls,l_reg,total"
        assert len(lines) == len(history) + 1
        first = lines[1].split(",")
        assert float(first[3]) == history[0, 2]

    def test_history_rows_are_the_steps_breakdowns(self, monkeypatch):
        bundle, w2, space = toy_bundle()
        breakdowns = []

        def recording(*args):
            breakdown, grads = loss_gradients(*args)
            breakdowns.append(breakdown)
            return breakdown, grads

        monkeypatch.setattr(zsdet.train, "loss_gradients", recording)
        _, history = train(bundle.train, w2, space, self.config(epochs=2))
        assert history.dtype == np.float64 and history.flags.c_contiguous
        assert history.shape == (len(breakdowns), 5) and breakdowns
        assert history.tolist() == [[b.l_mm, b.l_mc, b.l_cls, b.l_reg, b.total]
                                    for b in breakdowns]

    def test_loss_history_bytes_match_the_record_writer(self, tmp_path):
        # the bytes the per-record writer gave: each value's repr, in order
        rows = [[-0.0, 5e-324, 1e300, 0.1, 0.30000000000000004],
                [0.1, -0.0, 0.0, 5e-324, -1e300]]
        path = tmp_path / "loss.csv"
        write_loss_history(np.array(rows), path)
        assert path.read_bytes() == (
            b"step,l_mm,l_mc,l_cls,l_reg,total\r\n"
            b"0,-0.0,5e-324,1e+300,0.1,0.30000000000000004\r\n"
            b"1,0.1,-0.0,0.0,5e-324,-1e+300\r\n"
        )
