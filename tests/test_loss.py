import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zsdet.audit import gradient_audit, random_batch
from zsdet.errors import ConfigError, NumericFailureError
from zsdet.loss import (
    _class_terms,
    _margin_table,
    _sigmoid,
    loss_gradients,
    smooth_l1,
)
from zsdet.model import RegionBatch, encode_boxes
from zsdet.semantics import build_label_space

from conftest import (
    classification_loss,
    clustering_loss,
    make_model,
    make_space,
    make_table,
    max_margin_loss,
    random_unit_columns,
)

LOG2 = math.log(2.0)


def softplus_ref(x: float) -> float:
    """Independent reference: log(1+e^x) via mpmath-free stable formula."""
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def brute_force_mm(o, y, ids):
    terms = [softplus_ref(o[c - 1] - o[y - 1]) for c in ids if c != y]
    return sum(terms) / len(terms)


def brute_force_mc(o, y, space):
    z = space.members(space.meta_of(y))
    outside = [c for c in range(1, space.bg_id + 1) if c not in z]
    total = sum(softplus_ref(o[c - 1] - o[j - 1]) for c in outside for j in z)
    return total / (len(outside) * len(z))


class TestMaxMargin:
    def test_uniform_scores_give_log2(self):
        space = make_space(3, 1)
        o = np.full(space.bg_id, 0.7)
        assert max_margin_loss(o, 1, space) == pytest.approx(LOG2, abs=1e-12)
        assert max_margin_loss(o, 1, space, "seen_only") == pytest.approx(LOG2, abs=1e-12)

    def test_dominant_target_vanishes(self):
        space = make_space(3, 1)
        o = np.zeros(space.bg_id)
        o[0] = 40.0
        assert max_margin_loss(o, 1, space) < 1e-17

    def test_two_class_frozen_value(self):
        # scores (1, 0, 0) over two classes plus bg; two identical terms averaged
        space = make_space(2, 0) if False else make_space(1, 1)
        o = np.array([1.0, 0.0, 0.0])
        expected = softplus_ref(-1.0)
        assert max_margin_loss(o, 1, space) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.313262, abs=1e-6)

    def test_seen_only_reads_only_seen_and_bg(self, rng):
        space = make_space(4, 3)
        o = rng.standard_normal(space.bg_id)
        base = max_margin_loss(o, 2, space, "seen_only")
        perturbed = o.copy()
        perturbed[space.S : space.C] = rng.standard_normal(space.U) * 100
        assert max_margin_loss(perturbed, 2, space, "seen_only") == base

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            space = make_space(int(rng.integers(2, 6)), int(rng.integers(1, 4)))
            o = rng.standard_normal(space.bg_id) * 3
            y = int(rng.integers(1, space.S + 1))
            full_ids = list(range(1, space.bg_id + 1))
            seen_ids = list(space.seen_ids) + [space.bg_id]
            assert max_margin_loss(o, y, space) == pytest.approx(
                brute_force_mm(o, y, full_ids), abs=1e-12
            )
            assert max_margin_loss(o, y, space, "seen_only") == pytest.approx(
                brute_force_mm(o, y, seen_ids), abs=1e-12
            )

    def test_monotone_in_target_score(self, rng):
        space = make_space(3, 2)
        o = rng.standard_normal(space.bg_id)
        losses = []
        for bump in (0.0, 0.5, 1.0, 2.0):
            oo = o.copy()
            oo[0] += bump
            losses.append(max_margin_loss(oo, 1, space))
        assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_bg_target_allowed(self):
        space = make_space(2, 1)
        o = np.zeros(space.bg_id)
        assert max_margin_loss(o, space.bg_id, space) == pytest.approx(LOG2, abs=1e-12)


class TestClusteringLoss:
    def test_single_meta_reduces_to_bg_ranking(self):
        # one meta holding all three classes: outside = {bg}
        space = make_space(2, 1, meta_of={"c1": "m", "c2": "m", "c3": "m"})
        o = np.array([1.0, 2.0, 3.0, 0.5])
        expected = sum(softplus_ref(o[3] - o[j]) for j in range(3)) / 3.0
        assert clustering_loss(o, 1, space) == pytest.approx(expected, abs=1e-12)

    def test_uniform_scores_give_log2(self):
        space = make_space(3, 1)
        o = np.full(space.bg_id, -1.3)
        assert clustering_loss(o, 1, space) == pytest.approx(LOG2, abs=1e-12)

    def test_two_meta_frozen_value(self):
        # z={1,2}, outside={3, bg}; all four pairs are softplus(-1)
        space = make_space(2, 1, meta_of={"c1": "m1", "c2": "m1", "c3": "m2"})
        o = np.array([1.0, 1.0, 0.0, 0.0])
        assert clustering_loss(o, 1, space) == pytest.approx(
            softplus_ref(-1.0), abs=1e-12
        )
        assert clustering_loss(o, 1, space) == pytest.approx(
            brute_force_mc(o, 1, space), abs=1e-12
        )

    def test_matches_pair_enumeration_oracle(self, rng):
        for _ in range(25):
            n_seen = int(rng.integers(2, 6))
            n_unseen = int(rng.integers(1, 4))
            space = make_space(n_seen, n_unseen, n_meta=int(rng.integers(1, 4)))
            o = rng.standard_normal(space.bg_id) * 2
            y = int(rng.integers(1, n_seen + 1))
            assert clustering_loss(o, y, space) == pytest.approx(
                brute_force_mc(o, y, space), abs=1e-12
            )

    def test_bg_target_pushes_bg_above_classes(self):
        space = make_space(2, 1)
        o = np.array([0.0, 0.0, 0.0, 0.0])
        # bg meta is the singleton {bg}: outside = all classes
        expected = brute_force_mc(o, space.bg_id, space)
        assert clustering_loss(o, space.bg_id, space) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(LOG2, abs=1e-12)


class TestClassificationLoss:
    def test_lambda_one_is_margin(self, rng):
        space = make_space(3, 2)
        o = rng.standard_normal(space.bg_id)
        b = classification_loss(o, 2, space, lam=1.0)
        assert b.l_cls == b.l_mm
        assert b.total == b.l_cls

    def test_lambda_zero_is_clustering(self, rng):
        space = make_space(3, 2)
        o = rng.standard_normal(space.bg_id)
        b = classification_loss(o, 2, space, lam=0.0)
        assert b.l_cls == b.l_mc

    def test_weighted_sum_hand_check(self, rng):
        space = make_space(3, 2)
        o = rng.standard_normal(space.bg_id)
        b = classification_loss(o, 1, space, lam=0.8)
        assert b.l_cls == pytest.approx(0.8 * b.l_mm + 0.2 * b.l_mc, abs=1e-15)
        assert b.l_cls == pytest.approx(
            0.8 * brute_force_mm(o, 1, list(range(1, space.bg_id + 1)))
            + 0.2 * brute_force_mc(o, 1, space),
            abs=1e-12,
        )

    def test_affine_in_lambda(self, rng):
        space = make_space(4, 1)
        o = rng.standard_normal(space.bg_id)
        vals = [classification_loss(o, 1, space, lam).l_cls for lam in (0.0, 0.5, 1.0)]
        assert vals[1] == pytest.approx(0.5 * (vals[0] + vals[2]), abs=1e-12)

    def test_lambda_out_of_range(self, rng):
        space = make_space(2, 1)
        model = make_model(make_table(random_unit_columns(rng, 4, 3)), space, d_f=4)
        batch = random_batch(rng, space, 4, size=2)
        for lam in (1.5, -0.1, math.nan):
            with pytest.raises(ConfigError, match="lambda must be in"):
                loss_gradients(model, batch, space, lam)

    def test_breakdown_identity(self, rng):
        space = make_space(3, 2)
        for lam in (0.0, 0.3, 0.8, 1.0):
            o = rng.standard_normal(space.bg_id)
            b = classification_loss(o, 3, space, lam=lam)
            assert b.l_cls == pytest.approx(
                b.lam * b.l_mm + (1 - b.lam) * b.l_mc, abs=1e-12
            )

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6), st.integers(0, 4), st.integers(1, 4),
        st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    )
    def test_lambda_identity_property(self, n_seen, n_unseen, n_meta, lam, seed):
        space = make_space(n_seen, n_unseen, n_meta=min(n_meta, n_seen + n_unseen))
        rng = np.random.default_rng(seed)
        o = rng.standard_normal(space.bg_id) * 3
        y = [*space.seen_ids, space.bg_id][rng.integers(space.S + 1)]
        b = classification_loss(o, y, space, lam=lam)
        assert b.lam == lam
        assert abs(b.l_cls - (lam * b.l_mm + (1.0 - lam) * b.l_mc)) <= 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 6), st.integers(0, 4), st.integers(1, 4),
        st.floats(-1e3, 1e3), st.floats(0.0, 1.0), st.integers(0, 6),
    )
    def test_constant_scores_give_log2_property(
        self, n_seen, n_unseen, n_meta, c, lam, pick
    ):
        space = make_space(n_seen, n_unseen, n_meta=min(n_meta, n_seen + n_unseen))
        o = np.full(space.bg_id, c)
        y = [*space.seen_ids, space.bg_id][pick % (space.S + 1)]
        b = classification_loss(o, y, space, lam=lam)
        assert abs(b.l_mm - LOG2) <= 1e-12
        assert abs(b.l_mc - LOG2) <= 1e-12
        assert abs(max_margin_loss(o, y, space, "seen_only") - LOG2) <= 1e-12

    def test_seen_only_drops_clustering(self, rng):
        space = make_space(3, 2)
        o = rng.standard_normal(space.bg_id)
        b = classification_loss(o, 1, space, lam=0.3, mode="seen_only")
        assert b.l_mc == 0.0
        assert b.lam == 1.0
        assert b.l_cls == b.l_mm == max_margin_loss(o, 1, space, "seen_only")


class TestLabelPermutationInvariance:
    def test_margin_invariant_under_nontarget_swap(self, rng):
        space = make_space(4, 2)
        o = rng.standard_normal(space.bg_id)
        swapped = o.copy()
        swapped[[1, 2]] = swapped[[2, 1]]  # swap classes 2 and 3, target is 1
        assert max_margin_loss(o, 1, space) == pytest.approx(
            max_margin_loss(swapped, 1, space), abs=1e-15
        )

    def test_clustering_invariant_under_same_meta_swap(self, rng):
        space = make_space(4, 2, meta_of={
            "c1": "m1", "c2": "m1", "c3": "m1", "c4": "m2", "c5": "m2", "c6": "m2",
        })
        o = rng.standard_normal(space.bg_id)
        swapped = o.copy()
        swapped[[1, 2]] = swapped[[2, 1]]  # c2 and c3 share the target's meta
        assert clustering_loss(o, 1, space) == pytest.approx(
            clustering_loss(swapped, 1, space), abs=1e-15
        )


def regression_loss(pred_offsets, proposal_box, gt_box, y, space):
    """Reference: smooth-L1 over the 4 offsets of one sample's target slice.

    Background and unseen targets contribute zero: no box is regressed for
    labels without visual training examples.
    """
    if not space.is_seen(y):
        return 0.0
    target = encode_boxes(np.asarray(gt_box), np.asarray(proposal_box))
    return float(smooth_l1(np.asarray(pred_offsets)[4 * (y - 1) : 4 * y] - target).sum())


class TestRegressionLoss:
    def setup_method(self):
        self.space = make_space(2, 1)
        self.proposal = np.array([0.0, 0.0, 10.0, 10.0])
        self.gt = np.array([1.0, 2.0, 11.0, 13.0])
        self.target = encode_boxes(self.gt, self.proposal)

    def full_pred(self, slice_vals):
        pred = np.zeros(4 * self.space.S)
        pred[:4] = slice_vals
        return pred

    def test_exact_prediction_is_zero(self):
        assert regression_loss(self.full_pred(self.target), self.proposal, self.gt, 1, self.space) == 0.0

    def test_quadratic_zone(self):
        off = self.target.copy()
        off[0] += 0.5
        assert regression_loss(self.full_pred(off), self.proposal, self.gt, 1, self.space) == pytest.approx(0.125, abs=1e-12)

    def test_linear_zone(self):
        off = self.target.copy()
        off[2] += 2.0
        assert regression_loss(self.full_pred(off), self.proposal, self.gt, 1, self.space) == pytest.approx(1.5, abs=1e-12)

    def test_background_and_unseen_contribute_zero(self):
        pred = np.ones(4 * self.space.S)
        assert regression_loss(pred, self.proposal, self.gt, self.space.bg_id, self.space) == 0.0
        assert regression_loss(pred, self.proposal, self.gt, 3, self.space) == 0.0

    def test_other_class_slice_ignored(self):
        pred = np.zeros(4 * self.space.S)
        pred[:4] = self.target
        pred[4:] = 100.0  # class 2's slice should not matter for y=1
        assert regression_loss(pred, self.proposal, self.gt, 1, self.space) == 0.0

    @pytest.mark.parametrize("size", [1, 5, 12])
    def test_batched_path_matches_per_sample_reference(self, rng, size):
        space = make_space(4, 2)
        model = make_model(make_table(random_unit_columns(rng, 5, space.C)), space, d_f=5)
        model.box_w = rng.standard_normal(model.box_w.shape) * 0.5
        model.box_b = rng.standard_normal(model.box_b.shape) * 0.5
        corner = rng.uniform(0, 50, (2, size, 2))
        extent = rng.uniform(10, 40, (2, size, 2))
        proposals, gts = np.concatenate([corner, corner + extent], axis=2)
        ys = np.array([*space.seen_ids, space.bg_id])[rng.integers(space.S + 1, size=size)]
        ys[0] = 1  # at least one foreground row
        targets = np.where((ys <= space.S)[:, None], encode_boxes(gts, proposals), np.nan)
        batch = RegionBatch(rng.standard_normal((size, 5)), ys, targets)
        offsets = batch.features @ model.box_w + model.box_b
        per_sample = [regression_loss(o, p, g, int(y), space)
                      for o, p, g, y in zip(offsets, proposals, gts, ys) if y <= space.S]
        breakdown, _ = loss_gradients(model, batch, space, 0.5)
        assert breakdown.l_reg == pytest.approx(sum(per_sample) / len(per_sample),
                                                rel=1e-12, abs=0)


def fd_gradient(model, batch, space, lam, param, h=1e-5):
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_gradients(model, batch, space, lam)[0].total
        flat[idx] = orig - h
        down = loss_gradients(model, batch, space, lam)[0].total
        flat[idx] = orig
        gflat[idx] = (up - down) / (2 * h)
    return grad


def max_rel_err(a, n):
    scale = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-7)
    err = np.abs(a - n) / scale
    err[np.maximum(np.abs(a), np.abs(n)) < 1e-7] = 0.0
    return float(err.max())


class TestLossGradients:
    def test_zero_features_give_zero_w1_gradient(self, rng):
        space = make_space(3, 1)
        table = make_table(random_unit_columns(rng, 4, 4))
        model = make_model(table, space, d_f=4)
        batch = random_batch(rng, space, 4)
        batch.features[:] = 0.0
        _, grads = loss_gradients(model, batch, space, 0.5)
        np.testing.assert_array_equal(grads["w1"], np.zeros_like(grads["w1"]))

    @pytest.mark.parametrize("mode", ["full", "seen_only"])
    @pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
    def test_finite_difference_small_instance(self, rng, mode, lam):
        space = make_space(5, 2, n_meta=3)
        table = make_table(random_unit_columns(rng, 8, 7))
        model = make_model(table, space, d_f=8, seed=1, mode=mode)
        model.w1 = rng.standard_normal((8, 8)) * 0.5
        model.box_w = rng.standard_normal(model.box_w.shape) * 0.1
        model.box_b = rng.standard_normal(model.box_b.shape) * 0.1
        batch = random_batch(rng, space, 8)
        _, grads = loss_gradients(model, batch, space, lam)
        for analytic, param in [
            (grads["w1"], model.w1),
            (grads["box_w"], model.box_w),
            (grads["box_b"], model.box_b),
        ]:
            numeric = fd_gradient(model, batch, space, lam, param)
            assert max_rel_err(analytic, numeric) < 1e-4

    def test_lambda_one_equals_pure_margin_path(self, rng):
        space = make_space(4, 2)
        table = make_table(random_unit_columns(rng, 6, 6))
        model = make_model(table, space, d_f=6, seed=2)
        batch = random_batch(rng, space, 6)
        _, grads = loss_gradients(model, batch, space, 1.0)
        # independent pure-margin gradient: sigma weights from the definition
        dw1 = np.zeros_like(model.w1)
        for feature, y in zip(batch.features, batch.ys):
            o = (feature @ model.w1) @ model.w2
            g = np.zeros(space.bg_id)
            cols = [c - 1 for c in range(1, space.bg_id + 1) if c != y]
            diffs = o[cols] - o[y - 1]
            sig = 1.0 / (1.0 + np.exp(-diffs))
            for c, w in zip(cols, sig / len(cols)):
                g[c] += w
            g[y - 1] -= sig.sum() / len(cols)
            dw1 += np.outer(feature, model.w2 @ g)
        dw1 /= len(batch)
        np.testing.assert_allclose(grads["w1"], dw1, atol=1e-12)

    def test_seen_only_gradient_ignores_unseen_scores(self, rng):
        space = make_space(4, 2)
        table = make_table(random_unit_columns(rng, 6, 6))
        model = make_model(table, space, d_f=6, seed=5, mode="seen_only")
        batch = random_batch(rng, space, 6)
        b1, g1 = loss_gradients(model, batch, space, 0.6)
        # perturbing unseen embedding columns must not change loss or grads
        w2 = model.w2.copy()
        w2[:, space.S : space.C] += rng.standard_normal((6, space.U))
        model2 = make_model(table, space, d_f=6, seed=5, mode="seen_only")
        model2.w2 = w2
        model2.w1 = model.w1.copy()
        b2, g2 = loss_gradients(model2, batch, space, 0.6)
        assert b1.l_cls == pytest.approx(b2.l_cls, abs=1e-15)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_reports_sample_index(self, rng):
        space = make_space(3, 1)
        table = make_table(random_unit_columns(rng, 4, 4))
        model = make_model(table, space, d_f=4)
        batch = random_batch(rng, space, 4, size=3)
        batch.features[1] = [np.inf, 0.0, 0.0, 0.0]
        with pytest.raises(NumericFailureError) as exc:
            loss_gradients(model, batch, space, 0.5)
        assert exc.value.sample_index == 1

    def test_empty_batch_rejected(self, rng):
        space = make_space(3, 1)
        table = make_table(random_unit_columns(rng, 4, 4))
        model = make_model(table, space, d_f=4)
        with pytest.raises(ConfigError):
            loss_gradients(model, random_batch(rng, space, 4, size=0), space, 0.5)

    def test_unseen_label_in_batch_rejected(self, rng):
        space = make_space(3, 1)
        table = make_table(random_unit_columns(rng, 4, 4))
        model = make_model(table, space, d_f=4)
        batch = random_batch(rng, space, 4, size=2)
        batch.ys[0] = space.S + 1
        with pytest.raises(ConfigError, match="target 4 is an unseen class"):
            loss_gradients(model, batch, space, 0.5)

    @pytest.mark.parametrize("bad, message", [
        ("unseen", "target 4 is an unseen class"),
        (0, "target 0 outside the extended label set"),
        (6, "target 6 outside the extended label set"),
    ])
    def test_first_bad_target_named(self, rng, bad, message):
        space = make_space(3, 1)
        model = make_model(make_table(random_unit_columns(rng, 4, 4)), space, d_f=4)
        batch = random_batch(rng, space, 4, size=4)
        batch.ys[2] = space.S + 1 if bad == "unseen" else bad
        batch.ys[3] = 0
        with pytest.raises(ConfigError, match=message):
            loss_gradients(model, batch, space, 0.5)

    def test_foreground_row_without_finite_target_rejected(self, rng):
        space = make_space(3, 1)
        model = make_model(make_table(random_unit_columns(rng, 4, 4)), space, d_f=4)
        batch = random_batch(rng, space, 4, size=3)
        batch.ys[:] = [space.bg_id, 1, 2]
        batch.targets[1:] = [[0.0, 0.0, 0.0, 0.0], [0.0, np.nan, 0.0, 0.0]]
        with pytest.raises(ConfigError, match="foreground sample 2"):
            loss_gradients(model, batch, space, 0.5)


@st.composite
def kernel_cases(draw):
    n_meta = draw(st.integers(1, 6))
    n_seen = draw(st.integers(max(1, n_meta - 2), 8))
    n_unseen = draw(st.integers(max(0, n_meta - n_seen), 3))
    return (
        make_space(n_seen, n_unseen, n_meta=n_meta),
        draw(st.integers(1, 32)),
        draw(st.sampled_from(["full", "seen_only"])),
        draw(st.floats(0.0, 1.0)),
        draw(st.integers(0, 2**32 - 1)),
    )


class TestBatchedKernel:
    """The batched kernel agrees with per-row references and per-row calls."""

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_batch_matches_brute_force_and_single_rows(self, case):
        space, size, mode, lam, seed = case
        rng = np.random.default_rng(seed)
        table = make_table(random_unit_columns(rng, 5, space.C))
        model = make_model(table, space, d_f=5, mode=mode)
        model.w1 = rng.standard_normal(model.w1.shape) * 0.7
        batch = random_batch(rng, space, 5, size=size)

        breakdown, grads = loss_gradients(model, batch, space, lam)
        full_ids = list(range(1, space.bg_id + 1))
        mm_ids = full_ids if mode == "full" else list(space.seen_ids) + [space.bg_id]
        rows = [((f @ model.w1) @ model.w2, y) for f, y in zip(batch.features, batch.ys)]
        mm_ref = sum(brute_force_mm(o, y, mm_ids) for o, y in rows) / size
        assert breakdown.l_mm == pytest.approx(mm_ref, rel=0, abs=1e-12)
        if mode == "full":
            mc_ref = sum(brute_force_mc(o, y, space) for o, y in rows) / size
            assert breakdown.l_mc == pytest.approx(mc_ref, rel=0, abs=1e-12)
        else:
            assert breakdown.l_mc == 0.0

        # a row scattered into another meta group's block would break this
        per_row = sum(loss_gradients(model, batch.rows([i]), space, lam)[1]["w1"]
                      for i in range(size))
        scale = max(float(np.abs(per_row).max()), 1e-300)
        np.testing.assert_allclose(size * grads["w1"], per_row, rtol=0, atol=1e-12 * scale)


def sigmoid_masked(x):
    """The masked logistic: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def class_terms_ref(scores, ys, space, lam, mode):
    """The kernel as it was with one clustering block per target meta-class
    and one softplus and sigmoid call per block: the margin half gathered
    with ``take_along_axis`` and scattered with ``put_along_axis``, then
    every meta's rows ranked in one (n_m, |out|, |z|) block, each block
    reduced with ``.mean``.  It shares nothing with the module but the
    margin column table."""
    rows = np.arange(scores.shape[0])
    cols = _margin_table(space, mode)[ys]
    diffs = np.ascontiguousarray(
        np.take_along_axis(scores, cols, axis=1) - scores[rows, ys - 1][:, None]
    )
    l_mm = np.logaddexp(0.0, diffs).mean(axis=1)
    w = sigmoid_masked(diffs) / cols.shape[1]
    g_mm = np.zeros_like(scores)
    np.put_along_axis(g_mm, cols, w, axis=1)
    g_mm[rows, ys - 1] -= w.sum(axis=1)
    l_mc = np.zeros(scores.shape[0])
    if mode == "seen_only":
        return l_mm, l_mc, g_mm
    g_mc = np.zeros_like(scores)
    target_meta = np.array([space.meta_of(int(y)) for y in ys])
    for m in np.unique(target_meta):
        idx = np.flatnonzero(target_meta == m)
        z = np.array(space.members(int(m))) - 1
        out = np.setdiff1d(np.arange(space.bg_id), z)
        o = scores[idx]
        pairs = np.ascontiguousarray(o[:, out, None] - o[:, None, z])
        l_mc[idx] = np.logaddexp(0.0, pairs).reshape(idx.size, -1).mean(axis=1)
        w = sigmoid_masked(pairs) / (out.size * z.size)
        g_mc[idx[:, None], out] += w.sum(axis=2)
        g_mc[idx[:, None], z] -= w.sum(axis=1)
    return l_mm, l_mc, lam * g_mm + (1.0 - lam) * g_mc


@st.composite
def uneven_spaces(draw):
    """Label spaces whose metas differ in size, one-member metas included,
    with classes dealt to metas in a drawn order."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    metas = draw(st.permutations([m for m, k in enumerate(sizes, 1) for _ in range(k)]))
    labels = [f"c{i}" for i in range(1, len(metas) + 1)]
    n_seen = draw(st.integers(1, len(labels)))
    return build_label_space(labels[:n_seen], labels[n_seen:],
                             {c: f"m{m}" for c, m in zip(labels, metas)})


class TestKernelMatchesPerMetaReference:
    """The per-size kernel gives the per-meta loop's bits: every row ranks
    the same pairs, laid out and summed in the same order."""

    @settings(max_examples=300, deadline=None)
    @given(uneven_spaces(), st.sampled_from(["background", "foreground", "mixed"]),
           st.integers(1, 16), st.sampled_from(["full", "seen_only"]), st.floats(0.0, 1.0),
           st.sampled_from([0.1, 3.0, 300.0]), st.integers(0, 2**32 - 1))
    def test_bit_equal(self, space, rows, n, mode, lam, scale, seed):
        rng = np.random.default_rng(seed)
        seen = rng.integers(1, space.S + 1, size=n)
        ys = {"background": np.full(n, space.bg_id), "foreground": seen,
              "mixed": np.where(rng.random(n) < 0.5, seen, space.bg_id)}[rows]
        scores = rng.standard_normal((n, space.bg_id)) * scale
        for got, want in zip(_class_terms(scores, ys, space, lam, mode),
                             class_terms_ref(scores, ys, space, lam, mode)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()  # signed zeros too

    @pytest.mark.parametrize("scale", [0.1, 3.0, 300.0])
    def test_background_clustering_is_full_margin(self, rng, scale):
        # {bg} is background's meta-class: its clustering term ranks every
        # class against bg, which is exactly the full margin term.
        space = make_space(4, 3, meta_of={
            "c1": "m1", "c2": "m1", "c3": "m2", "c4": "m3", "c5": "m3", "c6": "m3", "c7": "m2",
        })
        for _ in range(20):
            o = rng.standard_normal(space.bg_id) * scale
            assert clustering_loss(o, space.bg_id, space) == max_margin_loss(o, space.bg_id, space)
            l_mm, l_mc, _ = class_terms_ref(o[None], np.array([space.bg_id]), space, 0.5, "full")
            assert l_mc[0] == l_mm[0] == max_margin_loss(o, space.bg_id, space)


# Signed zeros, subnormals, the range where exp(-|x|) turns subnormal and
# then underflows to 0 (|x| from 708 to 745), and the extremes.  NaN is left
# out: scores are checked finite, so the kernel never ranks one.
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
               709.0, -709.0, 709.79, -709.79, 710.0, -710.0, 745.2, -745.2,
               1e308, -1e308, math.inf, -math.inf]


@st.composite
def sigmoid_inputs(draw):
    """Float64 arrays, plain or as strided views of a larger array."""
    elements = st.one_of(st.sampled_from(EDGE_FLOATS),
                         st.floats(allow_nan=False, width=64),
                         st.floats(-800.0, 800.0))
    base = np.array(draw(st.lists(elements, min_size=1, max_size=60)), dtype=np.float64)
    start, step = draw(st.integers(0, 3)), draw(st.sampled_from([1, 2, 3, -1]))
    return base[start::step] if base[start::step].size else base


class TestSigmoid:
    @settings(max_examples=300, deadline=None)
    @given(sigmoid_inputs())
    def test_equals_masked_form_bit_for_bit(self, x):
        got, want = _sigmoid(x), sigmoid_masked(x)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_edges(self):
        x = np.array(EDGE_FLOATS)
        assert _sigmoid(x).tobytes() == sigmoid_masked(x).tobytes()
        assert _sigmoid(x.reshape(4, 5)[:, ::2]).tobytes() == sigmoid_masked(
            x.reshape(4, 5)[:, ::2]).tobytes()


class TestGradientAudit:
    # Any change to the draws of ``audit.random_instance`` (their order, or
    # how its embeddings, label space and model are built) moves these bits.
    @pytest.mark.parametrize("seed, max_rel_err", [
        (0, "0x1.83637c522f123p-20"),
        (1, "0x1.089769940025bp-20"),
        (2, "0x1.b8c0ed4b72333p-25"),
    ])
    def test_max_rel_err_is_pinned(self, seed, max_rel_err):
        result = gradient_audit(trials=12, seed=seed)
        assert result.max_rel_err == float.fromhex(max_rel_err)
        assert result.passed
