import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zsdet.data import Proposals
from zsdet.errors import ConfigError
from zsdet.evaluation import nms
from zsdet.infer import (
    NMS_IOU,
    Detections,
    conse_detect,
    conse_project,
    detect,
    dump_detections,
    tag_image,
)
from zsdet.model import decode_boxes, forward_boxes, forward_scores, normalized_scores

from conftest import (
    Detection,
    axis_setup,
    column,
    make_model,
    make_space,
    make_table,
    per_image,
    read_dump,
    rows_of,
)
from test_evaluation import HALF, grid_boxes, nms_ref, nms_rows


def nms_at(monkeypatch, iou):
    """Make both routes run their per-image NMS at ``iou`` in place of
    ``NMS_IOU``; at 0 they keep every candidate, in order."""
    keep = (lambda d, _: nms(d, iou)) if iou > 0.0 else (lambda d, _: np.arange(len(d)))
    monkeypatch.setattr("zsdet.infer.nms", keep)


def prop(feature, box=(0.0, 0.0, 10.0, 10.0)):
    """One proposal, as a one-row :class:`Proposals`."""
    return Proposals(np.asarray(feature, dtype=np.float64)[None],
                     np.asarray(box, dtype=np.float64)[None])


def stack(props, d_f=0):
    """One image's proposals from one-row ones; ``d_f`` sizes an image with none."""
    if not props:
        return Proposals(np.empty((0, d_f)), np.empty((0, 4)))
    return Proposals(np.concatenate([p.features for p in props]),
                     np.concatenate([p.boxes for p in props]))


class TestDetect:
    def test_unseen_hit_uses_proposal_box_with_zero_head(self):
        model, table, space = axis_setup()
        p = prop(column(table, "c3") * 2.0, box=(5, 5, 25, 25))
        dets = rows_of(detect(model, p, "img", alpha=0.5))
        assert len(dets) == 1
        assert dets[0].label == 3
        assert dets[0].score == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(dets[0].box, p.boxes[0], atol=1e-9)

    def test_background_argmax_rejected(self):
        model, _, space = axis_setup()
        f = np.array([1.0, 1.0, 1.0, 0.0])  # parallel to the background mean
        assert len(detect(model, prop(f), "img", alpha=0.0)) == 0

    def test_threshold_is_strict(self):
        model, table, space = axis_setup()
        p = prop(column(table, "c3"))
        [d] = rows_of(detect(model, p, "img", alpha=0.0))
        assert len(detect(model, p, "img", alpha=d.score)) == 0
        assert len(detect(model, p, "img", alpha=d.score - 1e-9)) == 1

    def test_unseen_tie_goes_to_lowest_id(self):
        model, table, space = axis_setup(n_seen=2, n_unseen=2, d=5)
        # equal unseen alignment, pushed away from the background mean
        f = (
            column(table, "c3")
            + column(table, "c4")
            - 0.3 * (column(table, "c1") + column(table, "c2"))
        )
        [d] = rows_of(detect(model, prop(f), "img", alpha=0.5))
        assert d.label == 3

    def test_zero_feature_treated_as_background(self):
        model, _, space = axis_setup()
        assert len(detect(model, prop(np.zeros(4)), "img", alpha=0.0)) == 0

    @pytest.mark.parametrize("c", [1e-170, 1e-300, 1e200])
    def test_tiny_and_huge_features_are_scored(self, c):
        model, table, space = axis_setup()
        f = column(table, "c3") + 0.1 * column(table, "c1")
        [want] = rows_of(detect(model, prop(f), "img", alpha=0.5))
        [got] = rows_of(detect(model, prop(c * f), "img", alpha=0.5))
        assert got.label == want.label == 3
        assert got.score == pytest.approx(want.score, rel=1e-14)

    def test_per_class_nms_drops_duplicates(self, monkeypatch):
        model, table, space = axis_setup()
        p1 = prop(column(table, "c3") * 2, box=(0, 0, 10, 10))
        p2 = prop(column(table, "c3"), box=(0.5, 0.5, 10.5, 10.5))
        kept = detect(model, stack([p1, p2]), "img", alpha=0.1)
        assert len(kept) == 1
        nms_at(monkeypatch, 0.0)
        unsuppressed = detect(model, stack([p1, p2]), "img", alpha=0.1)
        assert len(unsuppressed) == 2

    def test_scores_all_above_alpha(self):
        model, table, space = axis_setup()
        rng = np.random.default_rng(0)
        props = stack([prop(rng.standard_normal(4)) for _ in range(40)])
        for d in rows_of(detect(model, props, "img", alpha=0.3)):
            assert d.score > 0.3

    def test_box_decoded_from_best_seen_class(self):
        model, table, space = axis_setup()
        # class 2's slice shifts the box; make c2 the best seen class
        model.box_b = np.array([0, 0, 0, 0, 0.5, 0.0, 0.0, 0.0], dtype=np.float64)
        f = column(table, "c3") + 0.5 * column(table, "c2")
        [d] = rows_of(detect(model, prop(f, box=(0, 0, 10, 10)), "img", alpha=0.1))
        np.testing.assert_allclose(d.box, [5.0, 0.0, 15.0, 10.0], atol=1e-9)


class TestConseProject:
    def test_k1_takes_top_vector(self):
        vectors = np.eye(3)[:, :2]
        e = conse_project(np.array([0.2, 0.9]), vectors, k=1)
        np.testing.assert_allclose(e, 0.9 * vectors[:, 1], atol=1e-15)

    def test_equal_scores_sum_linearly(self):
        vectors = np.eye(3)[:, :2]
        e = conse_project(np.array([0.4, 0.4]), vectors, k=2)
        np.testing.assert_allclose(e, 0.4 * (vectors[:, 0] + vectors[:, 1]), atol=1e-15)

    def test_tie_order_is_stable_by_class_id(self):
        vectors = np.eye(3)[:, :3]
        e = conse_project(np.array([0.5, 0.5, 0.1]), vectors, k=1)
        np.testing.assert_allclose(e, 0.5 * vectors[:, 0], atol=1e-15)

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            conse_project(np.array([0.5, 0.5]), np.eye(2), k=3)
        with pytest.raises(ConfigError):
            conse_project(np.array([0.5, 0.5]), np.eye(2), k=0)

    def test_rows_match_single_row_projection(self, rng):
        vectors = rng.standard_normal((5, 6))
        scores = rng.standard_normal((7, 6))
        scores[3, 1] = scores[3, 4]  # a tie inside one row
        batch = conse_project(scores, vectors, k=3)
        assert batch.shape == (7, 5)
        for row, e in zip(scores, batch):
            np.testing.assert_allclose(e, conse_project_ref(row, vectors, 3), rtol=0, atol=1e-12)
        assert conse_project(np.empty((0, 6)), vectors, k=3).shape == (0, 5)


class TestConseDetect:
    def overlap_setup(self):
        # unseen c3 lies in the span of the seen vectors
        raw = np.array(
            [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        table = make_table(raw)
        space = make_space(2, 1)
        model = make_model(table, space, d_f=4)
        model.w1 = np.eye(4)
        return model, table, space

    def test_projection_parallel_to_unseen_scores_one(self):
        model, table, space = axis_setup(n_seen=2, n_unseen=1)
        # make the unseen embedding equal the first seen embedding
        w2 = model.w2.copy()
        w2[:, 2] = w2[:, 0]
        model.w2 = w2
        [d] = rows_of(conse_detect(model, prop(np.eye(4)[0]), "img", k=2, alpha=0.5))
        assert d.label == 3
        assert d.score == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projection_discarded(self):
        model, table, space = axis_setup()
        # feature along seen c1; unseen c3 is orthogonal to every seen vector
        out = conse_detect(model, prop(np.eye(4)[0]), "img", k=2, alpha=0.1)
        assert len(out) == 0

    def test_within_span_unseen_recovered(self):
        model, table, space = self.overlap_setup()
        out = conse_detect(model, prop(np.array([1.0, 1.0, 0, 0])), "img", k=2, alpha=0.2)
        # the background (mean) outranks both seen classes for this feature
        assert len(out) == 0
        out = conse_detect(model, prop(np.array([1.0, 0.2, 0, 0])), "img", k=2, alpha=0.2)
        assert out.labels.tolist() == [3]

    def test_k_larger_than_seen_rejected(self):
        model, _, space = axis_setup()
        with pytest.raises(ConfigError):
            conse_detect(model, prop(np.eye(4)[0]), "img", k=5, alpha=0.1)

    @pytest.mark.parametrize("k", [0, 3])
    def test_k_checked_before_scoring(self, k):
        # every proposal is zero-norm, so none would reach the projection
        model, _, space = axis_setup()
        for proposals in (stack([prop(np.zeros(4)), prop(np.zeros(4))]), stack([], 4)):
            with pytest.raises(ConfigError, match="K must be in 1..2"):
                conse_detect(model, proposals, "img", k=k, alpha=0.1)

    def test_defaults_follow_reference_protocol(self):
        import inspect

        sig = inspect.signature(conse_detect)
        assert sig.parameters["k"].default == 10
        assert sig.parameters["alpha"].default == 0.1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_projection_whose_squares_overflow_keeps_its_cosines(self, rng):
        # a checkpoint's finite but huge W1 scales every projection, whose
        # sum of squares then overflows; cosines do not depend on the scale
        model, table, space = self.overlap_setup()
        props = stack([prop(rng.standard_normal(4)) for _ in range(50)])
        base = conse_detect(model, props, "img", k=2, alpha=-2.0)
        assert len(base)
        model.w1 = np.eye(4) * 1e300
        huge = conse_detect(model, props, "img", k=2, alpha=-2.0)
        assert huge.labels.tolist() == base.labels.tolist()
        np.testing.assert_allclose(huge.scores, base.scores, rtol=1e-12)

    def test_scores_are_cosines_in_unit_range(self, rng):
        model, table, space = self.overlap_setup()
        props = stack([prop(rng.standard_normal(4)) for _ in range(50)])
        for d in rows_of(conse_detect(model, props, "img", k=2, alpha=-2.0)):
            assert -1.0 - 1e-12 <= d.score <= 1.0 + 1e-12


class TestTagImage:
    def test_single_proposal_equals_its_scores(self):
        model, table, space = axis_setup(n_seen=2, n_unseen=2, d=5)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(5)
        o_hat = normalized_scores(model, f)
        tags = tag_image(model, prop(f))
        assert tags.shape == (space.U,)
        for uid in space.unseen_ids:
            assert tags[uid - space.S - 1] == pytest.approx(o_hat[uid - 1], abs=1e-15)

    def test_two_proposals_elementwise_max(self):
        model, table, space = axis_setup(n_seen=2, n_unseen=2, d=5)
        rng = np.random.default_rng(2)
        f1, f2 = rng.standard_normal((2, 5))
        o1 = normalized_scores(model, f1)
        o2 = normalized_scores(model, f2)
        tags = tag_image(model, stack([prop(f1), prop(f2)]))
        for uid in space.unseen_ids:
            assert tags[uid - space.S - 1] == pytest.approx(max(o1[uid - 1], o2[uid - 1]),
                                                            abs=1e-15)

    def test_permutation_equivariant(self):
        model, table, space = axis_setup(n_seen=2, n_unseen=2, d=5)
        rng = np.random.default_rng(3)
        props = [prop(rng.standard_normal(5)) for _ in range(5)]
        a = tag_image(model, stack(props))
        b = tag_image(model, stack(props[::-1]))
        assert a.tolist() == b.tolist()

    def test_all_zero_proposals_give_zero_scores(self):
        model, _, space = axis_setup()
        tags = tag_image(model, prop(np.zeros(4)))
        assert tags.tolist() == [0.0]


class TestDetectionDump:
    def test_roundtrip(self, tmp_path):
        space = make_space(2, 2)
        dets = [
            Detection("a", 3, 0.25, np.array([1.0, 2.0, 3.5, 4.25])),
            Detection("b", 4, 0.125, np.array([0.0, 0.0, 1.0, 1.0])),
        ]
        path = tmp_path / "dets.jsonl"
        dump_detections(per_image(dets), path, space.labels)
        loaded = read_dump(path, space.labels)
        assert [(d.image_id, d.label, d.score) for d in loaded] == [
            ("a", 3, 0.25),
            ("b", 4, 0.125),
        ]
        np.testing.assert_array_equal(loaded[0].box, dets[0].box)

    def test_dump_uses_label_names(self, tmp_path):
        space = make_space(1, 1)
        path = tmp_path / "dets.jsonl"
        dump_detections(per_image([Detection("a", 2, 0.5, np.zeros(4))]), path, space.labels)
        assert '"label": "c2"' in path.read_text()

    def test_degenerate_boxes_read_back(self, tmp_path):
        space = make_space(1, 1)
        dets = [Detection("a", 2, 0.5, np.array([3.0, 3.0, 3.0, 3.0])),
                Detection("a", 2, 0.25, np.array([5.0, 0.0, 1.0, 2.0]))]
        path = tmp_path / "dets.jsonl"
        dump_detections(per_image(dets), path, space.labels)
        for got, ref in zip(read_dump(path, space.labels), dets):
            np.testing.assert_array_equal(got.box, ref.box)


def dump_ref(detections, path, space):
    """The per-record writer :func:`dump_detections` replaced."""
    with open(path, "w", encoding="utf-8") as f:
        for d in rows_of(detections):
            rec = {"image_id": d.image_id, "label": space.label_of(d.label),
                   "score": d.score, "box": [float(v) for v in d.box]}
            f.write(json.dumps(rec) + "\n")


# names that need JSON escapes: a quote, a backslash, a control character,
# non-ASCII and a character outside the BMP
ESCAPE_SPACE = make_space(2, 3, labels=['q"uote', "back\\slash", "tab\tbed", "caf\u00e9",
                                        "\U0001f600"])
EXTREME_FLOATS = [5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, 1e308, -1e308,
                  1.7976931348623157e308, 3.0, -2.0**53, 1e16, 0.1,
                  float("nan"), float("inf"), float("-inf")]


@st.composite
def detections_lists(draw):
    """Per-image detections, images without rows included, over the whole
    float range."""
    values = st.floats() | st.sampled_from(EXTREME_FLOATS)
    out = []
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, 4))
        out.append(Detections(
            draw(st.text(max_size=6) | st.sampled_from(['"', "\\", "\n\x00", "\u2028"])),
            np.array(draw(st.lists(st.integers(1, ESCAPE_SPACE.C), min_size=n, max_size=n)),
                     dtype=np.intp),
            np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64),
            np.array(draw(st.lists(values, min_size=4 * n, max_size=4 * n)),
                     dtype=np.float64).reshape(n, 4),
        ))
    return out


class TestDumpBytes:
    @settings(max_examples=300, deadline=None)
    @given(detections_lists())
    def test_equals_json_dumps_per_record(self, detections):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = os.path.join(tmp, "got.jsonl"), os.path.join(tmp, "want.jsonl")
            dump_detections(detections, got, ESCAPE_SPACE.labels)
            dump_ref(detections, want, ESCAPE_SPACE)
            with open(got, "rb") as f, open(want, "rb") as g:
                assert f.read() == g.read()

    def test_non_finite_values_keep_json_spelling(self, tmp_path):
        d = Detections("a", np.array([3, 4]), np.array([np.nan, 0.5]),
                       np.array([[np.inf, -np.inf, 0.0, -0.0], [1.0, 2.0, 3.0, 1e308]]))
        dump_detections([d], tmp_path / "d.jsonl", ESCAPE_SPACE.labels)
        first = (tmp_path / "d.jsonl").read_text().splitlines()[0]
        assert '"score": NaN, "box": [Infinity, -Infinity, 0.0, -0.0]' in first


# -- batched scoring against the per-proposal loops it replaced ----------------


def _normalized_ref(model, feature):
    fnorm = float(np.linalg.norm(feature))
    if fnorm == 0.0:
        return None
    return forward_scores(model, feature) / (model.col_norms * fnorm)


def _seen_box_ref(model, feature, scores, box):
    s_star = int(np.argmax(scores[: model.n_seen])) + 1
    offsets = forward_boxes(model, feature)[4 * (s_star - 1) : 4 * s_star]
    return decode_boxes(np.asarray(box, dtype=np.float64), offsets)


def _label_nms_ref(detections, nms_iou):
    """One reference greedy pass per label, labels ascending."""
    kept = []
    for label in sorted({d.label for d in detections}):
        kept.extend(nms_ref([d for d in detections if d.label == label], nms_iou))
    return kept


def _class_nms_ref(detections, nms_iou):
    if nms_iou <= 0.0 or not detections:
        return detections
    return _label_nms_ref(detections, nms_iou)


def detect_ref(model, space, proposals, image_id, alpha, nms_iou=0.5):
    out = []
    s, c = space.S, space.C
    for feature, box in zip(proposals.features, proposals.boxes):
        scores = _normalized_ref(model, feature)
        if scores is None or int(np.argmax(scores)) == space.bg_id - 1:
            continue
        u_col = s + int(np.argmax(scores[s:c]))
        if scores[u_col] > alpha:
            box = _seen_box_ref(model, feature, scores, box)
            out.append(Detection(image_id, u_col + 1, float(scores[u_col]), box))
    return _class_nms_ref(out, nms_iou)


def conse_project_ref(seen_scores, seen_vectors, k):
    order = np.argsort(-seen_scores, kind="stable")[:k]
    return seen_vectors[:, order] @ seen_scores[order]


def conse_detect_ref(model, space, proposals, image_id, k, alpha, nms_iou=0.5):
    out = []
    s = space.S
    u_cols = np.arange(s, space.C)
    for feature, box in zip(proposals.features, proposals.boxes):
        scores = _normalized_ref(model, feature)
        if scores is None or scores[space.bg_id - 1] > scores[:s].max():
            continue
        e = conse_project_ref(scores[:s], model.w2[:, :s], k)
        e_norm = float(np.linalg.norm(e))
        if e_norm == 0.0:
            continue
        cos = (model.w2[:, u_cols].T @ e) / (e_norm * model.col_norms[u_cols])
        u_idx = int(np.argmax(cos))
        if cos[u_idx] > alpha:
            box = _seen_box_ref(model, feature, scores, box)
            out.append(Detection(image_id, s + u_idx + 1, float(cos[u_idx]), box))
    return _class_nms_ref(out, nms_iou)


def tag_image_ref(model, space, proposals):
    s, c = space.S, space.C
    rows = [scores[s:c] for feature in proposals.features
            if (scores := _normalized_ref(model, feature)) is not None]
    return np.max(rows, axis=0) if rows else np.zeros(c - s)


def assert_same_detections(got, ref):
    got = rows_of(got)
    assert [(d.image_id, d.label) for d in got] == [(d.image_id, d.label) for d in ref]
    for g, r in zip(got, ref):
        assert abs(g.score - r.score) <= 1e-12
        np.testing.assert_allclose(g.box, r.box, rtol=0, atol=1e-9)


def assert_same_tags(got, ref):
    assert got.shape == ref.shape
    assert (abs(got - ref) <= 1e-12).all()


def random_instance(rng):
    n_seen, n_unseen = int(rng.integers(2, 8)), int(rng.integers(1, 5))
    d, d_f = int(rng.integers(2, 9)), int(rng.integers(2, 9))
    table = make_table(rng.standard_normal((d, n_seen + n_unseen)))
    space = make_space(n_seen, n_unseen)
    model = make_model(table, space, d_f=d_f, seed=int(rng.integers(1 << 30)))
    model.box_w = 0.2 * rng.standard_normal(model.box_w.shape)
    model.box_b = 0.2 * rng.standard_normal(model.box_b.shape)
    return model, space


def random_proposals(rng, d_f):
    props = []
    for _ in range(int(rng.integers(0, 24))):
        zero = rng.uniform() < 0.2
        x1, y1 = rng.uniform(0, 40, 2)
        w, h = rng.uniform(5, 30, 2)
        f = np.zeros(d_f) if zero else rng.standard_normal(d_f)
        props.append(prop(f, (x1, y1, x1 + w, y1 + h)))
    return stack(props, d_f)


class TestBatchedMatchesPerProposalLoops:
    """The per-image batches against the loops they replaced: same
    detections in the same order, scores within 1e-12, boxes within 1e-9."""

    def test_random_models_both_routes(self, rng, monkeypatch):
        for _ in range(60):
            model, space = random_instance(rng)
            props = random_proposals(rng, model.d_f)
            alpha = float(rng.uniform(-0.5, 0.3))
            nms_iou = float(rng.choice([0.0, 0.3, 0.5]))
            nms_at(monkeypatch, nms_iou)
            assert_same_detections(
                detect(model, props, "img", alpha=alpha),
                detect_ref(model, space, props, "img", alpha, nms_iou),
            )
            # K >= 2: at K = 1 all proposals sharing a top seen class tie
            # exactly in cosine, and rounding alone would order them
            k = int(rng.integers(2, space.S + 1))
            assert_same_detections(
                conse_detect(model, props, "img", k=k, alpha=alpha),
                conse_detect_ref(model, space, props, "img", k, alpha, nms_iou),
            )
            assert_same_tags(tag_image(model, props), tag_image_ref(model, space, props))

    def test_image_without_proposals(self, rng):
        model, space = random_instance(rng)
        none = stack([], model.d_f)
        assert len(detect(model, none, "img", alpha=-1.0)) == 0
        assert len(conse_detect(model, none, "img", k=1, alpha=-1.0)) == 0
        assert tag_image(model, none).tolist() == tag_image_ref(model, space, none).tolist()

    def test_all_zero_features(self):
        model, _, space = axis_setup(n_seen=2, n_unseen=2, d=5)
        props = stack([prop(np.zeros(5)) for _ in range(3)])
        assert len(detect(model, props, "img", alpha=-1.0)) == 0
        assert len(conse_detect(model, props, "img", k=2, alpha=-1.0)) == 0
        assert tag_image(model, props).tolist() == [0.0, 0.0]

    def test_score_ties(self, monkeypatch):
        # exact arithmetic: axis embeddings, identity W1, integer features
        model, table, space = axis_setup(n_seen=2, n_unseen=2, d=5)
        model.box_b = np.array([1.0, 0, 0, 0, -1.0, 0, 0, 0])  # seen class shows in the box
        features = [
            [0, 0, 1, 1, 0],  # unseen tie c3 = c4
            [1, 1, 1, 1, 0],  # seen tie and unseen tie
            [0, 0, 1, 1, 0],  # duplicate of the first: NMS score tie
            [0, 0, 0, 0, 0],  # zero-norm
            [2, 2, 0, 1, 1],  # seen tie, c4 best unseen
            [1, 1, -1, -1, 0],  # seen tie above the background, unseen tie
            [1, 1, -1, -1, 0],  # its duplicate
            [3, 1, -1, -1, 0],  # c1 best seen
        ]
        boxes = [(0, 0, 10, 10), (1, 1, 11, 11), (0, 0, 10, 10), (0, 0, 4, 4),
                 (30, 30, 40, 40), (50, 50, 60, 60), (51, 50, 61, 60), (0, 50, 10, 60)]
        props = stack([prop(np.array(f, dtype=np.float64), b) for f, b in zip(features, boxes)])
        for nms_iou in (0.0, 0.5):
            nms_at(monkeypatch, nms_iou)
            got = detect(model, props, "img", alpha=-1.0)
            assert_same_detections(got, detect_ref(model, space, props, "img", -1.0, nms_iou))
            assert got
            for k in (1, 2):
                got = conse_detect(model, props, "img", k=k, alpha=-1.0)
                ref = conse_detect_ref(model, space, props, "img", k, -1.0, nms_iou)
                assert_same_detections(got, ref)
                assert got
        assert_same_tags(tag_image(model, props), tag_image_ref(model, space, props))


class TestLabelAwareNms:
    """One :func:`nms` pass over an image's mixed-label detections against
    one reference pass per label."""

    @settings(max_examples=300, deadline=None)
    @given(
        grid_boxes(max_size=12),
        st.lists(st.tuples(st.sampled_from([3, 4, 5]), st.sampled_from(["a", "b"]),
                           st.sampled_from([0.1, 0.5, 0.9])), min_size=12, max_size=12),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    @example(HALF + HALF, [(3, "a", 0.5), (4, "a", 0.5), (4, "b", 0.5), (3, "a", 0.5)]
             + [(3, "a", 0.5)] * 8, 0.5)
    def test_matches_one_reference_pass_per_label(self, boxes, rows, thresh):
        d = [Detection(img, label, score, np.asarray(box))
             for box, (label, img, score) in zip(boxes, rows)]
        kept = [id(k) for k in nms_rows(d, thresh)]
        assert kept == [id(r) for r in _label_nms_ref(d, thresh)]
        if thresh > 0.0:
            assert kept == [id(r) for r in _class_nms_ref(d, thresh)]

    def test_routes_call_nms_once_per_image_with_candidates(self, rng, monkeypatch):
        calls = []

        def counting_nms(detections, iou_thresh):
            calls.append((len(detections), iou_thresh))
            return np.arange(len(detections))  # keep every candidate

        monkeypatch.setattr("zsdet.infer.nms", counting_nms)
        for _ in range(30):
            model, space = random_instance(rng)
            props = random_proposals(rng, model.d_f)
            alpha = float(rng.uniform(-0.5, 0.3))
            k = int(rng.integers(1, space.S + 1))
            for route in (lambda: detect(model, props, "img", alpha=alpha),
                          lambda: conse_detect(model, props, "img", k=k, alpha=alpha)):
                candidates = route()
                assert calls == ([(len(candidates), NMS_IOU)] if candidates else [])
                calls.clear()
