import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zsdet.errors import ConfigError
from zsdet.evaluation import (
    TASKS,
    _envelope_area,
    evaluate,
    iou_matrix,
    nms,
)
from zsdet.semantics import build_label_space

from conftest import Detection, GroundTruth, ap_of, gt_rows, make_space, per_image, stacked


def det(img, label, score, box):
    return Detection(img, label, score, np.asarray(box, dtype=np.float64))


def nms_rows(rows, thresh):
    """The ``rows`` that :func:`nms` keeps, in its order."""
    return [rows[i] for i in nms(stacked(rows), thresh)]


def gt(img, label, box):
    return GroundTruth(img, label, np.asarray(box, dtype=np.float64))


# -- independent references ---------------------------------------------------


def iou(box_a, box_b) -> float:
    """Scalar IoU of two well-ordered boxes; degenerate -> 0.  Every
    :func:`iou_matrix` entry equals it bit for bit."""
    ax1, ay1, ax2, ay2 = (float(v) for v in box_a)
    bx1, by1, bx2, by2 = (float(v) for v in box_b)
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_ref(a, b):
    """Area arithmetic done with shapely-free rectangle clipping."""
    ix = max(0.0, min(a[2], b[2]) - max(a[0], b[0]))
    iy = max(0.0, min(a[3], b[3]) - max(a[1], b[1]))
    inter = ix * iy
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0 else 0.0


def nms_ref(detections, thresh):
    """O(n^2) reference: explicit suppressed-flag formulation."""
    idx = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    suppressed = [False] * len(detections)
    keep = []
    for i in idx:
        if suppressed[i]:
            continue
        keep.append(i)
        for j in idx:
            if not suppressed[j] and j != i:
                if iou_ref(detections[i].box, detections[j].box) > thresh:
                    suppressed[j] = True
    return [detections[i] for i in keep]


def ap_ref(detections, gts, thresh):
    """Brute-force AP: greedy matching plus explicit envelope integration."""
    order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    matched = set()
    flags = []
    for i in order:
        d = detections[i]
        best, best_ov = None, 0.0
        for j, g in enumerate(gts):
            if j in matched or g.image_id != d.image_id:
                continue
            ov = iou_ref(d.box, g.box)
            if ov >= thresh and ov > best_ov:
                best, best_ov = j, ov
        if best is not None:
            matched.add(best)
            flags.append(True)
        else:
            flags.append(False)
    # precision/recall points
    points = []
    tp = fp = 0
    for f in flags:
        tp, fp = tp + int(f), fp + int(not f)
        points.append((tp / len(gts), tp / (tp + fp)))
    # precision envelope, integrate over recall steps
    ap = 0.0
    prev_r = 0.0
    for k, (r, _) in enumerate(points):
        if r == prev_r:
            continue
        env = max(p for rr, p in points[k:] if rr >= r) if points[k:] else 0.0
        env = max(p for rr, p in points if rr >= r)
        ap += (r - prev_r) * env
        prev_r = r
    return ap


def random_case(rng, n_det_max=6, n_gt_max=4, n_images=2):
    dets, gts = [], []
    for _ in range(int(rng.integers(0, n_det_max + 1))):
        img = f"i{rng.integers(n_images)}"
        x1, y1 = rng.uniform(0, 50, 2)
        w, h = rng.uniform(5, 40, 2)
        dets.append(det(img, 1, float(rng.uniform()), [x1, y1, x1 + w, y1 + h]))
    for _ in range(int(rng.integers(1, n_gt_max + 1))):
        img = f"i{rng.integers(n_images)}"
        x1, y1 = rng.uniform(0, 50, 2)
        w, h = rng.uniform(5, 40, 2)
        gts.append(gt(img, 1, [x1, y1, x1 + w, y1 + h]))
    return dets, gts


class TestIou:
    def test_identical(self):
        assert iou([0, 0, 10, 10], [0, 0, 10, 10]) == 1.0

    def test_disjoint(self):
        assert iou([0, 0, 10, 10], [20, 20, 30, 30]) == 0.0

    def test_hand_geometry(self):
        assert iou([0, 0, 10, 10], [5, 0, 15, 10]) == pytest.approx(1 / 3, abs=1e-15)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(100):
            a = np.sort(rng.uniform(0, 50, 4).reshape(2, 2), axis=0).T.ravel()
            b = np.sort(rng.uniform(0, 50, 4).reshape(2, 2), axis=0).T.ravel()
            a = [a[0], a[2], a[1], a[3]]
            b = [b[0], b[2], b[1], b[3]]
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0
            assert v == pytest.approx(iou_ref(a, b), abs=1e-12)

    def test_degenerate_zero_area(self):
        assert iou([0, 0, 0, 0], [0, 0, 10, 10]) == 0.0
        assert iou([0, 0, 0, 0], [0, 0, 0, 0]) == 0.0


@st.composite
def grid_boxes(draw, max_size=8):
    """Integer-grid boxes, zero width or height included."""
    out = []
    for _ in range(draw(st.integers(0, max_size))):
        x1, y1 = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        w, h = draw(st.integers(0, 6)), draw(st.integers(0, 6))
        out.append([float(x1), float(y1), float(x1 + w), float(y1 + h)])
    return out


HALF = [[0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 1.0, 1.0]]  # IoU exactly 0.5


class TestIouMatrix:
    @settings(max_examples=200, deadline=None)
    @given(grid_boxes(), grid_boxes())
    @example(HALF, HALF)
    @example([[0.0, 0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 3.0, 3.0]])
    def test_entries_are_scalar_iou_bit_for_bit(self, a, b):
        m = iou_matrix(a, b)
        assert m.shape == (len(a), len(b))
        for i, box_a in enumerate(a):
            for j, box_b in enumerate(b):
                assert m[i, j].tobytes() == np.float64(iou(box_a, box_b)).tobytes()

    def test_half_overlap_is_exact(self):
        assert iou_matrix(HALF, HALF)[0, 1] == 0.5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_areas_follow_ieee_without_a_warning(self):
        huge = [0.0, 0.0, 1e300, 1e300]
        m = iou_matrix([huge, [0.0, 0.0, 1.0, 1.0], [-1e300, -1e300, -1e299, -1e299]], [huge])
        # intersection and union overflow: NaN; only the union: 0; no overlap: 0
        assert np.isnan(m[0, 0]) and m[1, 0] == 0.0 and m[2, 0] == 0.0
        # NMS counts a NaN IoU as an overlap, AP matching as a miss
        d = [det("i", 1, 0.9, huge), det("i", 1, 0.8, huge)]
        assert [r.score for r in nms_rows(d, 0.5)] == [0.9]
        assert ap_of(d[:1], [gt("i", 1, huge)], 0.5) == 0.0


class TestNms:
    @settings(max_examples=200, deadline=None)
    @given(
        grid_boxes(max_size=10),
        st.lists(st.sampled_from([0.1, 0.5, 0.9]), min_size=10, max_size=10),
        st.sampled_from([0.0, 0.3, 0.5, 0.7]),
    )
    @example(HALF + HALF, [0.5] * 10, 0.5)
    def test_matches_reference_on_grid_boxes_with_tied_scores(self, boxes, scores, thresh):
        d = [det("i", 1, s, b) for s, b in zip(scores, boxes)]
        assert [id(k) for k in nms_rows(d, thresh)] == [id(r) for r in nms_ref(d, thresh)]

    def test_duplicate_boxes_keep_best(self):
        d = [det("i", 1, 0.9, [0, 0, 10, 10]), det("i", 1, 0.8, [0, 0, 10, 10])]
        kept = nms_rows(d, 0.5)
        assert len(kept) == 1
        assert kept[0].score == 0.9

    def test_disjoint_all_kept_ordered_by_score(self):
        d = [
            det("i", 1, 0.2, [0, 0, 5, 5]),
            det("i", 1, 0.9, [20, 20, 25, 25]),
            det("i", 1, 0.5, [40, 40, 45, 45]),
        ]
        kept = nms_rows(d, 0.5)
        assert [k.score for k in kept] == [0.9, 0.5, 0.2]

    def test_matches_reference_on_random_boxes(self, rng):
        for _ in range(100):
            d = []
            for _ in range(8):
                x1, y1 = rng.uniform(0, 30, 2)
                w, h = rng.uniform(5, 25, 2)
                d.append(det("i", 1, float(rng.uniform()), [x1, y1, x1 + w, y1 + h]))
            kept = nms_rows(d, 0.4)
            ref = nms_ref(d, 0.4)
            assert [id(k) for k in kept] == [id(r) for r in ref]

    def test_idempotent(self, rng):
        d = []
        for _ in range(10):
            x1, y1 = rng.uniform(0, 30, 2)
            w, h = rng.uniform(5, 25, 2)
            d.append(det("i", 1, float(rng.uniform()), [x1, y1, x1 + w, y1 + h]))
        once = nms_rows(d, 0.5)
        twice = nms_rows(once, 0.5)
        assert [id(a) for a in once] == [id(b) for b in twice]

    def test_score_tie_breaks_by_original_index(self):
        d = [det("i", 1, 0.5, [0, 0, 10, 10]), det("i", 1, 0.5, [1, 1, 11, 11])]
        kept = nms_rows(d, 0.3)
        assert kept[0] is d[0]


@st.composite
def ap_cases(draw):
    """Grid-box detections and ground truths over up to three images, with
    scores drawn from three values so that ranks tie."""
    images = st.sampled_from(["i0", "i1", "i2"])
    dets = [det(draw(images), 1, draw(st.sampled_from([0.2, 0.5, 0.8])), box)
            for box in draw(grid_boxes(max_size=8))]
    gts = [gt(draw(images), 1, box) for box in draw(grid_boxes(max_size=5))]
    return dets, gts


class TestAveragePrecision:
    def test_single_perfect_detection(self):
        assert ap_of(
            [det("i", 1, 0.9, [0, 0, 10, 10])], [gt("i", 1, [0, 0, 10, 10])], 0.5
        ) == 1.0

    def test_fp_ranked_above_tp(self):
        dets = [
            det("i", 1, 0.9, [30, 30, 40, 40]),  # FP
            det("i", 1, 0.5, [0, 0, 10, 10]),  # TP
        ]
        assert ap_of(dets, [gt("i", 1, [0, 0, 10, 10])], 0.5) == pytest.approx(0.5)

    def test_duplicate_detection_is_fp(self):
        dets = [
            det("i", 1, 0.9, [0, 0, 10, 10]),
            det("i", 1, 0.8, [0, 0, 10, 10]),
        ]
        gts = [gt("i", 1, [0, 0, 10, 10])]
        assert ap_of(dets, gts, 0.5) == 1.0
        # flip the ranking: the duplicate drags precision before the match
        dets2 = [
            det("i", 1, 0.8, [0, 0, 10, 10]),
            det("i", 1, 0.9, [0.5, 0.5, 10.5, 10.5]),
        ]
        assert ap_of(dets2, gts, 0.5) == 1.0

    def test_zero_ground_truths_undefined(self):
        with pytest.raises(ValueError):
            ap_of([det("i", 1, 0.5, [0, 0, 1, 1])], [], 0.5)

    def test_no_detections_zero(self):
        assert ap_of([], [gt("i", 1, [0, 0, 10, 10])], 0.5) == 0.0

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(200):
            dets, gts = random_case(rng)
            assert ap_of(dets, gts, 0.5) == pytest.approx(
                ap_ref(dets, gts, 0.5), abs=1e-9
            )

    @settings(max_examples=400, deadline=None)
    @given(ap_cases(), st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]))
    @example(([det("i0", 1, 0.5, HALF[0])], [gt("i0", 1, HALF[1])]), 0.5)
    @example(([det("i0", 1, 0.5, HALF[0]), det("i0", 1, 0.5, HALF[1]),
               det("i1", 1, 0.5, HALF[1])], [gt("i0", 1, HALF[1])]), 0.5)
    @example(([det("i0", 1, 0.5, [0.0, 0.0, 0.0, 0.0]), det("i2", 1, 0.8, HALF[0])],
              [gt("i0", 1, [0.0, 0.0, 0.0, 0.0]), gt("i1", 1, HALF[0])]), 0.0)
    @example(([det("i0", 1, 0.5, HALF[0]), det("i0", 1, 0.5, HALF[0])],
              [gt("i0", 1, HALF[0]), gt("i0", 1, HALF[0])]), 1.0)
    def test_matches_reference_on_grid_boxes_with_tied_scores(self, case, thresh):
        # integer-grid areas are exact, so IoU lands exactly on 0.5 where the
        # geometry says so (HALF), and both sides see the same matches.  Boxes
        # may be degenerate and detections may sit in images without ground
        # truth; at 0 a disjoint pair still cannot match (IoU 0 is not above
        # the running best), at 1 only identical boxes match
        dets, gts = case
        assume(gts)  # AP without ground truth is undefined (tested above)
        assert ap_of(dets, gts, thresh) == pytest.approx(
            ap_ref(dets, gts, thresh), rel=0, abs=1e-12
        )

    def test_invariant_to_monotone_score_transform(self, rng):
        dets, gts = random_case(rng, n_det_max=6, n_gt_max=4)
        while not dets:
            dets, gts = random_case(rng)
        base = ap_of(dets, gts, 0.5)
        warped = [det(d.image_id, d.label, float(np.exp(d.score) + 3), d.box) for d in dets]
        assert ap_of(warped, gts, 0.5) == pytest.approx(base, abs=1e-12)


def _envelope_loop_ref(recall, precision):
    """The per-point backward loop that the accumulated maximum replaced."""
    mrec = np.concatenate(([0.0], recall, [1.0]))
    mpre = np.concatenate(([0.0], precision, [0.0]))
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.nonzero(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


class TestEnvelopeArea:
    def test_bitwise_equal_to_the_loop_on_random_curves(self, rng):
        for _ in range(200):
            # a ranked list's curve, and an arbitrary one
            n = int(rng.integers(0, 40))
            cum_tp = np.cumsum(rng.uniform(size=n) < rng.uniform())
            n_pos = (int(cum_tp[-1]) if n else 0) + int(rng.integers(1, 5))
            curves = [(cum_tp / n_pos, cum_tp / np.arange(1, n + 1)),
                      (np.sort(rng.uniform(size=n)), rng.uniform(size=n))]
            for recall, precision in curves:
                got = _envelope_area(recall, precision)
                ref = _envelope_loop_ref(recall, precision)
                assert np.float64(got).tobytes() == np.float64(ref).tobytes()


class TestEvaluate:
    def make_perfect(self, space):
        gts = [
            gt("a", space.S + 1, [0, 0, 10, 10]),
            gt("a", space.S + 2, [20, 20, 30, 30]),
            gt("b", space.S + 1, [5, 5, 15, 15]),
        ]
        dets = [det(g.image_id, g.label, 0.9, g.box) for g in gts]
        return dets, gts

    def test_perfect_detector_all_tasks(self):
        space = make_space(4, 2, n_meta=2)
        dets, gts = self.make_perfect(space)
        assert evaluate(per_image(dets), gt_rows(gts), space, "T1").mean_ap == 1.0
        assert evaluate(per_image(dets), gt_rows(gts), space, "T2").mean_ap == 1.0
        tags = (["a", "b"], np.array([[1.0, 1.0], [1.0, 0.0]]))
        assert evaluate(tags, gt_rows(gts), space, "T3").mean_ap == 1.0
        assert evaluate(tags, gt_rows(gts), space, "T4").mean_ap == 1.0

    def test_within_meta_confusion_recovered_by_t2(self):
        # both unseen classes share one meta; detector swaps their labels
        space = make_space(2, 2, meta_of={"c1": "m1", "c2": "m2", "c3": "m1", "c4": "m1"})
        gts = [gt("a", 3, [0, 0, 10, 10]), gt("a", 4, [20, 20, 30, 30])]
        dets = [det("a", 4, 0.9, [0, 0, 10, 10]), det("a", 3, 0.8, [20, 20, 30, 30])]
        t1 = evaluate(per_image(dets), gt_rows(gts), space, "T1").mean_ap
        t2 = evaluate(per_image(dets), gt_rows(gts), space, "T2").mean_ap
        assert t1 == 0.0
        assert t2 == 1.0

    def test_t2_on_perfect_t1_is_perfect(self):
        space = make_space(4, 2, n_meta=2)
        dets, gts = self.make_perfect(space)
        assert evaluate(per_image(dets), gt_rows(gts), space, "T2").mean_ap == 1.0

    def test_classes_without_gt_excluded(self):
        space = make_space(4, 2, n_meta=2)
        gts = [gt("a", space.S + 1, [0, 0, 10, 10])]
        dets = [det("a", space.S + 1, 0.9, [0, 0, 10, 10])]
        report = evaluate(per_image(dets), gt_rows(gts), space, "T1")
        assert [r.label for r in report.rows] == [space.S + 1]
        assert report.mean_ap == 1.0

    def test_seen_gts_ignored(self):
        space = make_space(4, 2, n_meta=2)
        gts = [gt("a", 1, [0, 0, 10, 10]), gt("a", space.S + 1, [20, 20, 30, 30])]
        dets = [det("a", space.S + 1, 0.9, [20, 20, 30, 30])]
        assert evaluate(per_image(dets), gt_rows(gts), space, "T1").mean_ap == 1.0

    def test_non_unseen_detection_rejected(self):
        space = make_space(4, 2)
        for task in ("T1", "T2"):
            with pytest.raises(ConfigError, match="label 1 is not an unseen class id"):
                evaluate(per_image([det("a", 1, 0.9, [0, 0, 1, 1])]), gt_rows([]), space, task)

    @pytest.mark.parametrize("task", ["T3", "T4"])
    @pytest.mark.parametrize("shape", [(2, 1), (2, 3), (1, 2), (3, 2), (2,), (2, 2, 1)])
    def test_misshapen_tags_rejected(self, task, shape):
        space = make_space(4, 2)
        gts = [gt("a", space.S + 1, [0, 0, 10, 10])]
        tags = (["a", "b"], np.zeros(shape))
        with pytest.raises(ConfigError, match=rf"{task} expects tags of shape \(2, 2\)"):
            evaluate(tags, gt_rows(gts), space, task)

    def test_bad_task_rejected(self):
        space = make_space(2, 1)
        with pytest.raises(ConfigError):
            evaluate([], gt_rows([]), space, "T9")

    @pytest.mark.parametrize("thresh", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_iou_thresh_rejected(self, thresh):
        space = make_space(4, 2, n_meta=2)
        dets, gts = self.make_perfect(space)
        with pytest.raises(ConfigError, match="iou_thresh must be a finite number"):
            evaluate(per_image(dets), gt_rows(gts), space, "T1", iou_thresh=thresh)

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("thresh", [0.0, -0.5, 1.0 + 1e-12, 2.0])
    def test_iou_thresh_outside_unit_interval_rejected(self, task, thresh):
        space = make_space(4, 2, n_meta=2)
        dets, gts = self.make_perfect(space)
        outputs = per_image(dets) if task in ("T1", "T2") else (["a", "b"], np.ones((2, 2)))
        with pytest.raises(ConfigError, match=r"iou_thresh must be in \(0, 1\], got"):
            evaluate(outputs, gt_rows(gts), space, task, iou_thresh=thresh)

    def test_iou_thresh_of_one_accepted(self):
        space = make_space(4, 2, n_meta=2)
        dets, gts = self.make_perfect(space)
        assert evaluate(per_image(dets), gt_rows(gts), space, "T1", iou_thresh=1.0).mean_ap == 1.0

    def test_tagging_ap_ranks_images(self):
        space = make_space(2, 1)
        u = space.S + 1
        gts = [gt("pos1", u, [0, 0, 10, 10]), gt("pos2", u, [0, 0, 10, 10])]
        tags = (["pos1", "neg", "pos2"], np.array([[0.9], [0.8], [0.7]]))
        # ranking: pos1 TP, neg FP, pos2 TP -> precisions 1, 1/2, 2/3
        report = evaluate(tags, gt_rows(gts), space, "T3")
        assert report.mean_ap == pytest.approx(0.5 * 1.0 + 0.5 * (2 / 3), abs=1e-12)


@st.composite
def tagging_cases(draw):
    """A label space whose metas hold one to three unseen classes each, in
    interleaved id order, with seen classes spread over them and maybe one
    more meta; a dense ``(m, U)`` tag matrix over m images, with tied (and
    NaN) scores; and ground truths, seen ones included, on some of the
    images and on one image without tags."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    unseen_metas = draw(st.permutations([m for m, n in enumerate(sizes) for _ in range(n)]))
    seen = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    unseen = [f"u{i}" for i in range(len(unseen_metas))]
    meta_of = {lab: f"m{draw(st.integers(0, len(sizes)))}" for lab in seen}
    meta_of.update((lab, f"m{m}") for lab, m in zip(unseen, unseen_metas))
    space = build_label_space(seen, unseen, meta_of)
    images = [f"i{k}" for k in range(draw(st.integers(0, 5)))]
    scores = st.sampled_from([0.0, 0.25, 0.5, 1.0, float("nan")])
    tags = np.array([[draw(scores) for _ in space.unseen_ids] for _ in images]).reshape(-1, space.U)
    labels = st.sampled_from(list(space.unseen_ids) + [1])
    gts = [gt(img, draw(labels), [0, 0, 1, 1])
           for img in images + ["untagged"] for _ in range(draw(st.integers(0, 2)))]
    return space, (images, tags), gts


def tagging_ref(tags, gts, space, task):
    """Brute-force T3/T4: per label with a positive image, each image's
    score is the ``max`` of its tags of that label's classes in ascending
    class id; images ranked by it (stable), AP through the envelope loop.
    ``tags`` is ``(image_ids, (m, U) matrix)``.  Returns ``(rows, mean_ap)``."""
    to_label = space.meta_of if task == "T4" else (lambda cid: cid)
    name_of = space.meta_label_of if task == "T4" else space.label_of
    unseen_gts = [g for g in gts if space.is_unseen(g.label)]
    rows = []
    for lid in sorted({to_label(g.label) for g in unseen_gts}):
        positives = {g.image_id for g in unseen_gts if to_label(g.label) == lid}
        scored = []
        for img, row in zip(*tags):
            member_scores = [float(row[c - space.S - 1]) for c in space.unseen_ids
                             if to_label(c) == lid]
            scored.append((img, max(member_scores)))
        ranked = sorted(scored, key=lambda t: -t[1])
        recall, precision, tp = [], [], 0
        for k, (img, _) in enumerate(ranked, start=1):
            tp += img in positives
            recall.append(tp / len(positives))
            precision.append(tp / k)
        ap = _envelope_loop_ref(np.array(recall), np.array(precision)) if ranked else 0.0
        rows.append((lid, name_of(lid), ap, len(positives), len(scored)))
    return rows, float(np.mean([r[2] for r in rows])) if rows else 0.0


def _bits(x):
    return np.float64(x).tobytes()


class TestTaggingTasks:
    @settings(max_examples=300, deadline=None)
    @given(tagging_cases(), st.sampled_from(["T3", "T4"]))
    def test_rows_match_brute_force_bit_for_bit(self, case, task):
        space, tags, gts = case
        report = evaluate(tags, gt_rows(gts), space, task)
        rows, mean_ap = tagging_ref(tags, gts, space, task)
        assert [(r.label, r.name, _bits(r.ap), r.n_gt, r.n_det) for r in report.rows] == [
            (lid, name, _bits(ap), n_gt, n_det) for lid, name, ap, n_gt, n_det in rows]
        assert _bits(report.mean_ap) == _bits(mean_ap)
