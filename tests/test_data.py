import contextlib
import io
import json
import os
import tempfile
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zsdet.data import (
    META_SPREAD,
    NOISE_SIGMA,
    Dataset,
    ImageRecord,
    Proposals,
    SynthConfig,
    generate_synthetic,
    ground_truth_rows,
    load_dataset,
    load_split,
    propose_split,
    save_dataset,
    save_split,
)
from zsdet.cli import main
from zsdet.errors import ConfigError, ParseError, ZsdetError
from zsdet.semantics import load_meta_map, load_word_vectors, save_meta_map

from conftest import (GroundTruth, block_file_bytes, gt_rows, make_space, read_dataset,
                      reference_synthetic, write_dataset)


class TestSynthConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            SynthConfig(u=0)
        with pytest.raises(ConfigError):
            SynthConfig(m=0)
        with pytest.raises(ConfigError):
            SynthConfig(m=100, s=5, u=5)

    @pytest.mark.parametrize("knob", [
        {"seed": -1},
    ], ids=lambda k: "_".join(f"{n}_{v}" for n, v in k.items()))
    def test_non_finite_or_negative_knob_rejected(self, knob):
        with pytest.raises(ConfigError):
            SynthConfig(**knob)

    def test_noise_and_spread_are_module_constants(self):
        assert [f.name for f in fields(SynthConfig)] == [
            "s", "u", "m", "d", "d_f", "images", "test_images", "proposals_per_image", "seed"]
        assert (NOISE_SIGMA, META_SPREAD) == (0.1, 0.5)
        for knob in ("noise_sigma", "meta_spread"):
            with pytest.raises(TypeError):
                SynthConfig(**{knob: 0.1})


def small_cfg(**kw):
    base = dict(s=6, u=2, m=2, d=6, d_f=6, images=12, test_images=6,
                proposals_per_image=8, seed=5)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerator:
    def test_fixed_seed_is_byte_identical(self, tmp_path):
        a = generate_synthetic(small_cfg())
        b = generate_synthetic(small_cfg())
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(a.train, pa)
        save_dataset(b.train, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert a.oracle == b.oracle

    def test_bundle_and_its_records_are_frozen(self):
        bundle = generate_synthetic(small_cfg())
        dataset = bundle.train
        img = dataset.images[0]
        for record, name in [(bundle, "train"), (dataset, "images"), (img, "gt_labels")]:
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, getattr(record, name))
        assert bundle.train is dataset and dataset.images[0] is img

    def test_train_set_has_no_unseen_instances(self):
        bundle = generate_synthetic(small_cfg())
        unseen = set(bundle.oracle["unseen_labels"])
        for img in bundle.train.images:
            for label in img.gt_labels:
                assert label not in unseen

    def test_every_test_image_has_an_unseen_instance(self):
        bundle = generate_synthetic(small_cfg())
        unseen = set(bundle.oracle["unseen_labels"])
        for img in bundle.test.images:
            assert any(label in unseen for label in img.gt_labels)

    def test_features_scatter_by_noise_sigma(self):
        # an object's feature is its class centre plus NOISE_SIGMA noise, a
        # background feature zero plus NOISE_SIGMA * bg_feature_scale noise;
        # 12800 object and 38400 background draws put each estimate well
        # inside 5%
        bundle = generate_synthetic(SynthConfig(d_f=16, images=200, seed=2))
        k = bundle.oracle["objects_per_image"]
        by_class, background = {}, []
        for img in bundle.train.images:
            for feature, label in zip(img.proposals.features, img.gt_labels):
                by_class.setdefault(label, []).append(feature)
            background.append(img.proposals.features[k:])
        residuals = np.concatenate(
            [f - np.mean(f, axis=0) for f in map(np.array, by_class.values())])
        dof = residuals.size - len(by_class) * residuals.shape[1]
        assert np.sqrt(np.sum(residuals**2) / dof) == pytest.approx(NOISE_SIGMA, rel=0.05)
        assert np.sqrt(np.mean(np.concatenate(background) ** 2)) == pytest.approx(
            NOISE_SIGMA * bundle.oracle["bg_feature_scale"], rel=0.05)

    def test_positive_proposals_overlap_their_cells(self):
        bundle = generate_synthetic(small_cfg())
        from test_evaluation import iou

        for img in bundle.train.images:
            for box, gt_box in zip(img.proposals.boxes, img.gt_boxes):
                assert iou(box, gt_box) > 0.3

    def test_stats_consistent_with_gts(self):
        bundle = generate_synthetic(small_cfg())
        stats = bundle.train.class_stats()
        assert sum(stats.values()) == sum(len(img.gt_labels) for img in bundle.train.images)

    def test_meta_map_covers_all_classes(self):
        bundle = generate_synthetic(small_cfg())
        assert set(bundle.meta_map) == set(bundle.table.labels)

    def test_embeddings_are_unit_norm(self):
        bundle = generate_synthetic(small_cfg())
        norms = np.linalg.norm(bundle.table.vectors, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_the_per_draw_reference_bit_for_bit(self, data):
        # pins the draw order: every synth file and perfbench/reference.json
        # depend on it; 1-3 proposals per image reach the one-object floor
        s = data.draw(st.integers(1, 6))
        u = data.draw(st.integers(1, 4))
        cfg = SynthConfig(
            s=s, u=u, m=data.draw(st.integers(1, s + u)), d=data.draw(st.integers(2, 8)),
            d_f=data.draw(st.integers(2, 20)), images=data.draw(st.integers(1, 4)),
            test_images=data.draw(st.integers(1, 3)),
            proposals_per_image=data.draw(st.integers(1, 70)),
            seed=data.draw(st.integers(0, 2**64)))
        got, ref = generate_synthetic(cfg), reference_synthetic(cfg)

        def bits(a):  # compared as bytes, so that -0.0 differs from 0.0
            return a.dtype, a.shape, a.tobytes()

        for split in ("train", "test"):
            got_images, ref_images = getattr(got, split).images, getattr(ref, split).images
            assert len(got_images) == len(ref_images)
            for g, r in zip(got_images, ref_images):
                assert (g.image_id, g.gt_labels) == (r.image_id, r.gt_labels)
                assert bits(g.proposals.features) == bits(r.proposals.features)
                assert bits(g.proposals.boxes) == bits(r.proposals.boxes)
                assert bits(g.gt_boxes) == bits(r.gt_boxes)
        assert got.oracle == ref.oracle
        assert got.meta_map == ref.meta_map and got.table.labels == ref.table.labels
        assert bits(got.table.vectors) == bits(ref.table.vectors)
        assert bits(got.table.background) == bits(ref.table.background)


class TestProposeSplit:
    def test_nine_member_meta_picks_two_from_rarest_four(self):
        members = {f"c{i}": "m1" for i in range(1, 10)}
        counts = {f"c{i}": i * 10 for i in range(1, 10)}  # distinct counts
        pool = {f"c{i}" for i in range(1, 5)}  # rarest floor(9/2) = 4
        for seed in range(10):
            seen, unseen = propose_split(
                counts, members, rng=np.random.default_rng(seed)
            )
            assert len(unseen) == 2
            assert set(unseen) <= pool

    def test_small_meta_picks_one(self):
        members = {"a": "m", "b": "m", "c": "m"}
        counts = {"a": 1, "b": 2, "c": 3}
        seen, unseen = propose_split(counts, members, rng=np.random.default_rng(0))
        assert len(unseen) == 1
        assert unseen[0] == "a"  # pool is the single rarest member

    def test_boundary_ties_are_eligible(self):
        members = {f"c{i}": "m" for i in range(1, 10)}
        counts = {f"c{i}": 10 for i in range(1, 10)}  # all tied
        picks = set()
        for seed in range(30):
            _, unseen = propose_split(counts, members, rng=np.random.default_rng(seed))
            picks.update(unseen)
        assert len(picks) > 4  # the whole meta is eligible under full ties

    def test_reference_scale_yields_23_unseen(self):
        # meta sizes follow the reference assignment; the singleton is excluded
        sizes = [25, 17, 21, 16, 7, 17, 8, 11, 14, 28, 6, 12, 17, 1]
        meta_map = {}
        counts = {}
        k = 0
        for mi, size in enumerate(sizes):
            for _ in range(size):
                label = f"c{k}"
                meta_map[label] = f"m{mi}"
                counts[label] = (k * 37) % 501  # arbitrary long-tail-ish counts
                k += 1
        assert k == 200
        with pytest.warns(UserWarning):
            seen, unseen = propose_split(
                counts, meta_map, rng=np.random.default_rng(0), exclude=()
            )
        assert len(unseen) == 23
        assert len(seen) == 177
        assert sorted(seen + unseen) == sorted(meta_map)

    def test_exclusion_list(self):
        members = {"a": "m1", "b": "m1", "x": "m2", "y": "m2"}
        counts = {k: 1 for k in members}
        _, unseen = propose_split(
            counts, members, rng=np.random.default_rng(0), exclude=["m2"]
        )
        assert all(members[u] != "m2" for u in unseen)

    def test_empty_stats_rejected(self):
        with pytest.raises(ConfigError):
            propose_split({}, {}, rng=np.random.default_rng(0))


def image(image_id, proposals, gt_labels=()):
    """A dataset header's record of one image."""
    return {"image_id": image_id, "proposals": proposals, "gt_labels": list(gt_labels)}


def write_file(path, images, d_f=2, features=(), boxes=(), gt_boxes=()):
    """A dataset file of ``images`` header records over the flat values of
    the three blocks."""
    head = {"d_f": d_f, "images": images}
    Path(path).write_bytes(block_file_bytes(head, [np.array(values, dtype=np.float64)
                                                   for values in (features, boxes, gt_boxes)]))


class TestDatasetIO:
    def test_roundtrip_identity(self, tmp_path):
        bundle = generate_synthetic(small_cfg())
        path = tmp_path / "d.jsonl"
        save_dataset(bundle.train, path)
        loaded = load_dataset(path)
        assert loaded.d_f == bundle.train.d_f
        assert len(loaded.images) == len(bundle.train.images)
        for a, b in zip(loaded.images, bundle.train.images):
            assert a.image_id == b.image_id
            np.testing.assert_array_equal(a.proposals.features, b.proposals.features)
            np.testing.assert_array_equal(a.proposals.boxes, b.proposals.boxes)
            assert a.gt_labels == b.gt_labels
            np.testing.assert_array_equal(a.gt_boxes, b.gt_boxes)

    @pytest.mark.parametrize("labels", ["names", "number"])
    def test_header_labels_key_of_older_files_is_ignored(self, tmp_path, labels):
        # older files hold the class names as a header list between d_f and images
        bundle = generate_synthetic(small_cfg())
        path, old_path = tmp_path / "d.jsonl", tmp_path / "old.jsonl"
        save_dataset(bundle.test, path)
        head, *blocks = read_dataset(path)
        assert list(head) == ["d_f", "images"]
        names = list(bundle.table.labels) if labels == "names" else 5
        write_dataset(old_path, {"d_f": head["d_f"], "labels": names, "images": head["images"]},
                      *blocks)
        new, old = load_dataset(path), load_dataset(old_path)
        assert old.d_f == new.d_f
        assert [i.image_id for i in old.images] == [i.image_id for i in new.images]
        for a, b in zip(old.images, new.images):
            assert _bits(a.proposals.features) == _bits(b.proposals.features)
            assert _bits(a.proposals.boxes) == _bits(b.proposals.boxes)
            assert a.gt_labels == b.gt_labels
            assert _bits(a.gt_boxes) == _bits(b.gt_boxes)

    @pytest.mark.parametrize("field, message", [
        ("d_f", "line 1: missing field 'd_f'"),
        ("images", "line 1: missing field 'images'"),
        ("image_id", "image 0: missing field 'image_id'"),
        ("proposals", "image 0 ('i'): missing field 'proposals'"),
        ("gt_labels", "image 0 ('i'): missing field 'gt_labels'"),
    ], ids=["d_f", "images", "image_id", "proposals", "gt_labels"])
    def test_missing_field_named(self, tmp_path, field, message):
        path = tmp_path / "d.jsonl"
        head = {"d_f": 2, "images": [image("i", 0)]}
        head.pop(field, None)
        head.get("images", [{}])[0].pop(field, None)
        path.write_bytes(block_file_bytes(head, ()))
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("label", [3, None, ["a"]], ids=["number", "null", "list"])
    def test_ground_truth_label_that_is_not_a_string_rejected(self, tmp_path, label):
        path = tmp_path / "d.jsonl"
        write_file(path, [image("i", 0), image("j", 0, ["a", label])],
                   gt_boxes=[0, 0, 1, 1, 0, 0, 1, 1])
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == (f"image 1 ('j'): ground-truth label 1 must be a string, "
                                  f"got {label!r}")

    @pytest.mark.parametrize("image_id", [3, None, [1], {"a": 1}],
                             ids=["number", "null", "list", "object"])
    def test_image_id_that_is_not_a_string_rejected(self, tmp_path, image_id):
        path = tmp_path / "d.jsonl"
        write_file(path, [image("i", 0), image(image_id, 0)])
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == "image 1: field 'image_id' must be a str"

    def test_wrong_feature_length_rejected_with_line(self, tmp_path):
        # features of length 2 under a header that says 3: the blocks come up
        # one value short, which the file length shows
        path = tmp_path / "d.jsonl"
        write_file(path, [image("i", 1)], d_f=3, features=[1, 2], boxes=[0, 0, 1, 1])
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == ("dataset holds 48 bytes after its header, expected 56 for "
                                  "features (1, 3), boxes (1, 4), gt_boxes (0, 4)")

    @pytest.mark.parametrize(
        "proposal, gt_box, message",
        [
            ({"feature": [1, 2], "box": [0, 0, 1]}, [0, 0, 1, 1],
             "dataset holds 168 bytes after its header, expected 176 for features (3, 2), "
             "boxes (3, 4), gt_boxes (1, 4)"),
            ({"feature": [1, 2], "box": [0, 0, 1, 1]}, [0, 0, 1],
             "dataset holds 168 bytes after its header, expected 176 for features (3, 2), "
             "boxes (3, 4), gt_boxes (1, 4)"),
            ({"feature": [1, 2], "box": [0, 0, 1, 1]}, [0, 0, 1, 1, 1],
             "dataset holds 184 bytes after its header, expected 176 for features (3, 2), "
             "boxes (3, 4), gt_boxes (1, 4)"),
            ({"feature": [1, float("nan")], "box": [0, 0, 1, 1]}, [0, 0, 1, 1],
             "proposal feature 1 has a non-finite value"),
            ({"feature": [1, 2], "box": [0, 0, float("inf"), 1]}, [0, 0, 1, 1],
             "proposal box 1 has a non-finite value"),
            ({"feature": [1, 2], "box": [1, 0, 1, 1]}, [0, 0, 1, 1],
             "proposal box 1 must have x1 < x2 and y1 < y2"),
            ({"feature": [1, 2], "box": [0, 1, 1, 0]}, [0, 0, 1, 1],
             "proposal box 1 must have x1 < x2 and y1 < y2"),
            ({"feature": [1, 2], "box": [0, 0, 1, 1]}, [2, 0, 1, 1],
             "ground-truth box 0 must have x1 < x2 and y1 < y2"),
            ({"feature": [1, 2], "box": [0, 0, 1, 1]}, [0, 1, 1, 1],
             "ground-truth box 0 must have x1 < x2 and y1 < y2"),
            ({"feature": [1, 2], "box": [0, 0, 1, 1]}, [0, 0, float("nan"), 1],
             "ground-truth box 0 has a non-finite value"),
        ],
        ids=["box_3_numbers", "gt_box_3_numbers", "gt_box_5_numbers", "nan_feature", "inf_box",
             "box_zero_width", "box_y_flipped", "gt_box_x_flipped", "gt_box_zero_height",
             "gt_box_nan"],
    )
    def test_bad_record_rejected_with_line(self, tmp_path, proposal, gt_box, message):
        # the second image's second proposal, or its ground truth, is bad; the
        # error names that image by index and id (a box of the wrong length
        # can only show in the file length)
        path = tmp_path / "d.jsonl"
        good = {"feature": [0, 1], "box": [0, 0, 1, 1]}
        rows = [good, good, proposal]
        write_file(path, [image("i", 1), image("j", 2, ["a"])],
                   features=[v for r in rows for v in r["feature"]],
                   boxes=[v for r in rows for v in r["box"]], gt_boxes=gt_box)
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        named = "" if message.startswith("dataset") else "image 1 ('j'): "
        assert str(exc.value) == named + message

    def test_ground_truth_box_named_by_its_own_image(self, tmp_path):
        # proposal rows and ground-truth rows belong to different images:
        # the bad third ground truth is image 2's second, after an image
        # with proposals and none, and one with a ground truth and no proposal
        path = tmp_path / "d.jsonl"
        write_file(path, [image("i", 2), image("j", 0, ["a"]), image("k", 0, ["a", "a"])],
                   features=[0, 1, 0, 1], boxes=[0, 0, 1, 1] * 2,
                   gt_boxes=[0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, -1])
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == "image 2 ('k'): ground-truth box 1 must have x1 < x2 and y1 < y2"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ParseError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "header",
        [{"d_f": "16"}, {"d_f": True}, {"d_f": 0}, {"d_f": 2.0}],
        ids=["d_f_string", "d_f_bool", "d_f_zero", "d_f_float"],
    )
    def test_bad_header_fields_rejected_on_line_1(self, tmp_path, header):
        path = tmp_path / "d.jsonl"
        path.write_text(json.dumps(header | {"images": []}) + "\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 1

    def test_d_f_past_numpy_dimensions_rejected(self, tmp_path):
        # with no proposals the blocks are empty, so the file length allows any d_f
        path = tmp_path / "d.jsonl"
        write_file(path, [image("i", 0)], d_f=2**63)
        with pytest.raises(ParseError, match="dataset features block cannot have shape"):
            load_dataset(path)

    @pytest.mark.parametrize("count, message", [
        (-1, "proposal count must be a non-negative integer, got -1"),
        (True, "proposal count must be a non-negative integer, got True"),
        (1.0, "field 'proposals' must be a int"),
        ("1", "field 'proposals' must be a int"),
        (None, "field 'proposals' must be a int"),
    ], ids=["negative", "bool", "float", "string", "null"])
    def test_bad_proposal_count_rejected(self, tmp_path, count, message):
        path = tmp_path / "d.jsonl"
        write_file(path, [image("i", 0), image("j", count)])
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == "image 1 ('j'): " + message

    def test_repeated_image_id_rejected_with_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        write_file(path, [image("i", 0), image("j", 0), image("i", 0)])
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == "image 2 ('i'): repeats the id of image 0"

    @pytest.mark.parametrize("field", ["images", "gt_labels"])
    def test_non_list_records_named_in_the_message(self, tmp_path, field):
        path = tmp_path / "d.jsonl"
        if field == "images":
            path.write_text(json.dumps({"d_f": 2, "images": {"i": 0}}) + "\n")
            message = "line 1: field 'images' must be a list"
        else:
            write_file(path, [image("i", 0) | {"gt_labels": "a"}], gt_boxes=[0, 0, 1, 1])
            message = "image 0 ('i'): field 'gt_labels' must be a list"
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert str(exc.value) == message

    def test_writes_array_blocks(self, tmp_path):
        bundle = generate_synthetic(small_cfg())
        path = tmp_path / "d.jsonl"
        save_dataset(bundle.train, path)
        images = bundle.train.images
        head = {"d_f": 6, "images": [
            image(img.image_id, len(img.proposals), img.gt_labels) for img in images]}
        assert path.read_bytes() == block_file_bytes(
            head, [img.proposals.features for img in images]
            + [img.proposals.boxes for img in images] + [img.gt_boxes for img in images])

    def test_proposals_are_rows_of_one_block(self, tmp_path):
        bundle = generate_synthetic(small_cfg())
        path = tmp_path / "d.jsonl"
        save_dataset(bundle.train, path)
        images = load_dataset(path).images
        for a, b in zip(images, images[1:]):
            for x, y in ((a.proposals.features, b.proposals.features),
                         (a.proposals.boxes, b.proposals.boxes), (a.gt_boxes, b.gt_boxes)):
                assert x.base is y.base is not None
                assert x.ctypes.data + x.nbytes == y.ctypes.data


# Finite floats, drawn so that -0.0, subnormals and extremes all turn up.
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308]),
)


# Any text: non-ASCII, quotes, backslashes, control characters, lone surrogates.
NAMES = st.text(max_size=6) | st.sampled_from(['"', "\\", "é", "日本", "\U0001f600", "\x00\n",
                                                "\ud800"])


@st.composite
def datasets(draw):
    d_f = draw(st.integers(1, 4))
    labels = tuple(draw(st.lists(NAMES, max_size=3, unique=True)))
    images = []
    for image_id in draw(st.lists(NAMES, max_size=3, unique=True)):
        n = draw(st.integers(0, 3))
        features, boxes = np.empty((n, d_f)), np.empty((n, 4))
        for j in range(n):
            features[j] = draw(st.lists(FINITE, min_size=d_f, max_size=d_f))
            boxes[j] = _ordered_box(draw)
        gt_labels = tuple(draw(st.lists(st.sampled_from(labels), max_size=2))) if labels else ()
        gt_boxes = np.array([_ordered_box(draw) for _ in gt_labels]).reshape(-1, 4)
        images.append(ImageRecord(image_id, Proposals(features, boxes), gt_labels, gt_boxes))
    return Dataset(d_f=d_f, images=images)


def _ordered_box(draw):
    xs, ys = (sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
              for _ in range(2))
    return [xs[0], ys[0], xs[1], ys[1]]


def _bits(a):
    return np.asarray(a, dtype="<f8").tobytes()


# Images with and without ground truths, between images with and without
# proposals.
MIXED = Dataset(d_f=2, images=[
    ImageRecord("empty", Proposals(np.empty((0, 2)), np.empty((0, 4))), (), np.empty((0, 4))),
    ImageRecord("edge", Proposals(np.array([[-0.0, 5e-324]]),
                                  np.array([[-0.0, -5e-324, 5e-324, 1e-310]])), (),
                np.empty((0, 4))),
    ImageRecord("gts only", Proposals(np.empty((0, 2)), np.empty((0, 4))), ("b", "a"),
                np.array([[-0.0, 5e-324, 1e-310, 1.0], [-1e308, -2.0, 1e308, -1.5]])),
    ImageRecord("both", Proposals(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0, 1.0, 1.0]])),
                ("a",), np.array([[0.5, 0.5, 3.0, 4.0]])),
])


class TestDatasetRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(datasets())
    @example(MIXED)
    def test_save_then_load_is_bit_equal(self, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.jsonl")
            save_dataset(dataset, path)
            loaded = load_dataset(path)
        assert loaded.d_f == dataset.d_f
        assert [i.image_id for i in loaded.images] == [i.image_id for i in dataset.images]
        for a, b in zip(loaded.images, dataset.images):
            assert len(a.proposals) == len(b.proposals)
            assert a.proposals.features.shape == (len(b.proposals), dataset.d_f)
            assert _bits(a.proposals.features) == _bits(b.proposals.features)
            assert _bits(a.proposals.boxes) == _bits(b.proposals.boxes)
            assert a.gt_labels == b.gt_labels
            assert _bits(a.gt_boxes) == _bits(b.gt_boxes)

    @settings(max_examples=25, deadline=None)
    @given(datasets())
    @example(MIXED)
    def test_every_strict_prefix_and_one_more_byte_raise(self, dataset):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.jsonl")
            save_dataset(dataset, path)
            with open(path, "rb") as f:
                whole = f.read()
            for damaged in [whole[:n] for n in range(len(whole))] + [whole + b"\0"]:
                with open(path, "wb") as f:
                    f.write(damaged)
                with pytest.raises(ParseError):
                    load_dataset(path)


def _synth_file():
    """A small synth dataset file."""
    dataset = generate_synthetic(small_cfg(images=3, test_images=1, proposals_per_image=4)).train
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "d.jsonl")
        save_dataset(dataset, path)
        with open(path, "rb") as f:
            return f.read()


SYNTH_FILE = _synth_file()


@st.composite
def mutated_files(draw, sources):
    """One of the ``sources`` file contents after a few truncations, bit
    flips and splices."""
    data = bytearray(draw(st.sampled_from(sources)))
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["truncate", "flip", "splice"]))
        if op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif op == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif op == "splice":
            start, end = sorted(draw(st.integers(0, len(data))) for _ in range(2))
            at = draw(st.integers(0, len(data)))
            data[at:at] = data[start:end]
    return bytes(data)


class TestMutatedDatasetFiles:
    @settings(max_examples=300, deadline=None)
    @given(mutated_files([SYNTH_FILE]))
    def test_loads_or_raises_parse_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.jsonl")
            with open(path, "wb") as f:
                f.write(data)
            try:
                load_dataset(path)
            except ParseError:
                pass


TEXT_READERS = {
    "embeddings.txt": load_word_vectors,
    "meta_map.csv": load_meta_map,
    "oracle.json": load_split,
}


def _synth_text_files():
    """Synth's word vectors, meta map and oracle, as bytes by file name."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", tmp, "--s", "6", "--u", "2", "--m", "2", "--d", "6",
                     "--d-f", "6", "--images", "4", "--test-images", "1",
                     "--proposals-per-image", "4"]) == 0
        return {name: Path(tmp, name).read_bytes() for name in TEXT_READERS}


SYNTH_TEXT_FILES = _synth_text_files()


class TestMutatedTextInputs:
    @pytest.mark.parametrize("name", list(TEXT_READERS))
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_reads_or_raises_zsdet_error(self, name, data):
        content = data.draw(mutated_files([SYNTH_TEXT_FILES[name]]))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "wb") as f:
                f.write(content)
            try:
                TEXT_READERS[name](path)
            except ZsdetError:
                pass


class TestSplitIO:
    @pytest.mark.parametrize("seen, unseen", [
        (["a", "b"], ["x"]),
        (["class,001", "b"], ["x, y"]),  # the meta map and word vectors allow commas
    ])
    def test_roundtrip(self, tmp_path, seen, unseen):
        path = tmp_path / "split.json"
        save_split(seen, unseen, path)
        assert load_split(path) == (seen, unseen)

    def test_loads_oracle_json(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps({"seen_labels": ["a"], "unseen_labels": ["x"]}))
        assert load_split(path) == (["a"], ["x"])

    def test_truncated_json_record_is_parse_error(self, tmp_path):
        path = tmp_path / "oracle.json"
        path.write_text('{"seen_labels": [')
        with pytest.raises(ParseError):
            load_split(path)

    @pytest.mark.parametrize("record", [
        {"seen_labels": 5, "unseen_labels": []},
        {"seen_labels": ["a"], "unseen_labels": "x"},
        {"seen_labels": ["a", 2], "unseen_labels": ["x"]},
        {"seen_labels": ["a"], "unseen_labels": [None]},
        {"seen_labels": {"a": 1}, "unseen_labels": ["x"]},
        {"seen_labels": ["a"]},
    ])
    def test_json_record_needs_lists_of_strings(self, tmp_path, record):
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ParseError, match="as a list of strings"):
            load_split(path)

    def test_text_split_rejected(self, tmp_path):
        path = tmp_path / "split.txt"
        path.write_text("seen: a,b\nunseen: x\n")
        with pytest.raises(ParseError, match="bad JSON split record"):
            load_split(path)

    @pytest.mark.parametrize("value", [["a", "x"], "seen", 5, None])
    def test_json_value_that_is_not_an_object_rejected(self, tmp_path, value):
        path = tmp_path / "split.json"
        path.write_text(json.dumps(value))
        with pytest.raises(ParseError, match="a split file holds one JSON object"):
            load_split(path)


class TestMetaMapIO:
    def test_names_with_commas_and_quotes_read_back(self, tmp_path):
        meta_map = {"class,001": "meta01", 'say "hi"': "meta,02", "class003": 'm"'}
        path = tmp_path / "meta_map.csv"
        save_meta_map(meta_map, path)
        assert load_meta_map(path) == meta_map

    def test_plain_names_are_written_unquoted(self, tmp_path):
        path = tmp_path / "meta_map.csv"
        save_meta_map({"class001": "meta01", "class002": "meta02"}, path)
        assert path.read_bytes() == b"class001,meta01\nclass002,meta02\n"


def image_with(image_id, labels, boxes):
    boxes = np.array(boxes, dtype=np.float64).reshape(-1, 4)
    return ImageRecord(image_id, Proposals(np.ones((1, 2)), np.array([[0, 0, 1, 1.0]])),
                       tuple(labels), boxes)


class TestGroundTruthRows:
    def test_maps_labels_to_ids(self):
        space = make_space(2, 1)
        ds = Dataset(d_f=2, images=[image_with("i", ("c3",), [[0, 0, 1, 1.0]])])
        image_ids, class_ids, boxes = ground_truth_rows(ds, space)
        assert image_ids.tolist() == ["i"]
        assert class_ids.tolist() == [3]
        assert boxes.tolist() == [[0, 0, 1, 1.0]]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(["c1", "c2", "c3", "c4"]),
                                       st.integers(0, 20), st.integers(1, 9)),
                             max_size=4), max_size=5))
    def test_equals_a_per_record_flatten(self, images):
        space = make_space(3, 1)
        ds = Dataset(d_f=2, images=[
            image_with(f"i{k}", [label for label, _, _ in gts],
                       [[x, x, x + w, x + w] for _, x, w in gts])
            for k, gts in enumerate(images)])
        ref = gt_rows([GroundTruth(img.image_id, space.labels.index(label) + 1, box)
                       for img in ds.images for label, box in zip(img.gt_labels, img.gt_boxes)])
        got = ground_truth_rows(ds, space)
        assert [a.dtype for a in got] == [a.dtype for a in ref]
        for a, b in zip(got, ref):
            assert a.shape == b.shape and a.tolist() == b.tolist()

    def test_unknown_label_names_it_and_its_image(self):
        space = make_space(2, 1)
        ds = Dataset(d_f=2, images=[
            image_with("ok", ("c1",), [[0, 0, 1, 1.0]]),
            image_with("bad", ("c2", "nope"), [[0, 0, 1, 1.0], [0, 0, 2, 2.0]])])
        with pytest.raises(ConfigError, match="label 'nope' in image bad not in label space"):
            ground_truth_rows(ds, space)
