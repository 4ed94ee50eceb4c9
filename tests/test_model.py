import contextlib
import io
import math
import os
import re
import tempfile
import warnings
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from zsdet.cli import main
from zsdet.errors import ConfigError, ParseError, ZsdetError
from zsdet.model import (
    BOX_SCALE_CLAMP,
    MODES,
    decode_boxes,
    encode_boxes,
    feature_norms,
    forward_boxes,
    forward_scores,
    init_model,
    load_checkpoint,
    normalized_scores,
    save_checkpoint,
)
from zsdet.semantics import load_word_vectors

from conftest import (
    axis_setup,
    column,
    base64_array,
    block_file_bytes,
    legacy_checkpoint_bytes,
    make_model,
    make_space,
    make_table,
    permuted,
    read_checkpoint,
    run,
    train_args,
    write_checkpoint,
)
from test_data import mutated_files


class TestForwardScores:
    def test_identity_projection_recovers_cosine(self):
        model, table, _ = axis_setup()
        for j, label in enumerate(table.labels):
            o = forward_scores(model, column(table, label))
            assert o[j] == pytest.approx(1.0, abs=1e-12)

    def test_zero_feature_gives_zero_scores(self):
        model, _, _ = axis_setup()
        np.testing.assert_array_equal(forward_scores(model, np.zeros(4)), np.zeros(4))

    def test_matches_dense_matmul_oracle(self, rng):
        table = make_table(rng.standard_normal((3, 2)))
        space = make_space(1, 1)
        model = replace(make_model(table, space), w1=rng.standard_normal((3, 3)))
        f = rng.standard_normal(3)
        # independent oracle: explicit (W1 W2)^T f with scalar loops
        w2 = table.w2(space.labels)
        expected = np.zeros(3)
        for c in range(3):
            proj = np.zeros(3)
            for a in range(3):
                for b in range(3):
                    proj[a] += model.w1[a, b] * w2[b, c]
            expected[c] = sum(proj[a] * f[a] for a in range(3))
        np.testing.assert_allclose(forward_scores(model, f), expected, atol=1e-12)

    def test_linearity_property(self, rng):
        for _ in range(10):
            table = make_table(rng.standard_normal((5, 4)))
            space = make_space(3, 1)
            model = make_model(table, space, d_f=6, seed=int(rng.integers(1000)))
            f1, f2 = rng.standard_normal((2, 6))
            a, b = rng.standard_normal(2)
            lhs = forward_scores(model, a * f1 + b * f2)
            rhs = a * forward_scores(model, f1) + b * forward_scores(model, f2)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_shape_error(self):
        model, _, _ = axis_setup()
        with pytest.raises(ConfigError, match="feature length 5 != d_f 4"):
            forward_scores(model, np.zeros(5))


class TestNormalizedScores:
    def test_direct_division(self):
        model, table, _ = axis_setup()
        f = 2.0 * column(table, "c1")
        o = forward_scores(model, f)
        o_hat = normalized_scores(model, f)
        assert o_hat[0] == pytest.approx(1.0, abs=1e-12)  # o=2, norms 1*2
        assert o[0] == pytest.approx(2.0, abs=1e-12)

    def test_cosine_bounds_with_identity(self, rng):
        model, _, space = axis_setup()
        for _ in range(20):
            f = rng.standard_normal(4)
            o_hat = normalized_scores(model, f)
            assert np.all(o_hat[: space.C] <= 1.0 + 1e-12)
            assert np.all(o_hat[: space.C] >= -1.0 - 1e-12)

    def test_identity_w1_gives_exact_cosine(self, rng):
        model, table, space = axis_setup()
        for _ in range(10):
            f = rng.standard_normal(4)
            o_hat = normalized_scores(model, f)
            fn = np.linalg.norm(f)
            for j in range(space.C):
                cos = float(table.vectors[:, j] @ f) / fn
                assert o_hat[j] == pytest.approx(cos, abs=1e-12)

    def test_elementwise_oracle(self, rng):
        table = make_table(rng.standard_normal((4, 3)))
        space = make_space(2, 1)
        model = make_model(table, space, d_f=5, seed=3)
        f = rng.standard_normal(5)
        o = forward_scores(model, f)
        o_hat = normalized_scores(model, f)
        w2 = table.w2(space.labels)
        fn = np.sqrt(sum(float(x) ** 2 for x in f))
        for c in range(4):
            vn = np.sqrt(sum(float(x) ** 2 for x in w2[:, c]))
            assert o_hat[c] == pytest.approx(o[c] / (vn * fn), abs=1e-12)

    def test_zero_feature_raises(self):
        model, _, _ = axis_setup()
        with pytest.raises(ConfigError, match="cannot normalize scores for a zero feature"):
            normalized_scores(model, np.zeros(4))

    def test_rows_match_single_row_calls(self, rng):
        table = make_table(rng.standard_normal((4, 3)))
        model = make_model(table, make_space(2, 1), d_f=5, seed=3)
        features = rng.standard_normal((6, 5))
        batch = normalized_scores(model, features)
        assert batch.shape == (6, 4)
        for f, row in zip(features, batch):
            single = normalized_scores(model, f)
            np.testing.assert_allclose(row, single, rtol=0, atol=1e-15)

    def test_any_zero_row_raises(self, rng):
        model, _, _ = axis_setup()
        features = rng.standard_normal((3, 4))
        features[1] = 0.0
        with pytest.raises(ConfigError, match="cannot normalize scores for a zero feature"):
            normalized_scores(model, features)

    # A d = 1 table whose unit columns average to zero has no background
    # column to normalize by, so finalize_embeddings rejects it.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 4), st.integers(0, 3),
           st.integers(1, 4), st.floats(1e-200, 1e200), st.integers(0, 2**32 - 1))
    @example(5, 3, 2, 1, 2, 1e155, 0)  # the squares overflow
    @example(5, 3, 2, 1, 2, 1e-160, 0)  # the squares underflow to subnormals
    @example(5, 3, 2, 1, 2, 1e-170, 0)  # the squares underflow to 0
    def test_scaling_a_feature_leaves_its_row_unchanged(
        self, d_f, d, n_seen, n_unseen, n, c, seed
    ):
        # Scores are linear in f and divided by ||f||, so f -> c f (c > 0)
        # changes the row by rounding only; |o_hat| is at most ||W1||.
        rng = np.random.default_rng(seed)
        space = make_space(n_seen, n_unseen)
        try:
            table = make_table(rng.standard_normal((d, space.C)))
        except ConfigError:
            assume(False)
        model = replace(make_model(table, space, d_f=d_f), w1=rng.standard_normal((d_f, d)))
        features = rng.standard_normal((n, d_f))
        scaled = features.copy()
        scaled[0] *= c
        got = normalized_scores(model, scaled)[0]
        want = normalized_scores(model, features)[0]
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * (d_f + d) * np.linalg.norm(model.w1))


class TestFeatureNorms:
    def test_ordinary_rows_keep_linalg_norm_bits(self, rng):
        features = rng.standard_normal((20, 7)) * 10.0 ** rng.integers(-140, 140, (20, 1))
        np.testing.assert_array_equal(feature_norms(features),
                                      np.linalg.norm(features, axis=-1, keepdims=True))

    @pytest.mark.parametrize("c", [1e155, 1e300, 1e-160, 1e-170, 1e-300])
    def test_rows_that_over_or_underflow_are_rescaled(self, c):
        # (3, -4, 12) has norm 13 exactly
        got = feature_norms(np.array([[3.0, -4.0, 12.0], [0.0, 0.0, 0.0]]) * c)
        assert got[0, 0] == pytest.approx(13.0 * c, rel=1e-15)
        assert got[1, 0] == 0.0

    def test_subnormal_row(self):
        assert feature_norms(np.array([[5e-324, 0.0]]))[0, 0] == 5e-324

    def test_single_row_keeps_its_shape(self):
        assert feature_norms(np.array([3e200, 4e200])).shape == (1,)
        assert feature_norms(np.array([3e200, 4e200]))[0] == pytest.approx(5e200, rel=1e-15)


class TestForwardBoxes:
    def test_zero_head_decodes_to_proposal(self, rng):
        model, _, _ = axis_setup()
        f = rng.standard_normal(4)
        offsets = forward_boxes(model, f)
        np.testing.assert_array_equal(offsets, np.zeros(8))
        box = np.array([10.0, 20.0, 30.0, 60.0])
        np.testing.assert_allclose(decode_boxes(box, offsets[:4]), box, atol=1e-12)

    def test_output_length_4s(self):
        model, _, space = axis_setup(n_seen=2)
        assert forward_boxes(model, np.zeros(4)).shape == (4 * space.S,)

    def test_per_class_slice_matches_row_oracle(self, rng):
        model, _, space = axis_setup()
        model = replace(model, box_w=rng.standard_normal(model.box_w.shape),
                        box_b=rng.standard_normal(model.box_b.shape))
        f = rng.standard_normal(4)
        out = forward_boxes(model, f)
        for cid in range(1, space.S + 1):
            for k in range(4):
                col = 4 * (cid - 1) + k
                expected = sum(f[a] * model.box_w[a, col] for a in range(4)) + model.box_b[col]
                assert out[col] == pytest.approx(expected, abs=1e-12)


class TestInitModel:
    def test_same_seed_bit_identical(self):
        table = make_table(np.eye(4)[:, :3])
        space = make_space(2, 1)
        a = init_model(table.w2(space.labels), space, 4, seed=11)
        b = init_model(table.w2(space.labels), space, 4, seed=11)
        assert a.w1.tobytes() == b.w1.tobytes()

    def test_glorot_bound(self):
        table = make_table(np.eye(4))
        space = make_space(3, 1)
        model = init_model(table.w2(space.labels), space, 4, seed=0)
        bound = np.sqrt(6.0 / (4 + 4))
        assert model.w1.shape == (4, 4)
        assert np.all(np.abs(model.w1) <= bound)

    def test_different_seeds_differ(self):
        table = make_table(np.eye(4))
        space = make_space(3, 1)
        a = init_model(table.w2(space.labels), space, 4, seed=1)
        b = init_model(table.w2(space.labels), space, 4, seed=2)
        assert np.any(a.w1 != b.w1)

    def test_box_head_zero_initialized(self):
        table = make_table(np.eye(4))
        space = make_space(3, 1)
        model = init_model(table.w2(space.labels), space, 4, seed=0)
        assert not model.box_w.any()
        assert not model.box_b.any()

    def test_shuffled_table_gives_the_ordered_w2(self, rng):
        table = make_table(rng.standard_normal((3, 4)))
        space = make_space(3, 1)
        ordered = init_model(table.w2(space.labels), space, 5)
        shuffled = init_model(permuted(table, [2, 0, 3, 1]).w2(space.labels), space, 5)
        assert shuffled.labels == ordered.labels == space.labels
        assert shuffled.w2.tobytes() == ordered.w2.tobytes()
        assert shuffled.col_norms.tobytes() == ordered.col_norms.tobytes()

    @pytest.mark.parametrize("mode", ["x", "", "FULL", None])
    def test_unknown_mode_rejected(self, mode):
        # a model in no mode would write a checkpoint that load_checkpoint refuses
        table = make_table(np.eye(4)[:, :3])
        with pytest.raises(ConfigError, match="mode must be one of"):
            init_model(table.w2(table.labels), make_space(2, 1), 4, mode=mode)

    @pytest.mark.parametrize("classes", [2, 4])
    def test_w2_of_another_width_rejected(self, classes):
        table = make_table(np.eye(4)[:, :classes])
        with pytest.raises(ConfigError, match=f"w2 has {classes + 1} columns, expected 4"):
            init_model(table.w2(table.labels), make_space(2, 1), 4)

    def test_w2_is_read_only(self):
        model, _, _ = axis_setup()
        with pytest.raises(ValueError):
            model.w2[0, 0] = 5.0
        with pytest.raises(ValueError):
            model.col_norms[0] = 5.0
        for f in fields(model):
            with pytest.raises(FrozenInstanceError):
                setattr(model, f.name, getattr(model, f.name))

    def test_replace_derives_the_norms_of_the_new_w2(self):
        model, _, _ = axis_setup()
        w2 = model.w2 * np.array([2.0, 3.0, 0.5, 1.0])
        varied = replace(model, w2=w2)
        np.testing.assert_array_equal(varied.col_norms, np.linalg.norm(w2, axis=0))
        np.testing.assert_array_equal(model.col_norms, np.linalg.norm(model.w2, axis=0))
        assert varied.w1 is model.w1
        with pytest.raises(ValueError):
            varied.col_norms[0] = 1.0


class TestBoxParameterization:
    def test_encode_decode_roundtrip(self, rng):
        for _ in range(50):
            x1, y1 = rng.uniform(0, 100, 2)
            w, h = rng.uniform(5, 60, 2)
            anchor = np.array([x1, y1, x1 + w, y1 + h])
            gx1, gy1 = rng.uniform(0, 100, 2)
            gw, gh = rng.uniform(5, 60, 2)
            gt = np.array([gx1, gy1, gx1 + gw, gy1 + gh])
            np.testing.assert_allclose(
                decode_boxes(anchor, encode_boxes(gt, anchor)), gt, atol=1e-9
            )

    def test_known_values(self):
        anchor = np.array([0.0, 0.0, 10.0, 10.0])
        gt = np.array([5.0, 5.0, 15.0, 15.0])  # same size, shifted by half
        t = encode_boxes(gt, anchor)
        np.testing.assert_allclose(t, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_huge_scale_offsets_are_clamped_to_finite_boxes(self):
        anchor = np.array([0.0, 0.0, 10.0, 10.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            box = decode_boxes(anchor, np.array([0.0, 0.0, 800.0, 800.0]))
        assert np.isfinite(box).all()
        side = 10.0 * 1000.0 / 16
        np.testing.assert_allclose(box, [5 - side / 2, 5 - side / 2, 5 + side / 2, 5 + side / 2])
        assert BOX_SCALE_CLAMP == math.log(1000.0 / 16)

    @settings(max_examples=200, deadline=None)
    @given(
        anchor=st.tuples(st.floats(-500, 500), st.floats(-500, 500),
                         st.floats(1, 300), st.floats(1, 300)),
        deltas=st.tuples(st.floats(-3, 3), st.floats(-3, 3),
                         st.floats(-4, BOX_SCALE_CLAMP), st.floats(-4, BOX_SCALE_CLAMP)),
    )
    def test_decode_encode_roundtrip_inside_clamp(self, anchor, deltas):
        x, y, w, h = anchor
        anchor = np.array([x, y, x + w, y + h])
        deltas = np.array(deltas)
        np.testing.assert_allclose(
            encode_boxes(decode_boxes(anchor, deltas), anchor), deltas, rtol=1e-9, atol=1e-9
        )

    def test_ill_ordered_box_raises(self):
        with pytest.raises(ConfigError, match="boxes must be well-ordered"):
            encode_boxes(np.array([5.0, 0.0, 1.0, 10.0]), np.array([0, 0, 10, 10.0]))


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        table = make_table(rng.standard_normal((4, 3)))
        space = make_space(2, 1)
        model = make_model(table, space, d_f=5, seed=9)
        model = replace(model, box_w=rng.standard_normal(model.box_w.shape),
                        box_b=rng.standard_normal(model.box_b.shape))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, table)
        assert loaded.w1.tobytes() == model.w1.tobytes()
        assert loaded.box_w.tobytes() == model.box_w.tobytes()
        assert loaded.box_b.tobytes() == model.box_b.tobytes()
        assert loaded.labels == model.labels
        assert loaded.mode == model.mode

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_save_load_identity(self, tmp_path_factory, data):
        d_f = data.draw(st.integers(1, 6))
        d = data.draw(st.integers(1, 5))
        n_seen = data.draw(st.integers(0, 4))
        n_unseen = data.draw(st.integers(0 if n_seen else 1, 3))
        values = st.one_of(
            st.floats(width=64),
            st.sampled_from([-0.0, 5e-324, -2.2e-308, 1e300, -1e300]),
        )
        table = make_table(np.random.default_rng(d).standard_normal((d, n_seen + n_unseen)))
        model = replace(
            make_model(table, make_space(n_seen, n_unseen), d_f=d_f),
            w1=data.draw(arrays(np.float64, (d_f, d), elements=values)),
            box_w=data.draw(arrays(np.float64, (d_f, 4 * n_seen), elements=values)),
            box_b=data.draw(arrays(np.float64, (4 * n_seen,), elements=values)),
        )
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        save_checkpoint(model, path)
        saved = {"W1": model.w1, "box_weights": model.box_w, "box_bias": model.box_b}
        non_finite = [key for key, a in saved.items() if not np.isfinite(a).all()]
        if non_finite:
            with pytest.raises(ParseError, match=f"checkpoint {non_finite[0]} has a non-finite"):
                load_checkpoint(path, table)
            return
        loaded = load_checkpoint(path, table)
        for a, b in ((loaded.w1, model.w1), (loaded.box_w, model.box_w),
                     (loaded.box_b, model.box_b)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.writeable
        assert (loaded.labels, loaded.n_seen, loaded.n_unseen) == (
            model.labels, model.n_seen, model.n_unseen)

    @staticmethod
    def reference_bytes(model):
        """The checkpoint as a ``json.dumps`` header line and the raw blocks."""
        head = {"d_f": model.d_f, "d": model.d, "S": model.n_seen, "U": model.n_unseen,
                "labels": list(model.labels), "mode": model.mode}
        return block_file_bytes(head, (model.w1, model.box_w, model.box_b))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_bytes_are_a_header_line_and_raw_blocks(self, tmp_path_factory, data):
        # any label text: non-ASCII, quotes, backslashes, control characters
        # (an ASCII header escapes them all, so none ends the header line)
        names = st.text(max_size=8) | st.sampled_from(
            ['"', "\\", 'a\\"b', "é", "日本", "\U0001f600", "\x00\n\t", "\ud800"])
        labels = data.draw(st.lists(names, min_size=1, max_size=5, unique=True))
        n_seen = data.draw(st.integers(0, len(labels)))
        d, d_f = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
        table = make_table(np.random.default_rng(d).standard_normal((d, len(labels))), labels)
        model = make_model(table, make_space(n_seen, len(labels) - n_seen, labels=labels),
                           d_f=d_f, mode=data.draw(st.sampled_from(MODES)))
        model = replace(
            model,
            box_w=data.draw(arrays(np.float64, model.box_w.shape, elements=st.floats(-9, 9))),
            box_b=data.draw(arrays(np.float64, model.box_b.shape, elements=st.floats(-9, 9))),
        )
        path = tmp_path_factory.mktemp("ckpt") / "ckpt.json"
        save_checkpoint(model, path)
        assert path.read_bytes() == self.reference_bytes(model)
        loaded = load_checkpoint(path, table)
        assert (loaded.labels, loaded.n_seen, loaded.mode) == (
            model.labels, model.n_seen, model.mode)
        for a, b in ((loaded.w1, model.w1), (loaded.box_w, model.box_w),
                     (loaded.box_b, model.box_b)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_untrained_cli_checkpoint_matches_the_reference_bytes(self, tmp_path):
        # a 0-epoch `zsdet train` writes the initial model
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(tmp_path), "--s", "3", "--u", "1", "--m", "2",
                         "--d", "4", "--d-f", "5", "--images", "2", "--test-images", "1"]) == 0
            assert run(*train_args(tmp_path, tmp_path / "ckpt.json", epochs=0)) == 0
        path = tmp_path / "ckpt.json"
        model = load_checkpoint(path, load_word_vectors(tmp_path / "embeddings.txt"))
        assert not model.box_w.any()
        assert path.read_bytes() == self.reference_bytes(model)

    def test_load_reorders_table_to_checkpoint_labels(self, tmp_path, rng):
        table = make_table(rng.standard_normal((3, 4)))
        model = make_model(table, make_space(3, 1))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, permuted(table, [2, 0, 3, 1]))
        assert loaded.labels == model.labels
        assert loaded.w2.tobytes() == model.w2.tobytes()

    def test_checkpoint_fields(self, tmp_path):
        model, table, space = axis_setup()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        head, blocks = read_checkpoint(path)
        assert set(head) == {"d_f", "d", "S", "U", "labels", "mode"}
        assert head["S"] == space.S
        assert head["U"] == space.U
        assert list(blocks) == ["W1", "box_weights", "box_bias"]
        np.testing.assert_array_equal(blocks["W1"], model.w1)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda h, a: h.pop("mode"),
            lambda h, a: a.update(W1=a["W1"][:, :-1]),
            lambda h, a: h.update(labels="c1"),
            lambda h, a: h.update(no_such_field=1),
            lambda h, a: h.update(W1=np.eye(4).ravel().tolist()),
            lambda h, a: h.update(W1="not base64!"),
            lambda h, a: a.update(W1=np.zeros(15)),
            lambda h, a: a.update(W1=np.insert(np.zeros(15), 7, np.nan)),
            lambda h, a: a.update(box_weights=np.insert(np.ones(31), 0, np.inf)),
            lambda h, a: a.update(box_bias=np.insert(np.ones(7), 7, -np.inf)),
            lambda h, a: a.pop("box_bias"),
            lambda h, a: h.update(d_f=5),
            lambda h, a: h.update(S=1, U=2),
            lambda h, a: h.update(mode="x"),
        ],
        ids=["missing_key", "w1_shape", "labels_type", "config_field",
             "w1_list", "w1_not_base64", "w1_byte_count",
             "w1_nan", "box_weights_inf", "box_bias_minus_inf",
             "missing_block", "header_d_f", "header_s", "bad_mode"],
    )
    def test_malformed_payload_raises_parse_error(self, tmp_path, damage):
        model, table, _ = axis_setup()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        head, blocks = read_checkpoint(path)
        damage(head, blocks)
        write_checkpoint(path, head, blocks)
        with pytest.raises(ParseError):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("key, value", [("d_f", True), ("d", True), ("S", True),
                                            ("U", True), ("U", 2.0)])
    def test_count_that_is_not_a_json_integer_raises_parse_error(self, tmp_path, rng, key,
                                                                 value):
        # ``true`` is an int to isinstance and 2.0 == 2, so each would pass for
        # the count it equals; the checkpoint holds exactly that count here
        n_unseen = int(value) if key == "U" else 2
        table = make_table(rng.standard_normal((1 if key == "d" else 4, 1 + n_unseen)))
        model = make_model(table, make_space(1, n_unseen), d_f=1 if key == "d_f" else 4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        head, blocks = read_checkpoint(path)
        head[key] = value
        write_checkpoint(path, head, blocks)
        with pytest.raises(ParseError):
            load_checkpoint(path, table)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[: raw.index(b"\n")],
            lambda raw: b"",
            lambda raw: b"[1, 2]" + raw[raw.index(b"\n"):],
            lambda raw: b'"d_f"' + raw[raw.index(b"\n"):],
            lambda raw: b"{not json" + raw[raw.index(b"\n"):],
            lambda raw: b"\xff" + raw,
            lambda raw: raw[:-8],
            lambda raw: raw[:-1],
            lambda raw: raw + b"\0",
            lambda raw: raw + raw[raw.index(b"\n") + 1:],
        ],
        ids=["no_newline", "empty", "header_list", "header_string", "header_not_json",
             "header_not_utf8", "truncated_block", "truncated_byte", "trailing_byte",
             "blocks_twice"],
    )
    def test_malformed_bytes_raise_parse_error(self, tmp_path, damage):
        model, table, _ = axis_setup()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ParseError):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("key", ["W1", "box_weights", "box_bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_named(self, tmp_path, rng, key, value):
        model, table, _ = axis_setup(n_seen=3, n_unseen=2, d=6)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        head, blocks = read_checkpoint(path)
        a = blocks[key]
        at = tuple(int(rng.integers(n)) for n in a.shape)
        a[at] = value
        write_checkpoint(path, head, blocks)
        with pytest.raises(ParseError, match=re.escape(f"checkpoint {key} has a non-finite "
                                                       f"value at {at}")):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("encode", [lambda a: a.ravel().tolist(), base64_array],
                             ids=["list", "base64"])
    def test_older_formats_raise_with_retrain_hint(self, tmp_path, encode):
        model, table, _ = axis_setup()
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        path.write_bytes(legacy_checkpoint_bytes(*read_checkpoint(path), encode))
        with pytest.raises(ParseError, match=re.escape("re-run `zsdet train`")):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("pad", range(8))
    def test_loaded_arrays_are_aligned_and_writable(self, tmp_path, pad):
        # label lengths that start the blocks at every offset modulo 8
        table = make_table(np.eye(4)[:, :3], ("c1", "c2", "c" * (pad + 1)))
        model = make_model(table, make_space(2, 1, labels=list(table.labels)), d_f=5)
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path, table)
        for a, b in ((loaded.w1, model.w1), (loaded.box_w, model.box_w),
                     (loaded.box_b, model.box_b)):
            assert a.dtype == np.float64 and a.flags.aligned and a.flags.writeable
            assert a.flags.c_contiguous and a.tobytes() == b.tobytes()


def _trained_checkpoint():
    """A small trained checkpoint's bytes and the word vectors it was trained on."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        data = Path(tmp)
        assert main(["synth", "--out", tmp, "--s", "4", "--u", "2", "--m", "2", "--d", "4",
                     "--d-f", "4", "--images", "4", "--test-images", "1",
                     "--proposals-per-image", "4"]) == 0
        assert run(*train_args(data, data / "ckpt.json", epochs=1, min_similar=0)) == 0
        return (data / "ckpt.json").read_bytes(), load_word_vectors(data / "embeddings.txt")


CHECKPOINT, CHECKPOINT_TABLE = _trained_checkpoint()


class TestMutatedCheckpoint:
    @settings(max_examples=300, deadline=None)
    @given(mutated_files([CHECKPOINT]))
    def test_loads_or_raises_zsdet_error(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "ckpt.json")
            with open(path, "wb") as f:
                f.write(data)
            try:
                load_checkpoint(path, CHECKPOINT_TABLE)
            except ZsdetError:
                pass
