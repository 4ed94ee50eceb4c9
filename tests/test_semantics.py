import math

import numpy as np
import pytest

from zsdet.errors import ConfigError, ParseError
from zsdet.semantics import (
    build_label_space,
    finalize_embeddings,
    load_meta_map,
    load_word_vectors,
    meta_cosine_stats,
)

from conftest import column, make_space, permuted


class TestLoadWordVectors:
    def test_small_file(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("dog 1 0 0\ncat 0 2 0\n")
        table = load_word_vectors(path)
        assert len(table.labels) == 2
        assert table.d == 3
        assert table.labels == ("dog", "cat")
        np.testing.assert_array_equal(column(table, "cat"), [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(table.background, [0.5, 0.5, 0.0])

    def test_ragged_dimensions_reports_line(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("dog 1 0 0\ncat 1 0\n")
        with pytest.raises(ParseError, match="record 'cat' has 2 components, expected 3") as exc:
            load_word_vectors(path)
        assert exc.value.line == 2

    def test_duplicate_label(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("dog 1 0\ndog 0 1\n")
        with pytest.raises(ParseError, match="line 2: duplicate label 'dog'"):
            load_word_vectors(path)

    def test_non_numeric_token(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("dog 1 zero\n")
        with pytest.raises(ParseError) as exc:
            load_word_vectors(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_component_reports_line(self, tmp_path, token):
        path = tmp_path / "v.txt"
        path.write_text(f"dog 1 0 0\ncat 0 {token} 0\nemu 0 0 1\n")
        with pytest.raises(ParseError, match="record 'cat' has a non-finite component") as exc:
            load_word_vectors(path)
        assert exc.value.line == 2

    def test_glove_scale_file(self, tmp_path, rng):
        # 200 classes at d=300, the scale of the reference embeddings
        path = tmp_path / "glove.txt"
        with open(path, "w") as f:
            for i in range(200):
                coords = " ".join(f"{v:.6f}" for v in rng.standard_normal(300))
                f.write(f"class_{i} {coords}\n")
        table = load_word_vectors(path)
        assert len(table.labels) == 200
        assert table.d == 300
        np.testing.assert_allclose(np.linalg.norm(table.vectors, axis=0), 1.0, atol=1e-12)

    def test_underscored_multi_token_names(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("hot_dog 1 0\n")
        assert load_word_vectors(path).labels == ("hot_dog",)


class TestFinalize:
    def test_axis_vectors(self):
        out = finalize_embeddings(("a", "b"), np.array([[2.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_allclose(column(out, "a"), [1.0, 0.0], atol=0)
        np.testing.assert_allclose(column(out, "b"), [0.0, 1.0], atol=0)
        np.testing.assert_allclose(out.background, [0.5, 0.5], atol=0)

    def test_single_class_background_is_itself(self):
        out = finalize_embeddings(("a",), np.array([[3.0], [4.0]]))
        np.testing.assert_allclose(column(out, "a"), [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(out.background, [0.6, 0.8], atol=1e-15)

    def test_random_vectors_unit_norm_and_bg_bound(self, rng):
        vectors = rng.standard_normal((7, 5)) * 3.0
        out = finalize_embeddings(tuple("abcde"), vectors)
        for j in range(5):
            # independent norm computation
            norm = math.sqrt(sum(float(x) ** 2 for x in out.vectors[:, j]))
            assert abs(norm - 1.0) <= 1e-9
        assert math.sqrt(sum(float(x) ** 2 for x in out.background)) <= 1.0 + 1e-12

    def test_zero_vector_names_class(self):
        with pytest.raises(ConfigError, match="bad"):
            finalize_embeddings(("ok", "bad"), np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("vectors", [
        [[1.0, -1.0]],  # d = 1: the unit columns are +1 and -1
        [[2.0, -3.0, 0.0, 0.0], [0.0, 0.0, 0.5, -7.0]],  # two opposite pairs
    ])
    def test_unit_columns_averaging_to_zero_rejected(self, vectors):
        labels = tuple(f"c{i}" for i in range(len(vectors[0])))
        with pytest.raises(ConfigError, match="background has zero norm"):
            finalize_embeddings(labels, np.array(vectors))

    def test_w2_shape_and_background_column(self):
        out = finalize_embeddings(("a", "b"), np.array([[2.0, 0.0], [0.0, 2.0]]))
        w2 = out.w2(("a", "b"))
        assert w2.shape == (2, 3)
        assert not w2.flags.writeable
        np.testing.assert_array_equal(w2[:, 2], out.background)

    def test_w2_follows_the_given_label_order(self, rng):
        vectors = rng.standard_normal((4, 3))
        out = finalize_embeddings(("a", "b", "c"), vectors)
        w2 = out.w2(["c", "a", "b"])
        np.testing.assert_array_equal(w2[:, :3], out.vectors[:, [2, 0, 1]])
        np.testing.assert_array_equal(w2[:, 3], out.background)
        # the same classes stored in another order give the same bits
        shuffled = permuted(out, [2, 0, 1])
        assert shuffled.w2(("a", "b", "c")).tobytes() == out.w2(("a", "b", "c")).tobytes()
        with pytest.raises(ConfigError, match=r"labels absent from embedding table: \['zzz'\]"):
            out.w2(["a", "b", "zzz"])
        for labels in (["a", "b"], ["a", "b", "b"], ["a", "b", "c", "a"]):
            with pytest.raises(ConfigError,
                               match="reorder labels must be a permutation of table labels"):
                out.w2(labels)


class TestBuildLabelSpace:
    def test_reference_scale_counts(self):
        # 177 seen + 23 unseen over 14 meta-classes
        labels = [f"cls{i}" for i in range(200)]
        meta_map = {l: f"meta{i % 14}" for i, l in enumerate(labels)}
        space = build_label_space(labels[:177], labels[177:], meta_map)
        assert space.S == 177
        assert space.U == 23
        assert space.bg_id == 201
        assert space.M == 14
        assert space.bg_meta_id == 15
        assert space.members(space.bg_meta_id) == (space.bg_id,)

    def test_tiny_space_membership(self):
        space = build_label_space(["a", "b"], ["x"], {"a": "m", "b": "m", "x": "m"})
        assert space.members(1) == (1, 2, 3)
        assert space.members(2) == (4,)
        assert space.bg_id == 4
        assert space.meta_of(space.bg_id) == space.bg_meta_id

    def test_class_in_two_meta_rows(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("a,m1\na,m2\n")
        with pytest.raises(ConfigError, match="class 'a' listed in more than one meta row"):
            load_meta_map(path)

    def test_missing_class_coverage(self):
        with pytest.raises(ConfigError, match=r"classes missing from meta map: \['b'\]"):
            build_label_space(["a"], ["b"], {"a": "m"})

    def test_overlapping_sets(self):
        with pytest.raises(ConfigError, match=r"labels in both seen and unseen sets: \['b'\]"):
            build_label_space(["a", "b"], ["b"], {"a": "m", "b": "m"})

    def test_id_assignment_is_bijection(self, rng):
        for _ in range(20):
            n_seen = int(rng.integers(1, 8))
            n_unseen = int(rng.integers(1, 5))
            space = make_space(n_seen, n_unseen)
            ids = [space.labels.index(l) + 1 for l in space.labels]
            assert sorted(ids) == list(range(1, space.C + 1))
            assert all(space.label_of(i) == l for i, l in zip(ids, space.labels))
            covered = sorted(
                cid for m in range(1, space.M + 1) for cid in space.members(m)
            )
            assert covered == list(range(1, space.C + 1))

    def test_meta_map_file_roundtrip(self, tmp_path):
        path = tmp_path / "meta.csv"
        path.write_text("a,m1\nb,m2\nx,m1\n")
        mapping = load_meta_map(path)
        space = build_label_space(["a", "b"], ["x"], mapping)
        assert space.meta_of(1) == space.meta_of(3) == 1
        assert space.meta_of(2) == 2

    def test_label_names_cover_exactly_the_id_range(self):
        space = make_space(2, 1)
        assert [space.label_of(i) for i in range(1, space.bg_id + 1)] == [
            *space.labels, "__background__"]
        assert [space.meta_label_of(m) for m in range(1, space.bg_meta_id + 1)] == [
            *space.meta_labels, "__background__"]

    @pytest.mark.parametrize("which", ["zero", "negative", "past_background"])
    def test_label_of_rejects_ids_outside_range(self, which):
        # 0 and -1 would index the last labels; bg_id + 1 would be a bare IndexError
        space = make_space(2, 1)
        class_id = {"zero": 0, "negative": -1, "past_background": space.bg_id + 1}[which]
        with pytest.raises(ConfigError, match=f"class id {class_id} outside 1..4"):
            space.label_of(class_id)

    @pytest.mark.parametrize("which", ["zero", "negative", "past_background"])
    def test_meta_label_of_rejects_ids_outside_range(self, which):
        space = make_space(2, 1)
        meta_id = {"zero": 0, "negative": -1, "past_background": space.bg_meta_id + 1}[which]
        with pytest.raises(ConfigError, match=f"meta id {meta_id} outside 1..{space.bg_meta_id}"):
            space.meta_label_of(meta_id)


class TestMetaCosineStats:
    def test_tight_clusters_have_high_intra(self):
        # two metas along different axes
        space = make_space(3, 1, meta_of={"c1": "m1", "c2": "m1", "c3": "m2", "c4": "m2"})
        cols = np.array(
            [[1.0, 0.99, 0.0, 0.0], [0.0, 0.14, 1.0, 0.99], [0.0, 0.0, 0.0, 0.14]]
        )
        intra, inter = meta_cosine_stats(cols, space)
        assert intra > 0.9
        assert inter < 0.2
