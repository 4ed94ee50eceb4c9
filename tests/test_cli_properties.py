"""Whole-pipeline properties, run in-process through ``zsdet.cli.main`` on
small synthetic instances.

* Metamorphic: a zero-feature proposal added to a test image changes no
  output byte; permuting the test images changes no report, and permuting
  the class order of a fixed model changes no label's T1-T4 AP, when no two
  detections or tags tie in score.
* Robustness: predict and eval over truncated, bit-flipped or field-dropped
  inputs exit 0 or 2 and never raise; so does every numeric flag of every
  subcommand at nan, +-inf, 0, -1 and 1e308, and the synth files or
  checkpoint that such a run writes with exit 0 load.
"""

import argparse
import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zsdet.cli import build_parser

from zsdet.data import Dataset, ImageRecord, Proposals, load_dataset, save_dataset
from zsdet.infer import tag_image
from zsdet.model import load_checkpoint
from zsdet.semantics import build_label_space, load_meta_map, load_word_vectors

from conftest import read_checkpoint, read_dump, write_checkpoint
from test_cli import SYNTH_FILES, quick_train, run, synth

REPORTS = ["report_T1.json", "report_T2.json", "report_T3.json", "report_T4.json", "report.txt"]


def quiet(*argv):
    """``run(*argv)`` with its standard output and error discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(*argv)


def model_args(data, ckpt, test_file):
    return ["--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
            "--meta-map", data / "meta_map.csv", "--data", test_file]


def pipeline(root, seed):
    """A trained synthetic instance with U=4 over M=2 (so T2 and T4 group)."""
    with contextlib.redirect_stdout(io.StringIO()):
        data = synth(root, seed=seed, u=4, test_images=8)
        return data, quick_train(root, data, seed=seed)


def outputs(data, ckpt, test_file, out, inference):
    """Bytes of the detection dump and of every report for ``test_file``."""
    model = model_args(data, ckpt, test_file) + ["--inference", inference, "--k", 3,
                                                 "--alpha", 0.0]
    out.mkdir()
    assert quiet("predict", *model, "--out", out / "dets.jsonl") == 0
    assert quiet("eval", *model, "--task", "all", "--out", out / "eval") == 0
    files = {"dets.jsonl": out / "dets.jsonl"} | {r: out / "eval" / r for r in REPORTS}
    return {name: path.read_bytes() for name, path in files.items()}


def with_images(dataset, images):
    return Dataset(dataset.d_f, dataset.labels, images)


def has_score_ties(data, ckpt, dets_path):
    """Whether two detections of the dump, or two image tags, share a score."""
    model = load_checkpoint(ckpt, load_word_vectors(data / "embeddings.txt"))
    space = build_label_space(model.labels[: model.n_seen], model.labels[model.n_seen:],
                              load_meta_map(data / "meta_map.csv"))
    scores = [d.score for d in read_dump(dets_path, space)]
    tags = [s for img in load_dataset(data / "test.jsonl").images
            for s in tag_image(model, space, img.proposals).tolist()]
    return len(set(scores)) < len(scores) or len(set(tags)) < len(tags)


class TestMetamorphic:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from(["san", "conse"]), st.data())
    def test_zero_feature_proposal_changes_no_output(self, seed, inference, draw):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            data, ckpt = pipeline(root, seed)
            dataset = load_dataset(data / "test.jsonl")
            k = draw.draw(st.integers(0, len(dataset.images) - 1))
            img = dataset.images[k]
            at = draw.draw(st.integers(0, len(img.proposals)))
            x, y = draw.draw(st.tuples(st.floats(0, 200), st.floats(0, 200)))
            props = Proposals(np.insert(img.proposals.features, at, 0.0, axis=0),
                              np.insert(img.proposals.boxes, at, [x, y, x + 10, y + 10], axis=0))
            images = list(dataset.images)
            images[k] = ImageRecord(img.image_id, props, img.gt_labels, img.gt_boxes)
            save_dataset(with_images(dataset, images), root / "plus_zero.jsonl")
            base = outputs(data, ckpt, data / "test.jsonl", root / "base", inference)
            got = outputs(data, ckpt, root / "plus_zero.jsonl", root / "got", inference)
            assert got == base

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16), st.permutations(range(8)))
    def test_permuting_test_images_changes_no_report(self, seed, order):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            data, ckpt = pipeline(root, seed)
            dataset = load_dataset(data / "test.jsonl")
            save_dataset(with_images(dataset, [dataset.images[i] for i in order]),
                         root / "permuted.jsonl")
            base = outputs(data, ckpt, data / "test.jsonl", root / "base", "san")
            assume(not has_score_ties(data, ckpt, root / "base" / "dets.jsonl"))
            got = outputs(data, ckpt, root / "permuted.jsonl", root / "got", "san")
            assert {r: got[r] for r in REPORTS} == {r: base[r] for r in REPORTS}

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16), st.sampled_from(["san", "conse"]),
           st.permutations(range(6)), st.permutations(range(4)), st.permutations(range(10)))
    def test_permuting_class_order_keeps_every_ap(self, seed, inference, seen, unseen, rows):
        # one fixed model under a consistent relabeling of its classes:
        # class ids (the checkpoint's label order), W2 columns (rebuilt in
        # that order), box-head blocks, and meta ids (the meta map's row order)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            data, ckpt = pipeline(root, seed)
            base = outputs(data, ckpt, data / "test.jsonl", root / "base", inference)
            assume(not has_score_ties(data, ckpt, root / "base" / "dets.jsonl"))
            permuted = root / "permuted"
            permuted.mkdir()
            (permuted / "embeddings.txt").write_bytes((data / "embeddings.txt").read_bytes())
            meta_rows = (data / "meta_map.csv").read_text().splitlines()
            (permuted / "meta_map.csv").write_text("".join(meta_rows[i] + "\n" for i in rows))
            head, blocks = read_checkpoint(ckpt)
            s, d_f = head["S"], head["d_f"]
            order = list(seen) + [s + j for j in unseen]
            head["labels"] = [head["labels"][i] for i in order]
            blocks["box_weights"] = blocks["box_weights"].reshape(d_f, s, 4)[:, list(seen)]
            blocks["box_bias"] = blocks["box_bias"].reshape(s, 4)[list(seen)]
            write_checkpoint(permuted / "ckpt.json", head, blocks)
            got = outputs(permuted, permuted / "ckpt.json", data / "test.jsonl",
                          root / "got", inference)
            for report in REPORTS[:-1]:
                assert per_label_ap(got[report]) == per_label_ap(base[report]), report


def per_label_ap(report: bytes) -> dict:
    """``{name: (ap, n_gt, n_det)}`` over a report's per-class rows."""
    return {r["name"]: (r["ap"], r["n_gt"], r["n_det"]) for r in json.loads(report)["per_class"]}


def _drop_field(data: bytes, line_at: int, field_at: int) -> bytes:
    """``data`` without one field of one line: a key of a JSON object line,
    else a comma- or space-separated token."""
    lines = data.split(b"\n")
    i = line_at % len(lines)
    try:
        rec = json.loads(lines[i])
    except ValueError:
        rec = None
    if isinstance(rec, dict) and rec:
        del rec[sorted(rec)[field_at % len(rec)]]
        lines[i] = json.dumps(rec).encode()
    else:
        sep = b"," if b"," in lines[i] else b" "
        parts = lines[i].split(sep)
        del parts[field_at % len(parts)]
        lines[i] = sep.join(parts)
    return b"\n".join(lines)


@st.composite
def mutations(draw, sources):
    """``(name, bytes)``: one of the ``sources`` files after a few
    truncations, bit flips and dropped fields."""
    name = draw(st.sampled_from(sorted(sources)))
    data = bytearray(sources[name])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["truncate", "flip", "drop"]))
        if op == "truncate":
            del data[draw(st.integers(0, len(data))):]
        elif op == "flip" and data:
            data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        elif op == "drop" and data:
            data = bytearray(_drop_field(bytes(data), draw(st.integers(0, 1 << 16)),
                                         draw(st.integers(0, 1 << 16))))
    return name, bytes(data)


def _sources():
    with tempfile.TemporaryDirectory() as tmp:
        data, ckpt = pipeline(Path(tmp), 0)
        files = {name: (data / name).read_bytes() for name in SYNTH_FILES}
        return files | {"ckpt.json": ckpt.read_bytes()}


SOURCES = _sources()


class TestMutatedInputs:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(mutations(SOURCES))
    def test_predict_and_eval_exit_0_or_2(self, mutation):
        name, mutated = mutation
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for source, content in SOURCES.items():
                (root / source).write_bytes(mutated if source == name else content)
            if name == "oracle.json":  # only training reads the split
                assert quiet("train", "--embeddings", root / "embeddings.txt",
                             "--meta-map", root / "meta_map.csv", "--split", root / name,
                             "--data", root / "train.jsonl", "--epochs", 0,
                             "--out", root / "out.json") in (0, 2)
                return
            test_file = root / ("train.jsonl" if name == "train.jsonl" else "test.jsonl")
            model = model_args(root, root / "ckpt.json", test_file) + ["--alpha", 0.0]
            assert quiet("predict", *model, "--inference", "conse", "--k", 3,
                         "--out", root / "dets.jsonl") in (0, 2)
            assert quiet("eval", *model, "--task", "all", "--out", root / "eval") in (0, 2)


EXTREMES = ["nan", "inf", "-inf", "0", "-1", "1e308"]
TINY_SYNTH = ["--s", 3, "--u", 1, "--m", 2, "--d", 4, "--d-f", 4, "--images", 2,
              "--test-images", 1, "--proposals-per-image", 4]


def numeric_flags():
    """``(subcommand, flag)`` for every flag that takes an int or a float."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, a.option_strings[0]) for command, parser in sub.choices.items()
            for a in parser._actions if a.type in (int, float)]


def exit_code(*argv):
    """``quiet(*argv)``; a value argparse refuses counts as its exit code."""
    try:
        return quiet(*argv)
    except SystemExit as exc:
        return exc.code


def train_args(data, out):
    return ["train", "--embeddings", data / "embeddings.txt", "--meta-map", data / "meta_map.csv",
            "--split", data / "oracle.json", "--data", data / "train.jsonl", "--out", out]


class TestNumericFlags:
    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tiny")
        assert exit_code("synth", *TINY_SYNTH, "--out", out) == 0
        assert exit_code(*train_args(out, out / "ckpt.json"), "--epochs", 1,
                         "--min-similar", 0) == 0
        return out

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("command, flag", numeric_flags())
    def test_extreme_values_exit_0_or_2(self, tmp_path, data, command, flag):
        # the ``--flag=value`` form, so that argparse reads "-inf" as a value
        # (an int flag refuses the float spellings, so no run can be huge)
        for i, value in enumerate(EXTREMES):
            given = f"{flag}={value}"
            out = tmp_path / f"run{i}"
            if command == "synth":
                code = exit_code("synth", *TINY_SYNTH, "--out", out, given)
                if code == 0:
                    assert exit_code(*train_args(out, out / "ckpt.json"), "--epochs", 0) == 0, given
            elif command == "split":
                code = exit_code("split", "--data", data / "train.jsonl",
                                 "--meta-map", data / "meta_map.csv", "--out", out, given)
            elif command == "train":
                code = exit_code(*train_args(data, out), "--epochs", 1, "--lr", 1e-3,
                                 "--n-pos", 2, "--n-neg", 2, "--min-similar", 0, given)
                if code == 0:
                    load_checkpoint(out, load_word_vectors(data / "embeddings.txt"))
            elif command == "gradcheck":
                code = exit_code("gradcheck", "--trials", 1, given)
            elif command in ("predict", "eval"):  # predict on the ConSE route, which reads --k
                route = "conse" if command == "predict" else "san"
                code = exit_code(command, *model_args(data, data / "ckpt.json", data / "test.jsonl"),
                                 "--inference", route, "--out", out, given)
            else:
                pytest.fail(f"no base arguments for {command} {flag}")
            assert code in (0, 2), given
