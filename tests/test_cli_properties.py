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
* Fail before the heavy work: a split, train, predict or eval run whose
  setting, split, meta map, word vectors or checkpoint is refused exits 2
  with its one error line before it reads the dataset.
"""

import argparse
import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zsdet.cli import build_parser

from zsdet.data import Dataset, ImageRecord, Proposals, load_dataset, save_dataset
from zsdet.infer import tag_image
from zsdet.model import MODES, load_checkpoint
from zsdet.semantics import load_word_vectors

from conftest import (block_file_bytes, model_args, read_checkpoint, read_dump, run, train_args,
                      write_checkpoint)
from test_cli import SYNTH_FILES, quick_train, synth

REPORTS = ["report_T1.json", "report_T2.json", "report_T3.json", "report_T4.json", "report.txt"]


def quiet(*argv):
    """``run(*argv)`` with its standard output and error discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(*argv)


def pipeline(root, seed):
    """A trained synthetic instance with U=4 over M=2 (so T2 and T4 group)."""
    with contextlib.redirect_stdout(io.StringIO()):
        data = synth(root, seed=seed, u=4, test_images=8)
        return data, quick_train(root, data, seed=seed)


def outputs(data, ckpt, test_file, out, inference):
    """Bytes of the detection dump and of every report for ``test_file``."""
    route = {"data": test_file, "inference": inference, "k": 3, "alpha": 0.0}
    out.mkdir()
    assert quiet(*model_args("predict", data, ckpt, **route, out=out / "dets.jsonl")) == 0
    assert quiet(*model_args("eval", data, ckpt, **route, task="all", out=out / "eval")) == 0
    files = {"dets.jsonl": out / "dets.jsonl"} | {r: out / "eval" / r for r in REPORTS}
    return {name: path.read_bytes() for name, path in files.items()}


def with_images(dataset, images):
    return Dataset(dataset.d_f, images)


def has_score_ties(data, ckpt, dets_path):
    """Whether two detections of the dump, or two image tags, share a score."""
    model = load_checkpoint(ckpt, load_word_vectors(data / "embeddings.txt"))
    scores = [d.score for d in read_dump(dets_path, model.labels)]
    tags = [s for img in load_dataset(data / "test.jsonl").images
            for s in tag_image(model, img.proposals).tolist()]
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
                assert quiet(*train_args(root, root / "out.json", split=root / name,
                                         epochs=0)) in (0, 2)
                return
            test_file = root / ("train.jsonl" if name == "train.jsonl" else "test.jsonl")
            model = {"data": test_file, "alpha": 0.0}
            assert quiet(*model_args("predict", root, root / "ckpt.json", **model, inference="conse",
                                     k=3, out=root / "dets.jsonl")) in (0, 2)
            assert quiet(*model_args("eval", root, root / "ckpt.json", **model, task="all",
                                     out=root / "eval")) in (0, 2)


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


class TestNumericFlags:
    @pytest.fixture(scope="class")
    def data(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("tiny")
        assert exit_code("synth", *TINY_SYNTH, "--out", out) == 0
        assert exit_code(*train_args(out, out / "ckpt.json", epochs=1, min_similar=0)) == 0
        return out

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
                    assert exit_code(*train_args(out, out / "ckpt.json", epochs=0,
                                                 min_similar=0)) == 0, given
            elif command == "split":
                code = exit_code("split", "--data", data / "train.jsonl",
                                 "--meta-map", data / "meta_map.csv", "--out", out, given)
            elif command == "train":
                code = exit_code(*train_args(data, out, epochs=1, lr=1e-3, n_pos=2, n_neg=2,
                                             min_similar=0), given)
                if code == 0:
                    load_checkpoint(out, load_word_vectors(data / "embeddings.txt"))
            elif command == "gradcheck":
                code = exit_code("gradcheck", "--trials", 1, given)
            elif command in ("predict", "eval"):  # predict on the ConSE route, which reads --k
                route = "conse" if command == "predict" else "san"
                code = exit_code(*model_args(command, data, data / "ckpt.json", inference=route,
                                             out=out), given)
            else:
                pytest.fail(f"no base arguments for {command} {flag}")
            assert code in (0, 2), given


INPUTS = {"split": ["meta_map.csv"],
          "train": ["embeddings.txt", "meta_map.csv", "oracle.json"],
          "predict": ["ckpt.json", "embeddings.txt", "meta_map.csv"],
          "eval": ["ckpt.json", "embeddings.txt", "meta_map.csv"]}
ORACLE = json.loads(SOURCES["oracle.json"])
LABELS = ORACLE["seen_labels"] + ORACLE["unseen_labels"]


def _read_source_checkpoint():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        path.write_bytes(SOURCES["ckpt.json"])
        return read_checkpoint(path)


CKPT_HEAD, CKPT_BLOCKS = _read_source_checkpoint()


def text_lines(name):
    return SOURCES[name].decode().splitlines(keepends=True)


def split_record(seen, unseen):
    return json.dumps({"seen_labels": seen, "unseen_labels": unseen}).encode()


COMMON_FAULTS = ["missing", "meta_drop", "meta_columns", "meta_repeat", "table_drop",
                 "table_extra", "table_non_finite"]
FAULTS = {"split": ["missing", "meta_columns", "seed", "exclude"],
          "train": COMMON_FAULTS + ["lr", "lambda", "epochs", "counts", "min_similar", "seed",
                                    "split_side", "split_overlap", "split_unknown", "split_json"],
          "predict": COMMON_FAULTS + ["alpha", "k", "ckpt_truncated", "ckpt_mode", "ckpt_side",
                                      "table_dim"]}
FAULTS["eval"] = FAULTS["predict"]


@st.composite
def refused_inputs(draw, command, fault):
    """``(files, argv, message)``: the inputs of a ``command`` run with one
    ``fault``, an input refused before the dataset is read.  ``files`` replace
    sources by name (``None`` removes one), ``argv`` is appended, and
    ``message`` is a regular expression for the error line's text."""
    files, argv, exact = {}, [], None
    label = draw(st.sampled_from(LABELS))
    fresh = draw(st.from_regex(r"[a-z]{1,8}", fullmatch=True).filter(lambda l: l not in LABELS))
    if fault == "missing":
        name = draw(st.sampled_from(INPUTS[command]))
        files[name] = None
        message = re.escape("[Errno 2] No such file or directory: ") + f".*{re.escape(name)}'"
    elif fault == "meta_drop":
        files["meta_map.csv"] = "".join(
            line for line in text_lines("meta_map.csv") if line.split(",")[0] != label).encode()
        exact = f"classes missing from meta map: [{label!r}]"
    elif fault == "meta_columns":
        lines = text_lines("meta_map.csv")
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] = lines[k].rstrip("\n") + f",{fresh}\n"
        files["meta_map.csv"] = "".join(lines).encode()
        exact = f"line {k + 1}: expected 2 columns, got 3"
    elif fault == "meta_repeat":
        files["meta_map.csv"] = SOURCES["meta_map.csv"] + f"{label},{fresh}\n".encode()
        exact = f"class {label!r} listed in more than one meta row"
    elif fault == "table_drop":
        files["embeddings.txt"] = "".join(
            line for line in text_lines("embeddings.txt") if line.split()[0] != label).encode()
        exact = f"labels absent from embedding table: [{label!r}]"
    elif fault == "table_extra":
        d = CKPT_HEAD["d"]
        vector = draw(st.lists(st.floats(-1, 1), min_size=d, max_size=d).filter(any))
        files["embeddings.txt"] = (SOURCES["embeddings.txt"]
                                   + f"{fresh} {' '.join(map(repr, vector))}\n".encode())
        exact = "labels must name each class of the embedding table exactly once"
    elif fault == "table_non_finite":
        lines = text_lines("embeddings.txt")
        k = draw(st.integers(0, len(lines) - 1))
        parts = lines[k].split()
        parts[draw(st.integers(1, len(parts) - 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        lines[k] = " ".join(parts) + "\n"
        files["embeddings.txt"] = "".join(lines).encode()
        exact = f"line {k + 1}: record {parts[0]!r} has a non-finite component"
    elif fault == "lr":
        value = draw(st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]))
        argv, exact = [f"--lr={value!r}"], f"lr must be a positive finite number, got {value}"
    elif fault == "lambda":
        value = draw(st.floats(max_value=-5e-324) | st.floats(min_value=1.0, exclude_min=True)
                     | st.just(math.nan))
        argv, exact = [f"--lambda={value!r}"], f"lambda must be in [0, 1], got {value}"
    elif fault in ("epochs", "counts", "min_similar", "seed"):
        flag = {"epochs": "--epochs", "min_similar": "--min-similar", "seed": "--seed",
                "counts": draw(st.sampled_from(["--n-pos", "--n-neg"]))}[fault]
        value = draw(st.integers(max_value=-1))
        argv = [f"{flag}={value}"]
        exact = {"epochs": "epochs must be >= 0", "counts": "proposal counts must be >= 0",
                 "min_similar": "min_similar must be >= 0",
                 "seed": f"seed must be >= 0, got {value}"}[fault]
    elif fault == "exclude":
        meta = draw(st.sampled_from([line.rstrip("\n").split(",")[1]
                                     for line in text_lines("meta_map.csv")]))
        argv = [f"--exclude={meta},{fresh}"]
        exact = f"meta-classes missing from meta map: [{fresh!r}]"
    elif fault == "split_side":
        seen_only = draw(st.booleans())
        files["oracle.json"] = split_record(LABELS, []) if seen_only else split_record([], LABELS)
        counts = (len(LABELS), 0) if seen_only else (0, len(LABELS))
        exact = ("the split needs at least one seen and one unseen class, "
                 "got {} seen and {} unseen".format(*counts))
    elif fault == "split_overlap":
        files["oracle.json"] = split_record(ORACLE["seen_labels"] + [ORACLE["unseen_labels"][0]],
                                            ORACLE["unseen_labels"])
        exact = f"labels in both seen and unseen sets: [{ORACLE['unseen_labels'][0]!r}]"
    elif fault == "split_unknown":
        files["oracle.json"] = split_record(ORACLE["seen_labels"],
                                            ORACLE["unseen_labels"] + [fresh])
        exact = f"classes missing from meta map: [{fresh!r}]"
    elif fault == "split_json":
        seen = draw(st.integers() | st.lists(st.integers(), min_size=1))
        files["oracle.json"] = json.dumps({"seen_labels": seen, "unseen_labels": []}).encode()
        exact = "JSON split record needs 'seen_labels' as a list of strings"
    elif fault == "alpha":
        value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        argv, exact = [f"--alpha={value}"], f"alpha must be a finite number, got {value}"
    elif fault == "k":
        n_seen = len(ORACLE["seen_labels"])
        value = draw(st.integers(max_value=0) | st.integers(min_value=n_seen + 1))
        argv = ["--inference", "conse", f"--k={value}"]
        exact = f"K must be in 1..{n_seen}, got {value}"
    elif fault == "ckpt_truncated":
        files["ckpt.json"] = SOURCES["ckpt.json"][:draw(st.integers(0, len(SOURCES["ckpt.json"]) - 1))]
        message = ".*"
    elif fault == "ckpt_mode":
        mode = draw(st.text().filter(lambda m: m not in MODES))
        files["ckpt.json"] = block_file_bytes(CKPT_HEAD | {"mode": mode}, CKPT_BLOCKS.values())
        exact = f"checkpoint mode must be one of {MODES}, got {mode!r}"
    elif fault == "ckpt_side":
        s = draw(st.sampled_from([0, len(LABELS)]))  # every class seen, or none
        head = CKPT_HEAD | {"S": s, "U": len(LABELS) - s}
        files["ckpt.json"] = block_file_bytes(head, (CKPT_BLOCKS["W1"],
                                                     np.zeros((head["d_f"], 4 * s)), np.zeros(4 * s)))
        exact = ("the checkpoint needs at least one seen and one unseen class, "
                 f"got {s} seen and {len(LABELS) - s} unseen")
    elif fault == "table_dim":
        j = draw(st.integers(1, CKPT_HEAD["d"]))
        files["embeddings.txt"] = "".join(
            " ".join(p for i, p in enumerate(line.split()) if i != j) + "\n"
            for line in text_lines("embeddings.txt")).encode()
        exact = f"table dimensionality {CKPT_HEAD['d'] - 1} != checkpoint d {CKPT_HEAD['d']}"
    return files, argv, re.escape(exact) if exact is not None else message


def never(*args, **kwargs):
    raise AssertionError("read the dataset before refusing an input")


class TestFailBeforeLoading:
    @pytest.mark.parametrize("command, fault",
                             [(command, fault) for command in FAULTS for fault in FAULTS[command]])
    @settings(max_examples=10, deadline=None)
    @given(st.data())
    def test_refused_input_exits_2_before_loading(self, command, fault, data):
        files, argv, message = data.draw(refused_inputs(command, fault))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            for name, content in (SOURCES | files).items():
                if content is not None:
                    (root / name).write_bytes(content)
            before = sorted(p.name for p in root.iterdir())
            if command == "split":
                args = ["split", "--data", root / "train.jsonl",
                        "--meta-map", root / "meta_map.csv", "--out", root / "out"]
            elif command == "train":
                args = train_args(root, root / "out")
            else:
                args = model_args(command, root, root / "ckpt.json", out=root / "out")
            mp.setattr("zsdet.cli.load_dataset", never)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                assert run(*args, *argv) == 2
            assert re.fullmatch(f"error: {message}\n", err.getvalue()), err.getvalue()
            assert sorted(p.name for p in root.iterdir()) == before
