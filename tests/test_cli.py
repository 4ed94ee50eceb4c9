import argparse
import ast
import builtins
import csv
import hashlib
import json
import os
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import zsdet
import zsdet.errors
import zsdet.train
from zsdet.cli import build_parser, main
from zsdet.data import SynthConfig, generate_synthetic, load_split, save_dataset
from zsdet.evaluation import TASK_NAMES, TASKS
from zsdet.model import MODES, load_checkpoint, save_checkpoint
from zsdet.semantics import load_word_vectors
from zsdet.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, FG_IOU

from conftest import (
    adam_cpus,
    base64_array,
    block_file_bytes,
    column,
    legacy_checkpoint_bytes,
    model_args,
    read_checkpoint,
    read_dataset,
    run,
    stage_args,
    train_args,
    write_checkpoint,
    write_dataset,
)

SYNTH_FILES = ["embeddings.txt", "meta_map.csv", "train.jsonl", "test.jsonl", "oracle.json"]
QUICK_TRAIN = {"epochs": 2, "lr": 1e-3, "n_pos": 4, "n_neg": 4, "min_similar": 0}
# numpy asks for a 10**12-row float64 array at once and is refused, unless
# the kernel grants any allocation (overcommit mode 1) and lets it be filled
OVERCOMMIT = Path("/proc/sys/vm/overcommit_memory")
TERA = pytest.mark.skipif(OVERCOMMIT.is_file() and OVERCOMMIT.read_text().strip() == "1",
                          reason="the kernel grants any allocation")


def synth_args(out, seed=0, **flags):
    """``zsdet synth`` of the tests' small instance (6 seen, 2 unseen) into ``out``."""
    return stage_args("synth", **{"out": out, "seed": seed, "s": 6, "u": 2, "m": 2, "d": 6,
                                  "d_f": 6, "images": 12, "test_images": 6,
                                  "proposals_per_image": 8} | flags)


def synth(tmp_path, name="data", seed=0, **extra):
    out = tmp_path / name
    assert run(*synth_args(out, seed, **extra)) == 0
    return out


def quick_train(tmp_path, data, /, name="ckpt.json", code=0, **extra):
    out = tmp_path / name
    assert run(*train_args(data, out, **QUICK_TRAIN | extra)) == code
    return out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def zsdet_process(*argv):
    """``python -m zsdet.cli`` in a process of its own, so that its stderr
    holds every warning it prints (pytest captures them apart)."""
    src = str(Path(zsdet.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "zsdet.cli", *map(str, argv)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)


class TestSynthCommand:
    def test_writes_five_artifact_files(self, tmp_path):
        out = synth(tmp_path)
        for name in SYNTH_FILES:
            assert (out / name).exists(), name
        assert (out / "manifest.json").exists()

    def test_same_seed_identical_checksums(self, tmp_path):
        a = synth(tmp_path, "a", seed=7)
        b = synth(tmp_path, "b", seed=7)
        for name in SYNTH_FILES:
            assert sha(a / name) == sha(b / name), name

    def test_invalid_meta_count_exits_2(self, tmp_path, capsys):
        code = run("synth", "--out", tmp_path / "x", "--m", 0)
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("knob, message", [
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        *[pytest.param((flag, str(n)), f"a ({n}, {m}) {what} cannot be allocated",
                       marks=TERA if n == 10**12 else ())
          # 10**19 rows is past what numpy can shape at all
          for n in (10**12, 10**19)
          for flag, m, what in (("--d", 5, "meta centroid block"), ("--d-f", 16, "feature map"),
                                ("--proposals-per-image", 16, "proposal feature block"))],
    ])
    def test_unusable_float_or_seed_exits_2_and_writes_nothing(
            self, tmp_path, capsys, knob, message):
        assert run("synth", "--out", tmp_path / "x", *knob) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_manifest_records_subcommand_and_seed(self, tmp_path):
        out = synth(tmp_path, seed=3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 3
        assert manifest["version"]

    def test_manifests_record_output_sizes(self, tmp_path):
        out = synth(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["output_bytes"] == {n: (out / n).stat().st_size for n in SYNTH_FILES}
        ckpt = quick_train(tmp_path, out)
        manifest = json.loads(ckpt.with_name("ckpt.manifest.json").read_text())
        assert manifest["output_bytes"] == {
            n: (tmp_path / n).stat().st_size for n in ("ckpt.json", "ckpt.loss.csv")
        }

    def test_oracle_holds_no_g_map(self, tmp_path):
        out = synth(tmp_path)
        oracle = json.loads((out / "oracle.json").read_text())
        bundle = generate_synthetic(SynthConfig(
            s=6, u=2, m=2, d=6, d_f=6, images=12, test_images=6, proposals_per_image=8,
        ))
        assert oracle == bundle.oracle
        assert "g_map" not in oracle


    def test_oracle_config_regenerates_the_datasets(self, tmp_path):
        out = synth(tmp_path, seed=3)
        config = json.loads((out / "oracle.json").read_text())["config"]
        bundle = generate_synthetic(SynthConfig(**config))
        save_dataset(bundle.train, tmp_path / "train.jsonl")
        save_dataset(bundle.test, tmp_path / "test.jsonl")
        for name in ("train.jsonl", "test.jsonl"):
            assert sha(tmp_path / name) == sha(out / name), name

class TestSplitCommand:
    def test_split_file_written(self, tmp_path):
        data = synth(tmp_path)
        out = tmp_path / "split.json"
        assert run("split", "--data", data / "train.jsonl", "--meta-map",
                   data / "meta_map.csv", "--seed", 1, "--out", out) == 0
        record = json.loads(out.read_text())
        assert set(record) == {"seen_labels", "unseen_labels"}
        assert record["seen_labels"] and record["unseen_labels"]
        assert load_split(out) == (record["seen_labels"], record["unseen_labels"])


class TestTrainCommand:
    def test_defaults_are_reference_hyperparameters(self):
        parser = build_parser()
        args = parser.parse_args(["train", "--embeddings", "e", "--meta-map", "m",
                                  "--split", "s", "--data", "d", "--out", "o"])
        assert args.lr == 1e-5
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, FG_IOU) == (0.9, 0.999, 1e-8, 0.5)
        assert args.lam == 0.8
        assert args.n_pos == 16 and args.n_neg == 16

    def test_lambda_one_trains_pure_margin(self, tmp_path):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data, **{"lambda": 1.0})
        loss_csv = ckpt.with_name(ckpt.stem + ".loss.csv")
        with open(loss_csv) as f:
            rows = list(csv.DictReader(f))
        assert rows
        for row in rows:
            assert float(row["l_cls"]) == float(row["l_mm"])

    def test_seen_only_mode_recorded_in_checkpoint(self, tmp_path):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data, mode="seen_only", **{"lambda": 1.0})
        assert read_checkpoint(ckpt)[0]["mode"] == "seen_only"

    def test_deterministic_given_seed(self, tmp_path):
        data = synth(tmp_path)
        a = quick_train(tmp_path, data, "a.json", seed=5)
        b = quick_train(tmp_path, data, "b.json", seed=5)
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_beside_checkpoint(self, tmp_path):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        assert ckpt.with_name(ckpt.stem + ".manifest.json").exists()

    def test_multi_block_training_is_bitwise_on_one_and_two_cpus(self, tmp_path):
        # W1 (128 x 300) and the box head (128 x 320) each span two Adam blocks
        data = synth(tmp_path, s=80, d=300, d_f=128)
        outputs = {}
        for cpus in (2, 1):
            with adam_cpus(cpus) as ran:
                ckpt = quick_train(tmp_path, data, f"ckpt{cpus}.json", epochs=1)
            assert len(ran) == cpus
            outputs[cpus] = [ckpt.read_bytes(), ckpt.with_name(ckpt.stem + ".loss.csv").read_bytes()]
        assert outputs[2] == outputs[1]

    @pytest.mark.parametrize("flag", ["epochs", "n_pos", "n_neg"])
    def test_size_that_cannot_be_allocated_exits_2(self, tmp_path, capsys, flag):
        # the loss history (epochs) or the first batch (n_pos, n_neg) fails
        # to allocate at once, before anything is written; numpy cannot even
        # shape it at 10**19
        data = synth(tmp_path)
        for value in (10**18, 10**19):
            capsys.readouterr()
            quick_train(tmp_path, data, code=2, **{flag: value})
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.endswith(" cannot be allocated\n"), err
            assert [p.name for p in tmp_path.iterdir()] == ["data"]

    @TERA
    def test_feature_length_that_cannot_be_allocated_exits_2(self, tmp_path, capsys):
        # a valid dataset whose one image has no proposal: only W1 is d_f rows
        data = synth(tmp_path)
        big = tmp_path / "big.jsonl"
        big.write_bytes(block_file_bytes(
            {"d_f": 10**12, "images": [{"image_id": "x", "proposals": 0, "gt_labels": []}]}, ()))
        capsys.readouterr()
        quick_train(tmp_path, data, code=2, data=big)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(1000000000000, 6)" in err and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.jsonl", "data"]

    def test_run_without_steps_reports_its_epochs(self, tmp_path, capsys):
        data = synth(tmp_path)
        capsys.readouterr()
        ckpt = quick_train(tmp_path, data, epochs=5, n_pos=0, n_neg=0)
        assert capsys.readouterr().out == f"wrote untrained checkpoint (0 steps in 5 epochs) -> {ckpt}\n"
        assert ckpt.with_name(ckpt.stem + ".loss.csv").read_text().splitlines() == [
            "step,l_mm,l_mc,l_cls,l_reg,total"]


class TestImportCost:
    def test_cli_import_loads_no_thread_pool(self):
        # the Adam worker's machinery is imported on first use only, so
        # synth, predict and eval do not pay for it
        probe = "import sys, zsdet.cli; print('concurrent.futures' in sys.modules)"
        src = str(Path(zsdet.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout == "False\n"

    def test_pipeline_stages_load_no_masked_arrays(self, tmp_path):
        # numpy.ma costs each process about 1.3 MB and 12-16 ms; only what
        # ``import zsdet.cli`` itself loads (none, in numpy 2) is allowed
        probe = (
            "import sys, zsdet.cli\n"
            "def ma(): return {m for m in sys.modules if m == 'numpy.ma' or m.startswith('numpy.ma.')}\n"
            "before = ma()\n"
            "code = zsdet.cli.main(sys.argv[1:])\n"
            "print(code, sorted(ma() - before))\n"
        )
        data, ckpt = tmp_path / "data", tmp_path / "ckpt.json"
        stages = [
            synth_args(data),
            train_args(data, ckpt, **QUICK_TRAIN | {"min_similar": 4}),
            model_args("predict", data, ckpt, alpha=0, out=tmp_path / "dets.jsonl"),
            model_args("eval", data, ckpt, alpha=0, task="all", out=tmp_path / "reports"),
        ]
        src = str(Path(zsdet.__file__).resolve().parent.parent)
        for argv in stages:
            out = subprocess.run([sys.executable, "-c", probe, *map(str, argv)],
                                 capture_output=True, text=True, check=True, timeout=120,
                                 env={**os.environ, "PYTHONPATH": src})
            assert out.stdout.splitlines()[-1] == "0 []", (argv[0], out.stderr)
        assert json.loads((tmp_path / "reports" / "report_T1.json").read_text())["per_class"]


class TestPackageSurface:
    def test_errors_defines_the_four_exception_classes(self):
        defined = {name for name, obj in vars(zsdet.errors).items()
                   if isinstance(obj, type) and issubclass(obj, BaseException)}
        assert defined == {"ZsdetError", "ParseError", "ConfigError", "NumericFailureError"}

    def test_train_names_the_module(self):
        assert isinstance(zsdet.train, types.ModuleType)
        assert zsdet.train.train.__module__ == "zsdet.train"

    def test_package_root_binds_only_its_version(self):
        probe = "import zsdet; print(sorted(n for n in vars(zsdet) if not n.startswith('__')))"
        src = str(Path(zsdet.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=60)
        assert out.stdout == "[]\n"
        assert zsdet.__version__

    def test_every_record_but_the_adam_state_is_frozen(self):
        frozen, mutable = set(), set()
        for path in Path(zsdet.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                decorators = map(ast.unparse, getattr(node, "decorator_list", ()))
                for deco in decorators:
                    if isinstance(node, ast.ClassDef) and deco.split("(")[0] == "dataclass":
                        (frozen if deco == "dataclass(frozen=True)" else mutable).add(node.name)
        assert mutable == {"AdamState"}
        assert {"Model", "ImageRecord", "Dataset", "SyntheticBundle", "DetectionReport",
                "AuditResult"} <= frozen

    def test_choice_lists_are_the_library_constants(self):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        choices = {(name, a.dest): a.choices for name, sub in commands.items()
                   for a in sub._actions if a.choices}
        assert choices[("train", "mode")] is MODES
        assert choices[("eval", "task")] == (*TASKS, "all") and TASKS == tuple(TASK_NAMES)

    def test_every_subcommand_has_exactly_its_flags(self):
        # a new or returning knob has to be added here on purpose
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        model = ["--checkpoint", "--embeddings", "--meta-map", "--data", "--inference",
                 "--alpha", "--k"]
        expected = {
            "synth": ["--out", "--seed", "--s", "--u", "--m", "--d", "--d-f", "--images",
                      "--test-images", "--proposals-per-image"],
            "split": ["--data", "--meta-map", "--exclude", "--seed", "--out"],
            "train": ["--embeddings", "--meta-map", "--split", "--data", "--out", "--lambda",
                      "--mode", "--lr", "--epochs", "--n-pos", "--n-neg", "--min-similar",
                      "--seed"],
            "predict": [*model, "--out"],
            "eval": [*model, "--task", "--out"],
            "gradcheck": ["--trials", "--seed", "--out"],
            "export-embeddings": ["--checkpoint", "--embeddings", "--out"],
        }
        flags = {name: [flag for action in sub._actions for flag in action.option_strings
                        if flag not in ("-h", "--help")]
                 for name, sub in commands.choices.items()}
        assert flags == expected
        assert sum(map(len, flags.values())) == 51
        assert [f for a in parser._actions for f in a.option_strings] == [
            "-h", "--help", "--version"]


class TestPredictAndEval:
    def test_predict_writes_jsonl(self, tmp_path):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        out = tmp_path / "dets.jsonl"
        assert run(*model_args("predict", data, ckpt, alpha=0.1, out=out)) == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"image_id", "label", "score", "box"}

    def test_eval_all_tasks_writes_four_reports(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        out = tmp_path / "reports"
        assert run(*model_args("eval", data, ckpt, task="all", alpha=0.1, out=out)) == 0
        for task in ("T1", "T2", "T3", "T4"):
            report = json.loads((out / f"report_{task}.json").read_text())
            assert set(report) == {"task", "task_name", "mean_ap", "per_class", "meta"}
            assert set(report["meta"]) == {"task", "task_name", "iou_thresh", "interpolation",
                                           "tagging"}
            assert report["task"] == task
            assert 0.0 <= report["mean_ap"] <= 1.0
        text = capsys.readouterr().out
        assert text.count("mAP=") == 4
        assert (out / "report.txt").exists()

    def test_reports_do_not_depend_on_how_the_checkpoint_is_named(self, tmp_path, monkeypatch):
        # the run settings, the checkpoint path among them, live in the manifest
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        monkeypatch.chdir(tmp_path)
        for checkpoint, out in ((ckpt.name, "rel"), (ckpt.resolve(), "abs")):
            assert run(*model_args("eval", data, checkpoint, task="all", alpha=0.1, out=out)) == 0
        for task in TASKS:
            name = f"report_{task}.json"
            assert (tmp_path / "rel" / name).read_bytes() == (tmp_path / "abs" / name).read_bytes()
        manifest = json.loads((tmp_path / "abs" / "manifest.json").read_text())
        assert manifest["config"]["checkpoint"] == str(ckpt.resolve())
        assert {k: manifest["config"][k] for k in ("inference", "alpha", "k")} == {
            "inference": "san", "alpha": 0.1, "k": 10}

    def test_eval_single_task_conse(self, tmp_path):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data, mode="seen_only", **{"lambda": 1.0})
        out = tmp_path / "reports"
        assert run(*model_args("eval", data, ckpt, task="T1", inference="conse", k=3, alpha=0.1,
                               out=out)) == 0
        assert (out / "report_T1.json").exists()
        assert not (out / "report_T2.json").exists()

    def test_san_on_seen_only_checkpoint_warns(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data, mode="seen_only", **{"lambda": 1.0})
        out = tmp_path / "reports"
        assert run(*model_args("eval", data, ckpt, task="T1", inference="san", alpha=0.1,
                               out=out)) == 0
        assert "seen-only checkpoint" in capsys.readouterr().err

    def test_predict_and_eval_read_checkpoint_once(self, tmp_path, monkeypatch):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        for argv in (model_args("predict", data, ckpt, out=tmp_path / "dets.jsonl"),
                     model_args("eval", data, ckpt, task="T1", out=tmp_path / "reports")):
            opened.clear()
            assert run(*argv) == 0
            assert opened.count(str(ckpt)) == 1, argv[0]

    def test_eval_default_alpha_is_cluster_threshold(self):
        parser = build_parser()
        args = parser.parse_args(["eval", "--checkpoint", "c", "--embeddings", "e",
                                  "--meta-map", "m", "--data", "d", "--out", "o"])
        assert args.alpha == 0.2
        assert args.k == 10


class TestGradcheckCommand:
    def test_small_run_deterministic(self, capsys):
        assert run("gradcheck", "--trials", 1, "--seed", 3) == 0
        first = capsys.readouterr().out
        assert run("gradcheck", "--trials", 1, "--seed", 3) == 0
        assert capsys.readouterr().out == first
        assert "PASS" in first

    def test_fault_injection_fails(self, capsys, monkeypatch):
        exact = zsdet.audit.loss_gradients

        def shifted(*args):
            breakdown, grads = exact(*args)
            grads["w1"][0, 0] += 1e-2
            return breakdown, grads

        monkeypatch.setattr("zsdet.audit.loss_gradients", shifted)
        assert run("gradcheck", "--trials", 2) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("knob, message", [
        (("--trials", "0"), "trials must be >= 1, got 0"),
        (("--trials", "-1"), "trials must be >= 1, got -1"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
    ])
    def test_out_of_range_argument_exits_2_before_the_audit(
            self, capsys, monkeypatch, knob, message):
        def never(*args):
            raise AssertionError("the audit ran")

        monkeypatch.setattr("zsdet.audit.loss_gradients", never)
        assert run("gradcheck", "--trials", 1, *knob) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("prefix", ["--tri", "--se", "--ou"])
    def test_abbreviated_flag_is_an_unrecognized_argument(self, capsys, prefix):
        with pytest.raises(SystemExit) as exc:
            run("gradcheck", prefix, "1")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {prefix} 1" in capsys.readouterr().err

    def test_optional_report_file(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run("gradcheck", "--trials", 1, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["trials"] == 1
        assert out.with_name("audit.manifest.json").exists()


class TestExportEmbeddings:
    def test_identity_w1_reproduces_normalized_inputs(self, tmp_path):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        original = load_word_vectors(data / "embeddings.txt")
        model = load_checkpoint(ckpt, original)
        model = replace(model, w1=np.eye(model.d_f))
        save_checkpoint(model, ckpt)
        out = tmp_path / "mod.txt"
        assert run(*model_args("export-embeddings", data, ckpt, out=out)) == 0
        exported = load_word_vectors(out)
        assert exported.labels == model.labels
        for label in exported.labels:
            np.testing.assert_allclose(
                column(exported, label), column(original, label), atol=1e-12
            )

    def test_row_count_is_class_count(self, tmp_path):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        out = tmp_path / "mod.txt"
        assert run(*model_args("export-embeddings", data, ckpt, out=out)) == 0
        assert len(out.read_text().strip().splitlines()) == 8  # C = s + u


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert run(*train_args(tmp_path, tmp_path / "o.json", embeddings=tmp_path / "missing.txt",
                               meta_map=tmp_path / "m.csv", split=tmp_path / "s.txt",
                               data=tmp_path / "d.jsonl")) == 2

    @pytest.mark.parametrize("damage", ["missing_w1", "truncated", "list_w1", "base64_w1",
                                        "no_newline", "header_list", "trailing_byte",
                                        "nan_W1", "nan_box_weights", "nan_box_bias",
                                        "config_header"])
    def test_malformed_checkpoint_exits_2(self, tmp_path, capsys, damage):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        key = damage.removeprefix("nan_")
        raw = ckpt.read_bytes()
        head, blocks = read_checkpoint(ckpt)
        if damage.startswith("nan_"):
            blocks[key].flat[blocks[key].size // 2] = np.nan
            write_checkpoint(ckpt, head, blocks)
        elif damage == "missing_w1":
            del blocks["W1"]
            write_checkpoint(ckpt, head, blocks)
        elif damage == "config_header":  # the older header that held every training setting
            del head["mode"]
            head["config"] = {"lam": 0.8, "mode": "full", "lr": 1e-3, "n_pos": 4, "n_neg": 4,
                              "epochs": 2, "seed": 0, "min_similar": 0}
            write_checkpoint(ckpt, head, blocks)
        elif damage == "list_w1":  # the format before base64 arrays
            ckpt.write_bytes(legacy_checkpoint_bytes(head, blocks, lambda a: a.ravel().tolist()))
        elif damage == "base64_w1":  # the format before raw array blocks
            ckpt.write_bytes(legacy_checkpoint_bytes(head, blocks, base64_array))
        elif damage == "no_newline":
            ckpt.write_bytes(raw[: raw.index(b"\n")])
        elif damage == "header_list":
            ckpt.write_bytes(b"[]" + raw[raw.index(b"\n"):])
        elif damage == "trailing_byte":
            ckpt.write_bytes(raw + b"\0")
        else:
            ckpt.write_bytes(raw[: len(raw) // 2])
        capsys.readouterr()
        for argv in (
            model_args("predict", data, ckpt, out=tmp_path / "dets.jsonl"),
            model_args("eval", data, ckpt, task="all", out=tmp_path / "reports"),
            model_args("export-embeddings", data, ckpt, out=tmp_path / "mod.txt"),
        ):
            assert run(*argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            if damage in ("list_w1", "base64_w1", "config_header"):
                assert "re-run `zsdet train`" in err
            if damage.startswith("nan_"):
                assert err.startswith(f"error: checkpoint {key} has a non-finite value"), err
        assert not (tmp_path / "dets.jsonl").exists()
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("command, flag", [
        ("train", "--beta1"), ("train", "--beta2"), ("train", "--eps"), ("train", "--fg-iou"),
        ("predict", "--nms-iou"), ("eval", "--nms-iou"), ("eval", "--iou-eval"),
        ("split", "--per-meta"), ("gradcheck", "--h"), ("synth", "--noise-sigma"),
        ("synth", "--meta-spread"),
    ])
    def test_retired_setting_is_an_unrecognized_argument(self, capsys, command, flag):
        required = {
            "train": ["--embeddings", "e", "--meta-map", "m", "--split", "s", "--data", "d"],
            "predict": ["--checkpoint", "c", "--embeddings", "e", "--meta-map", "m", "--data", "d"],
            "split": ["--data", "d", "--meta-map", "m"],
            "gradcheck": [],
            "synth": [],
        }
        with pytest.raises(SystemExit) as exc:
            run(command, *required.get(command, required["predict"]), "--out", "o", flag, "1")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"unrecognized arguments: {flag} 1\n")

    @pytest.mark.parametrize("argv, unrecognized", [
        (["--vers", "synth", "--out", "o"], "--vers"),
        (["synth", "--out", "o", "--see", "1"], "--see 1"),
        (["split", "--data", "d", "--meta-map", "m", "--out", "o", "--exc", "x"], "--exc x"),
        (["train", "--embeddings", "e", "--meta-map", "m", "--split", "s", "--data", "d",
          "--out", "o", "--epoch", "1"], "--epoch 1"),
        (["predict", "--checkpoint", "c", "--embeddings", "e", "--meta-map", "m",
          "--data", "d", "--out", "o", "--alph", "0"], "--alph 0"),
        (["eval", "--checkpoint", "c", "--embeddings", "e", "--meta-map", "m",
          "--data", "d", "--out", "o", "--tas", "all"], "--tas all"),
        (["gradcheck", "--out", "o", "--tri", "1"], "--tri 1"),
        (["export-embeddings", "--checkpoint", "c", "--embeddings", "e", "--out", "o",
          "--checkp", "x"], "--checkp x"),
    ], ids=["top-level", "synth", "split", "train", "predict", "eval", "gradcheck",
            "export-embeddings"])
    def test_abbreviated_flag_is_an_unrecognized_argument(self, tmp_path, monkeypatch, capsys,
                                                          argv, unrecognized):
        # a unique prefix of a flag is not that flag, on the top-level parser
        # or on any subcommand's
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"unrecognized arguments: {unrecognized}\n")
        assert not any(tmp_path.iterdir())

    def test_truncated_json_split_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        split = tmp_path / "split.json"
        split.write_text('{"seen_labels": [')
        capsys.readouterr()
        assert run(*train_args(data, tmp_path / "o.json", split=split)) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("damage", [
        "box_3_numbers", "nan_feature", "box_flipped", "gt_box_flipped", "gt_label_number",
        "nan_in_last_image", "header_not_json", "trailing_bytes", "truncated", "count_too_large",
    ])
    def test_bad_dataset_record_exits_2(self, tmp_path, capsys, damage):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        head, features, boxes, gt_boxes = read_dataset(data / "test.jsonl")
        image = head["images"][0]
        bad = tmp_path / "bad.jsonl"
        named = "image 0 ('test0000'): "
        if damage == "box_3_numbers":  # the first ground-truth box: the block ends short
            gt_boxes = gt_boxes.ravel()[1:]
            named = "dataset holds "
        elif damage == "gt_box_flipped":
            gt_boxes[0, [0, 2]] = gt_boxes[0, [2, 0]]
        elif damage == "gt_label_number":
            image["gt_labels"][1] = 3
            named += "ground-truth label 1 must be a string, got 3"
        elif damage == "box_flipped":
            boxes[0, [0, 2]] = boxes[0, [2, 0]]
        elif damage == "nan_feature":
            features[0, 0] = np.nan
        elif damage == "nan_in_last_image":
            features[-1, -1] = np.nan
            named = f"image {len(head['images']) - 1} ('{head['images'][-1]['image_id']}'): "
        elif damage == "count_too_large":
            image["proposals"] += 1
            named = "dataset holds "
        write_dataset(bad, head, features, boxes, gt_boxes)
        if damage == "header_not_json":
            bad.write_bytes(b"{" + bad.read_bytes())
            named = "invalid dataset header JSON: "
        elif damage == "trailing_bytes":
            bad.write_bytes(bad.read_bytes() + b"\0")
            named = "dataset holds "
        elif damage == "truncated":
            bad.write_bytes(bad.read_bytes()[:-8])
            named = "dataset holds "
        capsys.readouterr()
        assert run(*model_args("predict", data, ckpt, data=bad, out=tmp_path / "dets.jsonl")) == 2
        assert capsys.readouterr().err.startswith("error: " + named)

    def test_repeated_image_id_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        head, features, boxes, gt_boxes = read_dataset(data / "test.jsonl")
        head["images"].append(head["images"][1])
        bad = tmp_path / "bad.jsonl"
        write_dataset(bad, head, np.concatenate([features, features[8:16]]),
                      np.concatenate([boxes, boxes[8:16]]),
                      np.concatenate([gt_boxes, gt_boxes[2:4]]))
        capsys.readouterr()
        assert run(*model_args("predict", data, ckpt, data=bad, out=tmp_path / "dets.jsonl")) == 2
        assert capsys.readouterr().err == (f"error: image {len(head['images']) - 1} "
                                           "('test0001'): repeats the id of image 1\n")

    def test_dataset_with_ground_truths_in_the_header_exits_2(self, tmp_path, capsys):
        # the earlier layout: each image's ground truths as ``gts``, a list of
        # ``{label, box}``, and two blocks
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        head, features, boxes, gt_boxes = read_dataset(data / "test.jsonl")
        rows = iter(gt_boxes.tolist())
        for image in head["images"]:
            image["gts"] = [{"label": label, "box": next(rows)}
                            for label in image.pop("gt_labels")]
        old = tmp_path / "old.jsonl"
        old.write_bytes(block_file_bytes(head, (features, boxes)))
        capsys.readouterr()
        assert run(*model_args("eval", data, ckpt, data=old, out=tmp_path / "reports")) == 2
        assert capsys.readouterr().err == "error: image 0 ('test0000'): missing field 'gt_labels'\n"

    @pytest.mark.parametrize("name", ["embeddings.txt", "meta_map.csv", "oracle.json",
                                      "train.jsonl"],
                             ids=["word_vectors", "meta_map", "split", "dataset"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, name):
        data = synth(tmp_path)
        path = data / name
        if name == "train.jsonl":  # the dataset's text is its header line
            path.write_bytes(path.read_bytes().replace(b'"class001"', b'"class\xff\xfe001"', 1))
            expected = "invalid dataset header JSON: 'utf-8' codec can't decode byte 0xff"
        else:
            path.write_bytes(path.read_bytes() + b"\xff\xfe\n")
            expected = "is not UTF-8 text"
        capsys.readouterr()
        assert run(*train_args(data, tmp_path / "o.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert expected in err

    @pytest.mark.parametrize("inference", ["san", "conse"])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, tmp_path, capsys, inference, alpha):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        capsys.readouterr()
        assert run(*model_args("predict", data, ckpt, inference=inference, k=3, alpha=alpha,
                               out=tmp_path / "dets.jsonl")) == 2
        assert capsys.readouterr().err.startswith("error: alpha must be a finite number")

    def test_embeddings_averaging_to_zero_exit_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        labels = [line.split()[0] for line in (data / "embeddings.txt").read_text().splitlines()]
        # class 2k is +e_k and class 2k+1 is -e_k: the unit vectors sum to zero
        rows = np.arange(len(labels))
        vectors = np.zeros((len(labels), 6))
        vectors[rows, rows // 2] = np.where(rows % 2, -1.0, 1.0)
        (data / "embeddings.txt").write_text(
            "".join(f"{label} {' '.join(map(str, v))}\n" for label, v in zip(labels, vectors)))
        capsys.readouterr()
        assert run(*model_args("predict", data, ckpt, alpha=0.0, out=tmp_path / "dets.jsonl")) == 2
        assert "background has zero norm" in capsys.readouterr().err
        assert not (tmp_path / "dets.jsonl").exists()

    @pytest.mark.parametrize("task", ["all", "T3"])
    def test_eval_refused_while_scoring_writes_no_report_directory(self, tmp_path, capsys, task):
        data, short = synth(tmp_path), synth(tmp_path, "short", d_f=5)
        ckpt = quick_train(tmp_path, data)
        out = tmp_path / "reports"
        capsys.readouterr()
        assert run(*model_args("eval", data, ckpt, data=short / "test.jsonl", task=task,
                               out=out)) == 2
        assert capsys.readouterr().err == "error: feature length 5 != d_f 6\n"
        assert not out.exists()

    @pytest.mark.parametrize("task", ["T3", "T4"])
    @pytest.mark.parametrize("knob", [
        (("--alpha", "nan"), "alpha must be a finite number"),
        (("--inference", "conse", "--k", "0"), "K must be in 1..6, got 0"),
        (("--inference", "conse", "--k", "7"), "K must be in 1..6, got 7"),
    ])
    def test_tagging_eval_checks_route_knobs_before_scoring(
            self, tmp_path, capsys, monkeypatch, task, knob):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)

        def never(*args, **kwargs):
            raise AssertionError(f"scored an image before checking {knob[0]}")

        monkeypatch.setattr("zsdet.cli.tag_image", never)
        capsys.readouterr()
        assert run(*model_args("eval", data, ckpt, task=task, out=tmp_path / "reports"),
                   *knob[0]) == 2
        assert capsys.readouterr().err.startswith(f"error: {knob[1]}")
        assert not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("knob", [
        ("--inference", "conse", "--k", "0"),
        ("--inference", "conse", "--k", "7"),
        ("--alpha", "nan"),
    ])
    def test_imageless_predict_checks_route_knobs(self, tmp_path, capsys, knob):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        head, features, boxes, gt_boxes = read_dataset(data / "test.jsonl")
        header_only = tmp_path / "header.jsonl"
        write_dataset(header_only, head | {"images": []}, features[:0], boxes[:0], gt_boxes[:0])
        capsys.readouterr()
        assert run(*model_args("predict", data, ckpt, data=header_only,
                               out=tmp_path / "dets.jsonl"), *knob) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "dets.jsonl").exists()

    def test_train_label_outside_label_space_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        lines = (data / "embeddings.txt").read_text().splitlines()
        (data / "embeddings.txt").write_text(
            "".join(line + "\n" for line in lines if not line.startswith("class006 "))
        )
        oracle = json.loads((data / "oracle.json").read_text())
        split = tmp_path / "split.json"
        split.write_text(json.dumps({
            "seen_labels": [l for l in oracle["seen_labels"] if l != "class006"],
            "unseen_labels": oracle["unseen_labels"],
        }))
        capsys.readouterr()
        assert run(*train_args(data, tmp_path / "o.json", split=split)) == 2
        assert capsys.readouterr().err.startswith(
            "error: ground-truth label 'class006' in image train")
        assert not (tmp_path / "o.json").exists()

    def test_train_set_with_an_unseen_instance_exits_2_with_only_the_error(self, tmp_path):
        # a process of its own, so that stderr holds any warning printed first:
        # the leak check runs before rebalancing, which would warn that one
        # object per image leaves every meta-class without a seen instance
        data = synth(tmp_path, proposals_per_image=4)
        head = read_dataset(data / "test.jsonl")[0]
        first = head["images"][0]
        out = zsdet_process(*train_args(data, tmp_path / "o.json", data=data / "test.jsonl"))
        assert out.returncode == 2
        assert out.stderr == (f"error: train dataset leaks unseen class "
                              f"{first['gt_labels'][0]!r} in image {first['image_id']}\n")
        assert not (tmp_path / "o.json").exists()

    def test_eval_label_outside_label_space_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        head, features, boxes, gt_boxes = read_dataset(data / "test.jsonl")
        rec = head["images"][2]
        rec["gt_labels"][-1] = "no_such_class"
        write_dataset(data / "test.jsonl", head, features, boxes, gt_boxes)
        capsys.readouterr()
        assert run(*model_args("eval", data, ckpt, out=tmp_path / "reports")) == 2
        assert capsys.readouterr().err == (f"error: ground-truth label 'no_such_class' in image "
                                           f"{rec['image_id']} not in label space\n")

    def test_eval_set_without_unseen_ground_truth_exits_2_before_scoring(
            self, tmp_path, capsys, monkeypatch):
        # the train set holds seen classes only; predict needs no ground truth
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        train_set = data / "train.jsonl"
        assert run(*model_args("predict", data, ckpt, data=train_set,
                               out=tmp_path / "dets.jsonl")) == 0

        def never(*args, **kwargs):
            raise AssertionError("scored an image of a set without unseen ground truth")

        for name in ("detect", "conse_detect", "tag_image"):
            monkeypatch.setattr(f"zsdet.cli.{name}", never)
        capsys.readouterr()
        out = tmp_path / "reports"
        assert run(*model_args("eval", data, ckpt, data=train_set, out=out)) == 2
        assert capsys.readouterr().err == ("error: the test set holds no ground truth of an "
                                           "unseen class, so T1-T4 have no class to score\n")
        assert not out.exists()

    @staticmethod
    def seen_all_checkpoint(tmp_path, data):
        """A trained checkpoint edited to hold no unseen class, its box head
        zero-padded for the classes that became seen."""
        ckpt = quick_train(tmp_path, data)
        head, blocks = read_checkpoint(ckpt)
        head.update(S=len(head["labels"]), U=0)
        pad = 4 * head["S"] - blocks["box_bias"].size
        blocks.update(box_weights=np.pad(blocks["box_weights"], ((0, 0), (0, pad))),
                      box_bias=np.pad(blocks["box_bias"], (0, pad)))
        write_checkpoint(ckpt, head, blocks)
        return ckpt, "got 8 seen and 0 unseen"

    @staticmethod
    def unseen_all_checkpoint(tmp_path, data):
        """A trained checkpoint edited to hold no seen class."""
        ckpt = quick_train(tmp_path, data)
        head, blocks = read_checkpoint(ckpt)
        head.update(S=0, U=len(head["labels"]))
        blocks.update(box_weights=np.zeros((head["d_f"], 0)), box_bias=np.zeros(0))
        write_checkpoint(ckpt, head, blocks)
        return ckpt, "got 0 seen and 8 unseen"

    @pytest.mark.parametrize("make", ["seen_all_checkpoint", "unseen_all_checkpoint"])
    @pytest.mark.parametrize("inference", ["san", "conse"])
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_empty_seen_or_unseen_set_exits_2_before_scoring(
            self, tmp_path, capsys, monkeypatch, make, inference, command):
        data = synth(tmp_path)
        ckpt, counts = getattr(self, make)(tmp_path, data)

        def never(*args, **kwargs):
            raise AssertionError("scored an image with an empty seen or unseen set")

        for name in ("detect", "conse_detect", "tag_image"):
            monkeypatch.setattr(f"zsdet.cli.{name}", never)
        capsys.readouterr()
        out = tmp_path / ("dets.jsonl" if command == "predict" else "reports")
        assert run(*model_args(command, data, ckpt, inference=inference, k=1, out=out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the checkpoint needs at least one seen and one unseen")
        assert counts in err
        assert not out.exists()

    @pytest.mark.parametrize("token", ["inf", "nan"])
    def test_non_finite_word_vector_exits_2(self, tmp_path, capsys, token):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        lines = (data / "embeddings.txt").read_text().splitlines()
        parts = lines[6].split()
        lines[6] = " ".join([parts[0], token, *parts[2:]])
        (data / "embeddings.txt").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(*model_args("predict", data, ckpt, alpha=0.0, out=tmp_path / "dets.jsonl")) == 2
        assert capsys.readouterr().err.startswith(
            f"error: line 7: record {parts[0]!r} has a non-finite component")
        assert not (tmp_path / "dets.jsonl").exists()

    @pytest.mark.parametrize("record", [{"seen_labels": 5, "unseen_labels": []},
                                        {"seen_labels": [1, 2], "unseen_labels": [3]}],
                             ids=["not_a_list", "integer_labels"])
    def test_split_labels_not_strings_exit_2(self, tmp_path, capsys, record):
        data = synth(tmp_path)
        split = tmp_path / "split.json"
        split.write_text(json.dumps(record))
        capsys.readouterr()
        assert run(*train_args(data, tmp_path / "o.json", split=split)) == 2
        assert capsys.readouterr().err.startswith(
            "error: JSON split record needs 'seen_labels' as a list of strings")

    def test_split_with_negative_seed_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        capsys.readouterr()
        assert run("split", "--data", data / "train.jsonl", "--meta-map", data / "meta_map.csv",
                   "--seed", -1, "--out", tmp_path / "split.txt") == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("knob", [("--lr", "nan"), ("--lr", "inf")])
    def test_non_finite_train_knob_exits_2(self, tmp_path, capsys, knob):
        data = synth(tmp_path)
        capsys.readouterr()
        assert run(*train_args(data, tmp_path / "o.json"), *knob) == 2
        assert capsys.readouterr().err.startswith(f"error: {knob[0][2:]} must be")

    def test_conse_k_out_of_range_exits_2_on_all_zero_features(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        head, features, boxes, gt_boxes = read_dataset(data / "test.jsonl")
        zeros = tmp_path / "zeros.jsonl"
        write_dataset(zeros, head, np.zeros_like(features), boxes, gt_boxes)
        capsys.readouterr()
        assert run(*model_args("predict", data, ckpt, data=zeros, inference="conse", k=0,
                               out=tmp_path / "dets.jsonl")) == 2
        assert capsys.readouterr().err.startswith("error: K must be in 1..")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required args
        assert exc.value.code == 2


class TestStderr:
    """A run's stderr holds its ``error:`` and ``warning:`` lines only."""

    @staticmethod
    def lonely_meta_map(tmp_path, data):
        """``data``'s meta map with its first unseen class alone in 'lonely'."""
        unseen = json.loads((data / "oracle.json").read_text())["unseen_labels"][0]
        rows = (data / "meta_map.csv").read_text().splitlines()
        path = tmp_path / "lonely.csv"
        path.write_text("".join((f"{unseen},lonely" if row.split(",")[0] == unseen else row)
                                + "\n" for row in rows))
        return path

    def test_rebalance_warning_is_one_line(self, tmp_path):
        data = synth(tmp_path)
        out = zsdet_process(*train_args(data, tmp_path / "ckpt.json",
                                        meta_map=self.lonely_meta_map(tmp_path, data),
                                        **QUICK_TRAIN | {"min_similar": 4}))
        assert (out.returncode, out.stderr) == (0, "warning: meta-class 'lonely' has no seen "
                                                   "members; its unseen classes stay unsupported\n")

    def test_split_warning_is_one_line(self, tmp_path):
        data = synth(tmp_path)
        out = zsdet_process("split", "--data", data / "train.jsonl",
                            "--meta-map", self.lonely_meta_map(tmp_path, data),
                            "--out", tmp_path / "split.json")
        assert (out.returncode, out.stderr) == (0, "warning: meta-class 'lonely' has fewer than "
                                                   "two members; no unseen pick\n")

    def test_overflowing_step_prints_only_its_error(self, tmp_path):
        data = synth(tmp_path)
        out = zsdet_process(*train_args(data, tmp_path / "ckpt.json", **QUICK_TRAIN | {"lr": 1e308}))
        assert (out.returncode, out.stderr) == (
            2, "error: training step 1: non-finite score (sample 0)\n")

    def test_overflowing_update_prints_only_its_error(self, tmp_path):
        # step 0's update leaves weights near 1e308, so step 1's box offsets overflow
        data = synth(tmp_path, s=3, u=1, m=2, d=4, d_f=4, images=2, test_images=1,
                     proposals_per_image=4)
        out = zsdet_process(*train_args(data, tmp_path / "ckpt.json", epochs=1, n_pos=2,
                                        n_neg=2, min_similar=0, lr=1e308))
        assert (out.returncode, out.stderr) == (
            2, "error: training step 1: non-finite box offset (sample 0)\n")
        assert not (tmp_path / "ckpt.json").exists()

    def test_huge_regression_offsets_print_nothing(self, tmp_path):
        # the step trains into box offsets whose squares overflow
        data = synth(tmp_path)
        out = zsdet_process(*train_args(data, tmp_path / "ckpt.json", **QUICK_TRAIN | {"lr": 1e300}))
        assert (out.returncode, out.stderr) == (0, "")
