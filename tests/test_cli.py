import builtins
import csv
import hashlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import zsdet
import zsdet.errors
import zsdet.train
from zsdet.cli import build_parser, main
from zsdet.data import SynthConfig, generate_synthetic, load_split
from zsdet.evaluation import TASKS
from zsdet.model import load_checkpoint, save_checkpoint
from zsdet.semantics import load_word_vectors
from zsdet.train import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, FG_IOU

from conftest import (
    adam_cpus,
    base64_array,
    block_file_bytes,
    column,
    legacy_checkpoint_bytes,
    read_checkpoint,
    read_dataset,
    write_checkpoint,
    write_dataset,
)

SYNTH_FILES = ["embeddings.txt", "meta_map.csv", "train.jsonl", "test.jsonl", "oracle.json"]


def run(*argv):
    return main([str(a) for a in argv])


def synth(tmp_path, name="data", seed=0, **extra):
    out = tmp_path / name
    args = ["synth", "--out", out, "--seed", seed, "--s", 6, "--u", 2, "--m", 2,
            "--d", 6, "--d-f", 6, "--images", 12, "--test-images", 6,
            "--proposals-per-image", 8]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    assert run(*args) == 0
    return out


def quick_train(tmp_path, data, name="ckpt.json", **extra):
    out = tmp_path / name
    args = [
        "train", "--embeddings", data / "embeddings.txt", "--meta-map", data / "meta_map.csv",
        "--split", data / "oracle.json", "--data", data / "train.jsonl", "--out", out,
        "--epochs", 2, "--lr", 1e-3, "--n-pos", 4, "--n-neg", 4, "--min-similar", 0,
    ]
    for key, value in extra.items():
        args += [f"--{key.replace('_', '-')}", value]
    assert run(*args) == 0
    return out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        (("--noise-sigma", "nan"), "noise_sigma must be a finite number >= 0, got nan"),
        (("--noise-sigma", "inf"), "noise_sigma must be a finite number >= 0, got inf"),
        (("--meta-spread", "nan"), "meta_spread must be a finite number >= 0, got nan"),
        (("--meta-spread", "inf"), "meta_spread must be a finite number >= 0, got inf"),
        (("--noise-sigma", "1e308"), "noise_sigma 1e+308 is too large: proposal features overflow"),
        (("--meta-spread", "1e308"),
         "meta_spread 1e+308 is too large: a class vector's norm overflows"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
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
        assert "g_map" in bundle.oracle
        assert oracle == {k: v for k, v in bundle.oracle.items() if k != "g_map"}


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


class TestPredictAndEval:
    def test_predict_writes_jsonl(self, tmp_path):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        out = tmp_path / "dets.jsonl"
        assert run("predict", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--alpha", 0.1, "--out", out) == 0
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            assert set(rec) == {"image_id", "label", "score", "box"}

    def test_eval_all_tasks_writes_four_reports(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        out = tmp_path / "reports"
        assert run("eval", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--task", "all", "--alpha", 0.1, "--out", out) == 0
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
        common = ["--embeddings", data / "embeddings.txt", "--meta-map", data / "meta_map.csv",
                  "--data", data / "test.jsonl", "--task", "all", "--alpha", 0.1]
        assert run("eval", "--checkpoint", ckpt.name, *common, "--out", "rel") == 0
        assert run("eval", "--checkpoint", ckpt.resolve(), *common, "--out", "abs") == 0
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
        assert run("eval", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--task", "T1", "--inference", "conse", "--k", 3, "--alpha", 0.1,
                   "--out", out) == 0
        assert (out / "report_T1.json").exists()
        assert not (out / "report_T2.json").exists()

    def test_san_on_seen_only_checkpoint_warns(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data, mode="seen_only", **{"lambda": 1.0})
        out = tmp_path / "reports"
        assert run("eval", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--task", "T1", "--inference", "san", "--alpha", 0.1,
                   "--out", out) == 0
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
        common = ["--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                  "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl"]
        for argv in (["predict", *common, "--out", tmp_path / "dets.jsonl"],
                     ["eval", *common, "--task", "T1", "--out", tmp_path / "reports"]):
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
        (("--h", "0"), "h must be a positive finite number, got 0.0"),
        (("--h", "nan"), "h must be a positive finite number, got nan"),
        (("--h=-1e-5",), "h must be a positive finite number, got -1e-05"),
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_step_too_large_for_a_finite_loss_exits_2_naming_h(self, capsys):
        assert run("gradcheck", "--trials", 1, "--h", "1e308") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: h is too large, got 1e+308: the loss at a parameter "
                              "moved by h is not finite")

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
        model.w1 = np.eye(model.d_f)
        save_checkpoint(model, ckpt)
        out = tmp_path / "mod.txt"
        assert run("export-embeddings", "--checkpoint", ckpt, "--embeddings",
                   data / "embeddings.txt", "--out", out) == 0
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
        assert run("export-embeddings", "--checkpoint", ckpt, "--embeddings",
                   data / "embeddings.txt", "--out", out) == 0
        assert len(out.read_text().strip().splitlines()) == 8  # C = s + u


class TestExitCodes:
    def test_missing_file_is_config_error(self, tmp_path, capsys):
        assert run("train", "--embeddings", tmp_path / "missing.txt",
                   "--meta-map", tmp_path / "m.csv", "--split", tmp_path / "s.txt",
                   "--data", tmp_path / "d.jsonl", "--out", tmp_path / "o.json") == 2

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
        common = ["--checkpoint", ckpt, "--embeddings", data / "embeddings.txt"]
        inputs = ["--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl"]
        for argv in (
            ["predict", *common, *inputs, "--out", tmp_path / "dets.jsonl"],
            ["eval", *common, *inputs, "--task", "all", "--out", tmp_path / "reports"],
            ["export-embeddings", *common, "--out", tmp_path / "mod.txt"],
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
        ("split", "--per-meta"),
    ])
    def test_retired_setting_is_an_unrecognized_argument(self, capsys, command, flag):
        required = {
            "train": ["--embeddings", "e", "--meta-map", "m", "--split", "s", "--data", "d"],
            "predict": ["--checkpoint", "c", "--embeddings", "e", "--meta-map", "m", "--data", "d"],
            "split": ["--data", "d", "--meta-map", "m"],
        }
        with pytest.raises(SystemExit) as exc:
            run(command, *required.get(command, required["predict"]), "--out", "o", flag, "1")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"unrecognized arguments: {flag} 1\n")

    def test_truncated_json_split_exits_2(self, tmp_path, capsys):
        data = synth(tmp_path)
        split = tmp_path / "split.json"
        split.write_text('{"seen_labels": [')
        capsys.readouterr()
        assert run("train", "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--split", split,
                   "--data", data / "train.jsonl", "--out", tmp_path / "o.json") == 2
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
        assert run("predict", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", bad,
                   "--out", tmp_path / "dets.jsonl") == 2
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
        assert run("predict", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", bad,
                   "--out", tmp_path / "dets.jsonl") == 2
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
        assert run("eval", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", old,
                   "--out", tmp_path / "reports") == 2
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
        assert run("train", "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--split", data / "oracle.json",
                   "--data", data / "train.jsonl", "--out", tmp_path / "o.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert expected in err

    @pytest.mark.parametrize("inference", ["san", "conse"])
    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_non_finite_alpha_exits_2(self, tmp_path, capsys, inference, alpha):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        capsys.readouterr()
        assert run("predict", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--inference", inference, "--k", 3, "--alpha", alpha,
                   "--out", tmp_path / "dets.jsonl") == 2
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
        assert run("predict", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--alpha", 0.0, "--out", tmp_path / "dets.jsonl") == 2
        assert "background has zero norm" in capsys.readouterr().err
        assert not (tmp_path / "dets.jsonl").exists()

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
        assert run("eval", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--task", task, *knob[0], "--out", tmp_path / "reports") == 2
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
        assert run("predict", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", header_only, *knob,
                   "--out", tmp_path / "dets.jsonl") == 2
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
        assert run("train", "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--split", split,
                   "--data", data / "train.jsonl", "--out", tmp_path / "o.json") == 2
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
        src = str(Path(zsdet.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-m", "zsdet.cli", "train", "--embeddings", data / "embeddings.txt",
             "--meta-map", data / "meta_map.csv", "--split", data / "oracle.json",
             "--data", data / "test.jsonl", "--out", tmp_path / "o.json"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
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
        assert run("eval", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--out", tmp_path / "reports") == 2
        assert capsys.readouterr().err == (f"error: ground-truth label 'no_such_class' in image "
                                           f"{rec['image_id']} not in label space\n")

    def test_eval_set_without_unseen_ground_truth_exits_2_before_scoring(
            self, tmp_path, capsys, monkeypatch):
        # the train set holds seen classes only; predict needs no ground truth
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        model = ["--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                 "--meta-map", data / "meta_map.csv", "--data", data / "train.jsonl"]
        assert run("predict", *model, "--out", tmp_path / "dets.jsonl") == 0

        def never(*args, **kwargs):
            raise AssertionError("scored an image of a set without unseen ground truth")

        for name in ("detect", "conse_detect", "tag_image"):
            monkeypatch.setattr(f"zsdet.cli.{name}", never)
        capsys.readouterr()
        out = tmp_path / "reports"
        assert run("eval", *model, "--out", out) == 2
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
        assert run(command, "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--inference", inference, "--k", 1, "--out", out) == 2
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
        assert run("predict", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", data / "test.jsonl",
                   "--alpha", 0.0, "--out", tmp_path / "dets.jsonl") == 2
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
        assert run("train", "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--split", split,
                   "--data", data / "train.jsonl", "--out", tmp_path / "o.json") == 2
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
        assert run("train", "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--split", data / "oracle.json",
                   "--data", data / "train.jsonl", "--out", tmp_path / "o.json",
                   *knob) == 2
        assert capsys.readouterr().err.startswith(f"error: {knob[0][2:]} must be")

    def test_conse_k_out_of_range_exits_2_on_all_zero_features(self, tmp_path, capsys):
        data = synth(tmp_path)
        ckpt = quick_train(tmp_path, data)
        head, features, boxes, gt_boxes = read_dataset(data / "test.jsonl")
        zeros = tmp_path / "zeros.jsonl"
        write_dataset(zeros, head, np.zeros_like(features), boxes, gt_boxes)
        capsys.readouterr()
        assert run("predict", "--checkpoint", ckpt, "--embeddings", data / "embeddings.txt",
                   "--meta-map", data / "meta_map.csv", "--data", zeros,
                   "--inference", "conse", "--k", 0, "--out", tmp_path / "dets.jsonl") == 2
        assert capsys.readouterr().err.startswith("error: K must be in 1..")

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required args
        assert exc.value.code == 2
