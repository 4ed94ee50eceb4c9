"""Batch command-line surface for the zero-shot detection pipeline.

Subcommands: ``synth`` (generate a synthetic benchmark), ``split`` (propose
a seen/unseen split), ``train``, ``predict`` (dump detections), ``eval``
(four-task report), ``gradcheck`` (finite-difference audit), and
``export-embeddings`` (modified class vectors for external plotting).

Every run writes a manifest beside its outputs.  Exit codes: 0 success,
1 verification failure, 2 usage, config or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .audit import gradient_audit
from .data import (
    Dataset,
    SynthConfig,
    generate_synthetic,
    ground_truth_rows,
    load_dataset,
    load_split,
    propose_split,
    save_dataset,
    save_meta_map,
    save_split,
)
from .errors import ConfigError, ZsdetError, check_finite, check_seed
from .evaluation import (
    TASKS,
    evaluate,
    render_report,
    report_to_dict,
)
from .infer import Detections, check_k, conse_detect, detect, dump_detections, tag_image
from .model import Model, load_checkpoint, modified_embeddings, save_checkpoint
from .semantics import (
    LabelSpace,
    build_label_space,
    load_meta_map,
    load_word_vectors,
    save_word_vectors,
)
from .train import TrainConfig, train, write_loss_history


def _write_manifest(primary_out: Path, subcommand: str, args: argparse.Namespace,
                    outputs: list[str]) -> None:
    if primary_out.is_dir():
        path = primary_out / "manifest.json"
    else:
        path = primary_out.with_name(primary_out.stem + ".manifest.json")
    folder = path.parent
    config = {
        k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")
    }
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "outputs": outputs,
        "output_bytes": {name: (folder / name).stat().st_size for name in outputs},
        "seed": config.get("seed"),
        "version": __version__,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, default=str)
        f.write("\n")


def _check_seen_and_unseen(space: LabelSpace, source: str) -> None:
    """Refuse a label space that no zero-shot route can score."""
    if not (space.S and space.U):
        raise ConfigError(f"{source} needs at least one seen and one unseen class, "
                          f"got {space.S} seen and {space.U} unseen")


def _model_and_space(args) -> tuple[Model, LabelSpace]:
    """The checkpoint's model and label space, with the class counts and the
    route settings checked before any image is scored (``eval --task T3`` or
    ``T4`` alone never reaches the routes that check them)."""
    model = load_checkpoint(args.checkpoint, load_word_vectors(args.embeddings))
    space = build_label_space(
        model.labels[: model.n_seen], model.labels[model.n_seen :],
        load_meta_map(args.meta_map),
    )
    _check_seen_and_unseen(space, "the checkpoint")
    check_finite("alpha", args.alpha)
    if args.inference == "conse":
        check_k(args.k, model.n_seen)
    return model, space


def _detections_for(model, dataset: Dataset, args) -> list[Detections]:
    """One :class:`Detections` per test image, in dataset order."""
    if args.inference == "san" and model.mode == "seen_only":
        print(
            "warning: direct unseen scoring on a seen-only checkpoint; "
            "its unseen embedding columns were never trained (use --inference conse)",
            file=sys.stderr,
        )
    route, k = (conse_detect, {"k": args.k}) if args.inference == "conse" else (detect, {})
    return [route(model, img.proposals, img.image_id, alpha=args.alpha, **k)
            for img in dataset.images]


def _config(cls, args):
    """A ``cls`` config from the same-named arguments."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})


def cmd_synth(args) -> int:
    bundle = generate_synthetic(_config(SynthConfig, args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_word_vectors(out / "embeddings.txt", bundle.table.labels, bundle.table.vectors)
    save_meta_map(bundle.meta_map, out / "meta_map.csv")
    save_dataset(bundle.train, out / "train.jsonl")
    save_dataset(bundle.test, out / "test.jsonl")
    with open(out / "oracle.json", "w", encoding="utf-8") as f:
        f.write(json.dumps(bundle.oracle) + "\n")
    outputs = ["embeddings.txt", "meta_map.csv", "train.jsonl", "test.jsonl", "oracle.json"]
    _write_manifest(out, "synth", args, outputs)
    print(f"wrote {', '.join(outputs)} to {out}")
    return 0


def cmd_split(args) -> int:
    meta_map = load_meta_map(args.meta_map)
    check_seed(args.seed)
    dataset = load_dataset(args.data)
    exclude = [t for t in args.exclude.split(",") if t] if args.exclude else []
    seen, unseen = propose_split(
        dataset.class_stats(), meta_map, rng=np.random.default_rng(args.seed), exclude=exclude,
    )
    out = Path(args.out)
    save_split(seen, unseen, out)
    _write_manifest(out, "split", args, [out.name])
    print(f"{len(seen)} seen / {len(unseen)} unseen -> {out}")
    return 0


def cmd_train(args) -> int:
    table = load_word_vectors(args.embeddings)
    seen, unseen = load_split(args.split)
    space = build_label_space(seen, unseen, load_meta_map(args.meta_map))
    _check_seen_and_unseen(space, "the split")
    config = _config(TrainConfig, args)
    w2 = table.w2(space.labels)
    dataset = load_dataset(args.data)
    model, history = train(dataset, w2, space, config)
    out = Path(args.out)
    save_checkpoint(model, out)
    loss_csv = out.with_name(out.stem + ".loss.csv")
    write_loss_history(history, loss_csv)
    _write_manifest(out, "train", args, [out.name, loss_csv.name])
    if len(history):
        print(f"trained {len(history)} steps (final total loss {history[-1, 4]:.6f}) -> {out}")
    else:
        print(f"wrote untrained checkpoint (0 steps in {config.epochs} epochs) -> {out}")
    return 0


def cmd_predict(args) -> int:
    model, _ = _model_and_space(args)  # the meta map is checked, though detection needs none
    dataset = load_dataset(args.data)
    detections = _detections_for(model, dataset, args)
    out = Path(args.out)
    dump_detections(detections, out, model.labels)
    _write_manifest(out, "predict", args, [out.name])
    print(f"{sum(map(len, detections))} detections -> {out}")
    return 0


def cmd_eval(args) -> int:
    model, space = _model_and_space(args)
    dataset = load_dataset(args.data)
    gts = ground_truth_rows(dataset, space)
    if not (gts[1] > space.S).any():
        raise ConfigError("the test set holds no ground truth of an unseen class, "
                          "so T1-T4 have no class to score")
    tasks = list(TASKS) if args.task == "all" else [args.task]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    text_blocks = []
    # each kind of model output is computed once, when a task first needs it
    detections = cache(lambda: _detections_for(model, dataset, args))
    tags = cache(lambda: ([img.image_id for img in dataset.images], np.reshape(
        [tag_image(model, img.proposals) for img in dataset.images], (-1, model.n_unseen))))
    for task in tasks:
        model_outputs = detections() if task in ("T1", "T2") else tags()
        report = evaluate(model_outputs, gts, space, task)
        report_path = out / f"report_{task}.json"
        with open(report_path, "w", encoding="utf-8") as f:
            json.dump(report_to_dict(report), f, indent=2)
            f.write("\n")
        outputs.append(report_path.name)
        text_blocks.append(render_report(report))
    text = "\n\n".join(text_blocks) + "\n"
    with open(out / "report.txt", "w", encoding="utf-8") as f:
        f.write(text)
    outputs.append("report.txt")
    _write_manifest(out, "eval", args, outputs)
    print(text, end="")
    return 0


def cmd_gradcheck(args) -> int:
    result = gradient_audit(trials=args.trials, seed=args.seed)
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}: max relative error {result.max_rel_err:.3e} "
        f"over {result.trials} trials (tolerance 1e-4)"
    )
    if args.out:
        out = Path(args.out)
        with open(out, "w", encoding="utf-8") as f:
            json.dump(
                {"passed": result.passed, "max_rel_err": result.max_rel_err,
                 "trials": result.trials},
                f,
            )
            f.write("\n")
        _write_manifest(out, "gradcheck", args, [out.name])
    return 0 if result.passed else 1


def cmd_export_embeddings(args) -> int:
    model = load_checkpoint(args.checkpoint, load_word_vectors(args.embeddings))
    out = Path(args.out)
    save_word_vectors(out, model.labels, modified_embeddings(model))
    _write_manifest(out, "export-embeddings", args, [out.name])
    print(f"{len(model.labels)} modified embeddings -> {out}")
    return 0


def _add_common_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", required=True, help="trained checkpoint file")
    p.add_argument("--embeddings", required=True, help="word-vector text file")
    p.add_argument("--meta-map", required=True, help="class,meta CSV")
    p.add_argument("--data", required=True, help="dataset file (as synth writes)")
    p.add_argument("--inference", choices=("san", "conse"), default="san",
                   help="direct unseen scoring (san) or ConSE projection")
    p.add_argument("--alpha", type=float, default=0.2,
                   help="minimum normalized score for emitting a detection")
    p.add_argument("--k", type=int, default=10, help="ConSE top-K")


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations anywhere: a retired flag that prefixes a live one (as
    # ``--h`` did ``--help``) is refused, not read as the live one
    parser = argparse.ArgumentParser(
        prog="zsdet",
        description="zero-shot detection head: synthesize, train, predict, evaluate",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"zsdet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, allow_abbrev=False)

    p = add("synth", "generate a synthetic benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--s", type=int, help="seen class count")
    p.add_argument("--u", type=int, help="unseen class count")
    p.add_argument("--m", type=int, help="meta-class count")
    p.add_argument("--d", type=int, help="embedding dimensionality")
    p.add_argument("--d-f", type=int, help="feature dimensionality")
    p.add_argument("--images", type=int, help="train image count")
    p.add_argument("--test-images", type=int)
    p.add_argument("--proposals-per-image", type=int)
    p.set_defaults(func=cmd_synth, **asdict(SynthConfig()))

    p = add("split", "propose a seen/unseen split")
    p.add_argument("--data", required=True)
    p.add_argument("--meta-map", required=True)
    p.add_argument("--exclude", default="", help="comma-separated metas to skip")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_split)

    p = add("train", "train a checkpoint")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--meta-map", required=True)
    p.add_argument("--split", required=True,
                   help="split file (or synth oracle.json) naming seen/unseen")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--lambda", dest="lam", type=float, help="margin/clustering mixing weight")
    p.add_argument("--mode", choices=("full", "seen_only"))
    p.add_argument("--lr", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--n-pos", type=int)
    p.add_argument("--n-neg", type=int)
    p.add_argument("--min-similar", type=int, help="per-meta rebalance target (0 disables)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train, **asdict(TrainConfig()))

    p = add("predict", "dump detections as JSON-lines")
    _add_common_model_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = add("eval", "run the four-task evaluation")
    _add_common_model_args(p)
    p.add_argument("--task", choices=TASKS + ("all",), default="all")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_eval)

    p = add("gradcheck", "finite-difference gradient audit")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional JSON report path")
    p.set_defaults(func=cmd_gradcheck)

    p = add("export-embeddings", "dump modified class vectors")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZsdetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
