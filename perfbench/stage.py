"""Run one zsdet CLI stage in this process, optionally traced.

Usage::

    python3 perfbench/stage.py [--trace SPANS_JSON] -- <zsdet arguments>

Without ``--trace`` this is ``zsdet <arguments>`` run from the checkout's
``src``.  With ``--trace`` the public functions listed in ``WRAPPED`` are
replaced, at the binding their caller looks up, by wrappers that record one
span per call (name, start, end, parent).  Counts are taken from call
arguments and return values only.  Spans stay in memory and are written to
SPANS_JSON when the stage ends.  The whole ``zsdet.cli.main`` call is the
root span ``cli.<subcommand>``.

Spans keep their parent on one stack, so they assume a single-threaded
stage; the benchmark leaves ``ZSD_THREADS`` unset for that reason.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _count_load(c, a, out):
    c["data.load_dataset.bytes"] += os.path.getsize(a["path"])


def _count_rebalance(c, a, out):
    c["train.rebalance.images_added"] += len(out.images) - len(a["dataset"].images)


def _count_loss(c, a, out):
    c["train.samples"] += len(a["batch"])


def _count_adam(c, a, out):
    c["train.steps"] += 1


def _count_save_ckpt(c, a, out):
    c["model.checkpoint_bytes"] = os.path.getsize(a["path"])


def _count_scored(c, a, out):
    c["infer.proposals_scored"] += len(a["proposals"])


def _counter_route(route):
    def count(c, a, out):
        c["infer.proposals_in"] += len(a["proposals"])
        c[f"{route}.detections_out"] += len(out)
        _count_scored(c, a, out)

    return count


def _count_nms(c, a, out):
    c["evaluation.nms.in"] += len(a["detections"])
    c["evaluation.nms.kept"] += len(out)


# (module, attribute the caller looks up, span name, counter or None)
WRAPPED = (
    ("zsdet.cli", "generate_synthetic", "data.generate_synthetic", None),
    ("zsdet.cli", "save_dataset", "data.save_dataset", None),
    ("zsdet.cli", "load_dataset", "data.load_dataset", _count_load),
    ("zsdet.cli", "train", "train.train", None),
    ("zsdet.train", "rebalance_dataset", "train.rebalance_dataset", _count_rebalance),
    ("zsdet.train", "label_proposals", "train.label_proposals", None),
    ("zsdet.train", "compose_batch", "train.compose_batch", None),
    ("zsdet.train", "loss_gradients", "loss.loss_gradients", _count_loss),
    ("zsdet.train", "adam_step", "train.adam_step", _count_adam),
    ("zsdet.cli", "save_checkpoint", "model.save_checkpoint", _count_save_ckpt),
    ("zsdet.cli", "load_checkpoint", "model.load_checkpoint", None),
    ("zsdet.cli", "detect", "infer.detect", _counter_route("infer.detect")),
    ("zsdet.cli", "conse_detect", "infer.conse_detect", _counter_route("infer.conse_detect")),
    ("zsdet.cli", "tag_image", "infer.tag_image", _count_scored),
    ("zsdet.cli", "dump_detections", "infer.dump_detections", None),
    ("zsdet.infer", "nms", "evaluation.nms", _count_nms),
    ("zsdet.evaluation", "average_precision", "evaluation.average_precision", None),
    ("zsdet.cli", "evaluate", "evaluation.evaluate", None),
)


class Tracer:
    """In-memory span and count recorder."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, out)
            return out

        return wrapper

    def install(self) -> None:
        for module_name, attr, name, counter in WRAPPED:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), counter))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    if argv[:1] != ["--"]:
        print("usage: stage.py [--trace SPANS_JSON] -- <zsdet arguments>", file=sys.stderr)
        return 2
    argv = argv[1:]
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("zsdet.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        print(f"error: zsdet imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if trace_out is None:
        return cli.main(argv)
    tracer = Tracer()
    tracer.install()
    root = tracer.wrap(f"cli.{argv[0]}", cli.main)
    try:
        return root(argv)
    finally:
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
