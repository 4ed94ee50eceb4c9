"""Pipeline benchmark for zsdet: synth -> train -> predict -> eval.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--workload all`` runs every workload of BENCHMARK.json in turn, each
printing its own table and result line.

Each stage is one ``zsdet`` process started from this single process, one at
a time (a closed loop with one client), through ``perfbench/stage.py``,
which calls the public entry ``zsdet.cli.main`` on the checkout's ``src``.
BLAS is pinned to one thread and ``ZSD_THREADS`` is unset, so no stage runs
more than one compute thread.

Set-up runs ``zsdet synth`` three times from ``--seed``.  The measured part
repeats a pass of train, then predict and eval, for about ``--seconds`` and
at least twice, and reports each stage's median wall time.  A workload with
``fill_passes`` makes that many passes instead, each repeating predict and
eval until it has taken its share of ``--seconds``.  With ``--trace 1``
untraced and traced passes alternate; the per-layer numbers come from the
traced ones only, and
``trace.<stage>.overhead_s`` is the traced minus the untraced median wall
time of the stage.

Output checks: every repeat of a stage must write byte-equal outputs
(synth files, checkpoint and loss CSV, detection dump, T1-T4 reports); both
inference routes must emit detections; T1 and T3 mAP must equal the values
in ``reference.json`` when it holds the seed; traced counts must repeat
exactly and every expected span must fire.  A stage that exits nonzero or
fails a check counts as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit codes: 0 when every stage
and check passed, 1 otherwise, 2 when the checkout has no zsdet sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ".perfbench"  # relative to ROOT, so outputs do not depend on where the checkout is
STAGE = HERE / "stage.py"
REFERENCE = HERE / "reference.json"

BLAS_THREADS = 1
BLAS_PIN = {var: str(BLAS_THREADS)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
DEADLINE_S = 170.0  # a run must end within 180 s
MAP_TOLERANCE = 1e-9
STAGES = ("train", "predict", "eval")

# name -> unit; the end-to-end metrics of BENCHMARK.json, measured untraced
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "predict_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

# name -> unit; the per-layer metrics of BENCHMARK.json, from traced runs.
# Times are seconds per pipeline pass, summed over the stages that call the layer.
PER_LAYER = {
    "data.load_dataset.s": "s",
    "data.load_dataset.mb_per_s": "MB/s",
    "data.generate_synthetic.s": "s",
    "data.save_dataset.s": "s",
    "train.rebalance_dataset.s": "s",
    "train.rebalance.images_added": "count",
    "train.label_proposals.s": "s",
    "train.compose_batch.s": "s",
    "train.train.self_s": "s",
    "train.steps": "count",
    "train.samples": "count",
    "loss.loss_gradients.s": "s",
    "loss.loss_gradients.ms_p50": "ms",
    "loss.loss_gradients.ms_p99": "ms",
    "train.adam_step.s": "s",
    "train.adam_step.ms_p50": "ms",
    "train.adam_step.ms_p99": "ms",
    "model.save_checkpoint.s": "s",
    "model.checkpoint_bytes": "bytes",
    "model.load_checkpoint.s": "s",
    "infer.detect.s": "s",
    "infer.conse_detect.s": "s",
    "infer.tag_image.s": "s",
    "infer.dump_detections.s": "s",
    "infer.proposals_in": "count",
    "infer.detections_out": "count",
    "infer.detect.detections_out": "count",
    "infer.conse_detect.detections_out": "count",
    "infer.emit_ratio": "ratio",
    "infer.proposals_per_s": "1/s",
    "evaluation.nms.s": "s",
    "evaluation.nms.calls": "count",
    "evaluation.nms.kept_ratio": "ratio",
    "evaluation.average_precision.s": "s",
    "evaluation.evaluate.self_s": "s",
    **{f"cli.{s}.self_s": "s" for s in ("synth",) + STAGES},
    **{f"trace.{s}.overhead_s": "s" for s in ("synth",) + STAGES},
}

# spans each traced stage must fire on every workload
EXPECTED_SPANS = {
    "synth": {"data.generate_synthetic", "data.save_dataset"},
    "train": {"data.load_dataset", "train.train", "train.rebalance_dataset",
              "train.label_proposals", "train.compose_batch", "loss.loss_gradients",
              "train.adam_step", "model.save_checkpoint"},
    "predict": {"model.load_checkpoint", "data.load_dataset", "infer.conse_detect",
                "evaluation.nms", "infer.dump_detections"},
    "eval": {"model.load_checkpoint", "data.load_dataset", "infer.detect",
             "evaluation.nms", "infer.tag_image", "evaluation.evaluate",
             "evaluation.average_precision"},
}


@dataclass
class StageRun:
    stage: str
    traced: bool
    wall_s: float
    exit_code: int
    rss_mb: float
    errors: list[str] = field(default_factory=list)
    digest: dict[str, str] = field(default_factory=dict)
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.errors)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_PIN)
    env.pop("ZSD_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name: str, seed: int, check_reference: bool = True):
        self.name, self.seed, self.check_reference = name, seed, check_reference
        self.workload: Workload = WORKLOADS[name]
        self.work = Path(WORK) / name
        shutil.rmtree(ROOT / self.work, ignore_errors=True)
        (ROOT / self.work).mkdir(parents=True)
        self.env = _child_env()
        self.t0 = time.perf_counter()
        self.runs: list[StageRun] = []
        self.first_digest: dict[str, dict[str, str]] = {}
        self.first_counts: dict[str, dict[str, int]] = {}

    # -- paths, relative to ROOT so that reports and manifests do not
    #    depend on where the checkout lives
    def p(self, *parts: str) -> str:
        return str(self.work.joinpath(*parts))

    def argv(self, stage: str) -> list[str]:
        w, data = self.workload, lambda f: self.p("data", f)
        if stage == "synth":
            return ["--out", self.p("data"), "--seed", str(self.seed), *w.synth]
        if stage == "train":
            return ["--embeddings", data("embeddings.txt"), "--meta-map", data("meta_map.csv"),
                    "--split", data("oracle.json"), "--data", data("train.jsonl"),
                    "--out", self.p("ckpt.json"), *w.train]
        model = ["--checkpoint", self.p("ckpt.json"), "--embeddings", data("embeddings.txt"),
                 "--meta-map", data("meta_map.csv"), "--data", data("test.jsonl")]
        if stage == "predict":
            return [*model, *w.predict, "--out", self.p("dets.jsonl")]
        return [*model, "--task", "all", *w.eval, "--out", self.p("reports")]

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def stage(self, stage: str, traced: bool) -> StageRun:
        tag = f"{len(self.runs):03d}-{stage}{'-traced' if traced else ''}"
        spans = ROOT / self.work / f"{tag}.spans.json"
        cmd = [sys.executable, str(STAGE)]
        if traced:
            cmd += ["--trace", str(spans)]
        cmd += ["--", stage, *self.argv(stage)]
        limit = max(DEADLINE_S - self.elapsed(), 1.0)
        with open(ROOT / self.work / f"{tag}.log", "w", encoding="utf-8") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(limit, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no stage running
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        run = StageRun(stage, traced, wall, proc.returncode, usage.ru_maxrss / 1024.0)
        self.runs.append(run)
        if run.exit_code != 0:
            run.errors.append(f"{stage} exited {run.exit_code}; log in {self.work / tag}.log")
            return run
        try:
            if traced:
                self._check_trace(run, spans)
            self._check_outputs(run)
        except (OSError, ValueError, KeyError) as exc:
            run.errors.append(f"{stage} output unreadable: {exc!r}")
        return run

    def _check_trace(self, run: StageRun, spans: Path) -> None:
        run.trace = json.loads(spans.read_text(encoding="utf-8"))
        missing = EXPECTED_SPANS[run.stage] - {s[0] for s in run.trace["spans"]}
        if missing:
            run.errors.append(f"traced {run.stage} fired no span for {sorted(missing)}")
        prior = self.first_counts.setdefault(run.stage, run.trace["counts"])
        if run.trace["counts"] != prior:
            run.errors.append(f"traced {run.stage} counts changed: {prior} -> {run.trace['counts']}")

    def _check_outputs(self, run: StageRun) -> None:
        root = ROOT / self.work
        if run.stage == "synth":
            files = ["embeddings.txt", "meta_map.csv", "train.jsonl", "test.jsonl", "oracle.json"]
            run.digest = {f: _sha256(root / "data" / f) for f in files}
        elif run.stage == "train":
            run.digest = {f: _sha256(root / f) for f in ("ckpt.json", "ckpt.loss.csv")}
        elif run.stage == "predict":
            run.digest = {"dets.jsonl": _sha256(root / "dets.jsonl")}
            if (root / "dets.jsonl").stat().st_size == 0:
                run.errors.append("predict (ConSE route) emitted no detections")
        else:
            run.digest = {f"report_{t}.json": _sha256(root / "reports" / f"report_{t}.json")
                          for t in ("T1", "T2", "T3", "T4")}
            t1 = self.report("T1")
            if sum(row["n_det"] for row in t1["per_class"]) == 0:
                run.errors.append("eval (direct route) emitted no T1 detections")
            ref = self.reference() if self.check_reference else None
            if ref is not None:
                for key, got in self.maps().items():
                    if abs(got - ref[key]) > MAP_TOLERANCE:
                        run.errors.append(f"{key} {got!r} != reference {ref[key]!r}")
        first = self.first_digest.setdefault(run.stage, run.digest)
        for f, h in run.digest.items():
            if h != first[f]:
                run.errors.append(f"{f} differs from the first {run.stage} of this run")

    def report(self, task: str) -> dict:
        path = ROOT / self.work / "reports" / f"report_{task}.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def maps(self) -> dict[str, float]:
        return {"zsd_map": self.report("T1")["mean_ap"], "zst_map": self.report("T3")["mean_ap"]}

    def reference(self) -> dict | None:
        refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        return refs.get(self.name, {}).get(str(self.seed))

    def iteration(self, traced: bool, fill_s: float | None) -> list[StageRun]:
        """One pipeline pass: train, then predict and eval.

        With ``fill_s`` the predict+eval pair repeats while the next pair
        still ends within ``fill_s`` of the pass's start.
        """
        start, pair_s = time.perf_counter(), 0.0
        runs = [self.stage("train", traced)]
        while not runs[-1].failed:
            t = time.perf_counter()
            runs.append(self.stage("predict", traced))
            if runs[-1].failed:
                break
            runs.append(self.stage("eval", traced))
            pair_s = max(pair_s, time.perf_counter() - t)
            if fill_s is None or time.perf_counter() - start + pair_s > fill_s:
                break
        return runs

    def measure(self, seconds: float, passes: tuple[bool, ...], minimum: int,
                fill_s: float | None = None) -> list[list[StageRun]]:
        """Repeat ``passes`` (traced flags) while the next repeat fits in ``seconds``."""
        start, done, longest = time.perf_counter(), [], 0.0
        while True:
            t = time.perf_counter()
            for traced in passes:
                done.append(self.iteration(traced, fill_s))
                if done[-1][-1].failed:
                    return done
            longest = max(longest, time.perf_counter() - t)
            used = time.perf_counter() - start
            if self.elapsed() + longest > DEADLINE_S:
                return done
            if len(done) >= minimum * len(passes) and used + longest > seconds:
                return done


def _median(runs: list[StageRun], stage: str, traced: bool) -> float:
    return statistics.median(r.wall_s for r in runs if r.stage == stage and r.traced == traced)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-len(ordered) * q // 100) - 1))]


def _self_seconds(spans: list[list]) -> dict[str, float]:
    """Per span name, total duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for s, e in sorted(children[i]):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out[name] += (end - start) - covered
    return out


def layer_metrics(traced: list[StageRun]) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline pass (synth, train, predict, eval)."""
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for run in traced:
        for name, start, end, _ in run.trace["spans"]:
            durations[name].append(end - start)
        for name, value in _self_seconds(run.trace["spans"]).items():
            self_s[name] += value
        for name, value in run.trace["counts"].items():
            counts[name] += value

    def total(name: str) -> float:
        return sum(durations[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    for key in PER_LAYER:
        if key.endswith(".self_s"):
            m[key] = self_s[key.removesuffix(".self_s")]
        elif key.endswith(".s"):
            m[key] = total(key.removesuffix(".s"))
    m["data.load_dataset.mb_per_s"] = ratio(counts["data.load_dataset.bytes"] / 1e6,
                                            total("data.load_dataset"))
    for name in ("loss.loss_gradients", "train.adam_step"):
        ms = [d * 1e3 for d in durations[name]] or [0.0]
        m[f"{name}.ms_p50"] = _percentile(ms, 50)
        m[f"{name}.ms_p99"] = _percentile(ms, 99)
    for name in ("train.rebalance.images_added", "train.steps", "train.samples",
                 "model.checkpoint_bytes", "infer.proposals_in",
                 "infer.detect.detections_out", "infer.conse_detect.detections_out"):
        m[name] = counts[name]
    m["infer.detections_out"] = (counts["infer.detect.detections_out"]
                                 + counts["infer.conse_detect.detections_out"])
    m["infer.emit_ratio"] = ratio(m["infer.detections_out"], counts["infer.proposals_in"])
    scoring = total("infer.detect") + total("infer.conse_detect") + total("infer.tag_image")
    m["infer.proposals_per_s"] = ratio(counts["infer.proposals_scored"], scoring)
    m["evaluation.nms.calls"] = len(durations["evaluation.nms"])
    m["evaluation.nms.kept_ratio"] = ratio(counts["evaluation.nms.kept"], counts["evaluation.nms.in"])
    return m


def environment(name: str, seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def run_untraced(bench: Bench, seconds: float) -> dict[str, float]:
    for _ in range(SETUP_REPEATS):
        if bench.stage("synth", traced=False).failed:
            return {}
    fill = bench.workload.fill_passes
    if fill:
        bench.measure(seconds, passes=(False,), minimum=fill, fill_s=seconds / fill)
    else:
        bench.measure(seconds, passes=(False,), minimum=MIN_ITERATIONS)
    metrics = {"setup_s": _median(bench.runs, "synth", False)}
    for stage in STAGES:
        if any(r.stage == stage for r in bench.runs):
            metrics[f"{stage}_s"] = _median(bench.runs, stage, False)
    metrics["peak_rss_mb"] = max(r.rss_mb for r in bench.runs)
    return metrics


def run_traced(bench: Bench, seconds: float) -> dict[str, float]:
    for traced in (False, True):
        if bench.stage("synth", traced).failed:
            return {}
    synth = [r for r in bench.runs if r.traced]
    passes = bench.measure(seconds, passes=(False, True), minimum=1)
    if any(r.failed for r in bench.runs):
        return {}
    per_pass = [layer_metrics(synth + p) for p in passes if p[0].traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    for stage in ("synth",) + STAGES:
        metrics[f"trace.{stage}.overhead_s"] = (_median(bench.runs, stage, True)
                                               - _median(bench.runs, stage, False))
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> bool:
    """Run one workload, print its table and result line; True when correct."""
    bench = Bench(name, seed)
    env = environment(name, seed)
    if trace:
        metrics, units = run_traced(bench, seconds), PER_LAYER
    else:
        metrics, units = run_untraced(bench, seconds), END_TO_END
    failed = sum(r.failed for r in bench.runs)
    attempted = len(bench.runs)
    correct = failed == 0 and set(metrics) == set(units)

    print("env " + json.dumps(env))
    for r in bench.runs:
        mark = "FAIL " + "; ".join(r.errors) if r.failed else "ok"
        print(f"stage {r.stage:<8} {'traced' if r.traced else 'plain':<6} "
              f"{r.wall_s:9.4f} s {r.rss_mb:8.1f} MB  {mark}")
    for digest in bench.first_digest.values():
        for f, h in digest.items():
            print(f"sha256 {f} {h}")
    extra: dict[str, tuple[float, str]] = {}
    if not trace and "eval" in bench.first_digest:
        ref = bench.reference()
        note = "checked against reference.json" if ref else f"no reference for seed {seed}"
        for key, value in bench.maps().items():
            extra[key] = (value, f"mAP ({note})")
    extra["ops_failed_frac"] = (failed / attempted if attempted else 1.0, "fraction")
    samples = {stage: sum(r.stage == stage and not r.traced for r in bench.runs)
               for stage in ("synth",) + STAGES}
    print("untraced samples per stage (timings are medians) " + json.dumps(samples))
    for metric, value in metrics.items():
        print(f"metric {metric:<36} {value:>16.6f} {units[metric]}")
    for metric, (value, unit) in extra.items():
        print(f"metric {metric:<36} {value:>16.6f} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return correct


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of BENCHMARK.json's in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zsdet" / "cli.py").is_file():
        print(f"error: no zsdet sources at {SRC}; run from the root of a zsdet checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    os.environ.update(BLAS_PIN)  # before numpy is imported for the environment record

    names = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [w["name"] for w in spec["workloads"]]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
