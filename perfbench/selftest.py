"""Self-test of the benchmark harness on the tiny workload.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Checks that:

* every span ``stage.py`` records is one that ``run.py`` expects to fire;
* on two seeds, an untraced run reports exactly the end-to-end metrics of
  BENCHMARK.json and a traced run exactly its per-layer metrics, each with
  its unit, and both pass their output checks (a traced run fails when an
  expected span never fires);
* ``run.py`` exits nonzero and prints no result in a directory that holds
  only BENCHMARK.json and ``perfbench/``.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import stage

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    wrapped = {name for _, _, name, _ in stage.WRAPPED}
    expected = set().union(*run.EXPECTED_SPANS.values())
    if wrapped != expected:
        failures.append(f"wrapped and expected spans differ: {sorted(wrapped ^ expected)}")

    for seed in (0, 1):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = _bench(ROOT, "tiny", seed, trace)
            label = f"tiny seed {seed} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{label}: no JSON result (exit {proc.returncode}): {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{label}: exit {proc.returncode}, result {lines[-1][:300]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics differ from BENCHMARK.json {key}: "
                                f"missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, "
                                f"units {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")

    bare = ROOT / run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(bare, "desk-train", 0, 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    shutil.rmtree(bare)

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
