"""The benchmark harness's own contract, run as a subprocess.

``perfbench/selftest.py`` runs the tiny workload through ``perfbench/run.py``
(untraced and traced, two seeds) and checks that every span the tracer wraps
fires, that the reported metrics are exactly those of BENCHMARK.json, and
that a checkout without sources fails.  It writes only under the git-ignored
``.perfbench/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
