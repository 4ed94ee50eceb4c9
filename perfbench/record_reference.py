"""Record the T1 and T3 mAP that ``run.py`` checks, per workload and seed.

Usage, from the root of a checkout::

    python3 perfbench/record_reference.py --workload desk-train --seeds 0-19

Runs synth, train and eval once per seed, untimed, and writes the two
values into ``perfbench/reference.json``.  Re-record only for a change that
is meant to alter results, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    refs = json.loads(run.REFERENCE.read_text(encoding="utf-8")) if run.REFERENCE.exists() else {}
    table = refs.setdefault(args.workload, {})
    for seed in range(int(first), int(last or first) + 1):
        bench = run.Bench(args.workload, seed, check_reference=False)
        for name in ("synth", "train", "eval"):
            result = bench.stage(name, traced=False)
            if result.failed:
                print(f"seed {seed}: {'; '.join(result.errors)}", file=sys.stderr)
                return 1
        table[str(seed)] = bench.maps()
        print(f"{args.workload} seed {seed}: {table[str(seed)]}", flush=True)
        run.REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
