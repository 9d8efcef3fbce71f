"""Benchmark of the Elasticutor reproduction: one command, three workloads.

    python3 perfbench/run.py --workload sse-ec --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``sse-ec``         naive-EC then Elasticutor on the epoch engine
* ``sse-baselines``  static then resource-centric on the epoch engine
* ``sse-spark``      the SSE application on Spark

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` a separate traced run prints the per-layer split.  Every
run checks the program's outputs against the golden values recorded in
``perfbench/golden.json`` (and against invariants that hold for every
seed).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORKLOADS = ("sse-ec", "sse-baselines", "sse-spark")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def program_present() -> bool:
    return (ROOT / "src" / "repro" / "__init__.py").is_file() and (
        ROOT / "jobs" / "_common.py"
    ).is_file()


def load_golden(workload: str) -> dict:
    """Recorded outputs of one workload by seed."""
    return json.loads(GOLDEN.read_text()).get(workload, {})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not program_present():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    golden = load_golden(args.workload)
    if args.workload == "sse-spark":
        import spark as workload

        run = (workload.measure_traced if args.trace else workload.measure)
        outcome, metrics = run(ROOT, args.seed, args.seconds, golden)
    else:
        import engine as workload

        run = (workload.measure_traced if args.trace else workload.measure)
        outcome, metrics = run(args.workload, args.seed, args.seconds, golden)
    print(json.dumps({
        "correct": outcome.failed == 0 and bool(metrics),
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
