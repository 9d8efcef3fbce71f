"""Record the golden outputs the benchmark's output gate compares against.

    python3 perfbench/record_golden.py --workload sse-ec --seeds 0-99

Runs the program once per seed and merges the outputs into
``perfbench/golden.json``, keyed by seed: every paradigm's
``RunResult.summary()`` (minus its wall-clock field) for the engine
workloads; the order and fill counts, volume and price checksums and the
11 operator row counts for ``sse-spark``.  Re-record only when a change is meant to alter the
outputs, and say so.
"""
from __future__ import annotations

import argparse
import json
import sys

from run import GOLDEN, ROOT, WORKLOADS, program_present


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-99 or 17")
    args = ap.parse_args()
    if not program_present():
        print(f"no program to record under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "sse-spark":
        import spark

        recorded = spark.record(ROOT, args.seeds)
    else:
        import engine

        recorded = {str(s): engine.record(args.workload, s) for s in args.seeds}
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden.setdefault(args.workload, {}).update(recorded)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} seeds of {args.workload} in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
