"""Pin the reference digests for the default seed (0) of every workload.

    python3 benchmark/pin_reference.py

Runs each op of each workload once and writes `reference.json` beside
this script. Re-pin only when an answer is meant to change, and say why
in the change that does it: the benchmark counts every op whose digest
differs from its pinned one as failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inferlab import harness  # noqa: E402
from workloads import WORKLOADS, build_ops, digest, verified  # noqa: E402

DEFAULT_SEED = 0


def main() -> int:
    pinned = {}
    for workload in WORKLOADS:
        table = {}
        for op in build_ops(workload, DEFAULT_SEED, harness):
            report = harness.run_experiment(op.cfg)
            if not verified(report):
                print(f"refusing to pin {op.key}: it does not re-verify",
                      file=sys.stderr)
                return 1
            table[op.key] = digest(op.kind, report)
        pinned[workload] = dict(sorted(table.items()))
        print(f"{workload}: {len(table)} ops pinned")
    (HERE / "reference.json").write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
