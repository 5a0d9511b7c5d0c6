"""Print one sha256 over everything a change must keep byte-identical.

The hash covers the `inferlab demo` output, then the machine and the text
report of every seed-0 op of the benchmark workloads (`sweep-judge`,
`sweep-wrapped` and `games`, 384 ops), each op run on its own as the
benchmark runs it. Two checkouts that print the same hash render the same
bytes. Run it from any directory:

    python tests/report_digest.py

It reads the ops off `benchmark/workloads.py`, which it only imports.
pytest does not collect this file; `test_report_digest.py` pins the hash
through `report_digest`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no compiled files in benchmark/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from inferlab import cli, harness  # noqa: E402
import workloads  # noqa: E402


# Named, not read off `workloads.WORKLOADS`: a new workload must not move
# the hash.
WORKLOADS = ("sweep-judge", "sweep-wrapped", "games")


def report_digest() -> tuple[str, int]:
    """The sha256 hex digest, and the number of ops it covers."""
    digest = hashlib.sha256()
    demo = io.StringIO()
    with contextlib.redirect_stdout(demo):
        cli.main(["demo"])
    digest.update(demo.getvalue().encode())
    ops = 0
    for workload in WORKLOADS:
        for op in workloads.build_ops(workload, 0, harness):
            report = harness.run_experiment(op.cfg)
            for mode in ("machine", "text"):
                digest.update(harness.render_report(report, mode).encode())
            ops += 1
    return digest.hexdigest(), ops


def main() -> int:
    hexdigest, ops = report_digest()
    print(f"{hexdigest}  demo + {ops} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
