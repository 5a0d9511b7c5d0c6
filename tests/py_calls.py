"""Print each benchmark workload's Python calls and allocation peak over
one cold seed-0 pass.

For each workload a child interpreter imports inferlab from this
checkout's `src`, builds the workload's seed-0 ops as the benchmark
worker does, and runs each op once, in order, the same way:
`harness.run_experiment`, then the machine report. Over that pass, and
not over the import or the op building, it counts the "call" events of
`sys.setprofile` (a Python function entered or a generator resumed; C
functions are not counted) and reads the `tracemalloc` peak. Each
workload runs in a child of its own, so each pass starts with every
cache empty. Both numbers are deterministic up to the Python version,
so a change can quote them instead of a clock.

    python tests/py_calls.py [WORKLOAD ...]

It reads the ops off `benchmark/workloads.py`, which it only imports.
pytest does not collect this file.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-judge", "sweep-wrapped", "games")


def _pass(workload: str) -> None:
    """Run one cold seed-0 pass in this process and print its counts."""
    import tracemalloc

    sys.dont_write_bytecode = True  # leave no compiled files in benchmark/
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]
    from inferlab import harness
    import workloads

    ops = workloads.build_ops(workload, 0, harness)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    tracemalloc.start()
    sys.setprofile(count)
    for op in ops:
        harness.render_report(harness.run_experiment(op.cfg), "machine")
    sys.setprofile(None)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{workload:<14} {len(ops):>5} ops {calls:>11,} python calls "
          f"{peak / 1024:>9,.0f} KiB tracemalloc peak")


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        _pass(argv[1])
        return 0
    unknown = sorted(set(argv) - set(WORKLOADS))
    if unknown:
        print(f"unknown workload(s) {', '.join(unknown)}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    for workload in argv or WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--child", workload])
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
