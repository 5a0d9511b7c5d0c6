"""One benchmark pass in a fresh interpreter.

Imports inferlab from the checkout's `src`, builds the workload's ops,
prints `READY` (the parent times set-up up to that line), then runs every
op once, in order, and prints one JSON line with per-op results. Run by
`run.py`; each pass starts cold, the way every `inferlab check` does.

    python3 benchmark/worker.py --workload games --seed 0 --mode run
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    required=True)
    ap.add_argument("--max-ops", type=int, default=None)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import inferlab
    from inferlab import harness

    if not Path(inferlab.__file__).resolve().is_relative_to(SRC):
        print(f"worker: imported inferlab from {inferlab.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    ops = workloads.build_ops(args.workload, args.seed, harness)
    if args.max_ops is not None:
        ops = ops[:args.max_ops]
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    # On the VM this benchmark was tuned on, each CPU's speed drifts by up to
    # 1.7x over tens of seconds, independently of the other CPU. Rotating the
    # ops over every allowed CPU spreads each run over all of them, so one
    # slow CPU does not skew a whole run.
    cpus = (sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else [])
    records = []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            report = harness.run_experiment(op.cfg)
            harness.render_report(report, "machine")
        except Exception:  # an op that raises is counted as failed
            ms = (clock() - t0) * 1e3
            records.append([op.key, None, False,
                            traceback.format_exc(limit=4), ms])
            continue
        ms = (clock() - t0) * 1e3
        records.append([op.key, workloads.digest(op.kind, report),
                        workloads.verified(report), None, ms])

    result = {
        "version": inferlab.__version__,
        "ops": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["counters"] = tracer.counters()
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
