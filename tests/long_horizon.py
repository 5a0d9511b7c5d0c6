"""Print wall times of long runs, where a per-step cost that grows shows,
and the memory of two long sweeps.

Three groups of times, each the best of three runs in this process:

- a learner that answers a constant, in G, Psd, Sd and It, on the
  canonical informant of the evens at H = 4000 and 16000, with the factor
  between the two;
- each `sweep-wrapped` pipeline of `benchmark/workloads.py` at H = 1000
  and 4000, on the canonical informant of its base's target below;
- `fin_pos` on `0|1` at H = 1000, `run` and then `check_all`, in
  canonical order and shuffled with seed 5;
- `stream_mon`, `even_dualmon` and `fresh_label` on the canonical
  informant of `|1` at H = 1000 and 4000, with the factor between the
  two.

Each timed call gets an informant of its own: an informant keeps the
examples it has shown, so a second run on the same one would not read
them again, and the repeats would time a warm buffer.

Then the max RSS of two sweeps of 4000 cells, `run` plus `check_all`,
each on its own shuffled informant of the evens (seeds 1 to 4000) at
H = 80: one with `fin_pos`, one with `constant_empty`. Each sweep runs in
a child interpreter of its own, so neither sees the other's memory.

Run it from any directory:

    python tests/long_horizon.py

It reads the pipelines off `benchmark/workloads.py`, which it only
imports. pytest does not collect this file.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no compiled files in benchmark/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

from inferlab.catalog import learner  # noqa: E402
from inferlab.combinators import combinator  # noqa: E402
from inferlab.evidence import Informant, canonical_informant  # noqa: E402
from inferlab.interaction import INITIAL_HYPOTHESIS, Learner, run  # noqa: E402
from inferlab.restrictions import check_all  # noqa: E402
from inferlab.upset import parse  # noqa: E402
import workloads  # noqa: E402

REPEATS = 3

CONSTANT = {
    "G": lambda d, ctx: INITIAL_HYPOTHESIS,
    "Psd": lambda d, n, ctx: INITIAL_HYPOTHESIS,
    "Sd": lambda d, ctx: INITIAL_HYPOTHESIS,
    "It": lambda h, ex, ctx: h,
}

# the canonical target each pipeline's base learner is run on
BASE_TARGETS = {"cofinite": "10|1", "segment": "1111|0", "fin_pos": "|10"}

# catalog learners whose own cost per step once grew with the horizon
CATALOG_LEARNERS = ("stream_mon", "even_dualmon", "fresh_label")

SWEEP_LEARNERS = ("fin_pos", "constant_empty")
SWEEP_CELLS = 4000
SWEEP_HORIZON = 80


def best(fn, make=lambda: None) -> float:
    """The least wall time of `REPEATS` calls of fn, in seconds; each call
    is handed a new `make()`, made outside the time."""
    times = []
    for _ in range(REPEATS):
        arg = make()
        t0 = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - t0)
    return min(times)


def max_rss_mb() -> float:
    """This process's max RSS in MB. Linux keeps `ru_maxrss` across exec,
    so a child would report its parent's peak if that is larger; the
    VmHWM of /proc/self/status starts anew, and is read where it exists."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def sweep(lid: str) -> float:
    """Run and judge the sweep's cells of one learner in this process; its
    max RSS in MB."""
    lrn, evens = learner(lid), parse("|10")
    for seed in range(1, SWEEP_CELLS + 1):
        check_all(run(lrn, Informant(evens, (), "shuffled", seed),
                      SWEEP_HORIZON))
    return max_rss_mb()


def main() -> int:
    if sys.argv[1:2] == ["--sweep"]:  # the child of one sweep
        print(sweep(sys.argv[2]))
        return 0
    evens = parse("|10")
    for kind, fn in CONSTANT.items():
        lrn = Learner("constant", kind, fn)
        short, long = (best(lambda inf: run(lrn, inf, h),
                            lambda: canonical_informant(evens))
                       for h in (4000, 16000))
        print(f"constant {kind:<3}  H=4000 {short:7.3f} s  H=16000 "
              f"{long:7.3f} s  x{long / short:.1f}")
    for base, steps in workloads.WRAPPED_PIPELINES:
        lrn = learner(base)
        for step in steps:
            lrn = combinator(step)(lrn)
        target = parse(BASE_TARGETS[base])
        name = "+".join((base, *steps))
        times = [best(lambda inf: run(lrn, inf, h),
                      lambda: canonical_informant(target))
                 for h in (1000, 4000)]
        print(f"{name:<31} on {BASE_TARGETS[base]:<6}  H=1000 "
              f"{times[0]:7.3f} s  H=4000 {times[1]:7.3f} s")
    target, fin_pos = parse("0|1"), learner("fin_pos")
    for label, make in (("canonical", lambda: canonical_informant(target)),
                        ("shuffled 5",
                         lambda: Informant(target, (), "shuffled", 5))):
        runs = best(lambda inf: run(fin_pos, inf, 1000), make)
        checks = best(check_all, lambda: run(fin_pos, make(), 1000))
        print(f"fin_pos on 0|1 {label:<10}  H=1000 run {runs:7.3f} s"
              f"  check_all {checks:7.3f} s")
    naturals = parse("|1")
    for lid in CATALOG_LEARNERS:
        lrn = learner(lid)
        short, long = (best(lambda inf: run(lrn, inf, h),
                            lambda: canonical_informant(naturals))
                       for h in (1000, 4000))
        print(f"{lid:<14} on |1  H=1000 {short:7.3f} s  H=4000 "
              f"{long:7.3f} s  x{long / short:.1f}")
    for lid in SWEEP_LEARNERS:
        child = subprocess.run([sys.executable, __file__, "--sweep", lid],
                               capture_output=True, text=True, check=True)
        print(f"{lid:<14} sweep of {SWEEP_CELLS} cells at H={SWEEP_HORIZON}"
              f"  max RSS {float(child.stdout):6.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
