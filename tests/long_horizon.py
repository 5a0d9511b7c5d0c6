"""Print wall times of long runs, where a per-step cost that grows shows.

Three groups, each the best of three runs in this process:

- a learner that answers a constant, in G, Psd, Sd and It, on the
  canonical informant of the evens at H = 4000 and 16000, with the factor
  between the two;
- each `sweep-wrapped` pipeline of `benchmark/workloads.py` at H = 1000
  and 4000, on the canonical informant of its base's target below;
- `fin_pos` on `0|1` at H = 1000, `run` and then `check_all`, in
  canonical order and shuffled with seed 5.

Run it from any directory:

    python tests/long_horizon.py

It reads the pipelines off `benchmark/workloads.py`, which it only
imports. pytest does not collect this file.
"""

from __future__ import annotations

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


def main() -> int:
    evens = canonical_informant(parse("|10"))
    for kind, fn in CONSTANT.items():
        lrn = Learner("constant", kind, fn)
        short, long = (best(lambda _: run(lrn, evens, h))
                       for h in (4000, 16000))
        print(f"constant {kind:<3}  H=4000 {short:7.3f} s  H=16000 "
              f"{long:7.3f} s  x{long / short:.1f}")
    for base, steps in workloads.WRAPPED_PIPELINES:
        lrn = learner(base)
        for step in steps:
            lrn = combinator(step)(lrn)
        inf = canonical_informant(parse(BASE_TARGETS[base]))
        name = "+".join((base, *steps))
        times = [best(lambda _: run(lrn, inf, h)) for h in (1000, 4000)]
        print(f"{name:<31} on {BASE_TARGETS[base]:<6}  H=1000 "
              f"{times[0]:7.3f} s  H=4000 {times[1]:7.3f} s")
    target = parse("0|1")
    for label, inf in (("canonical", canonical_informant(target)),
                       ("shuffled 5", Informant(target, (), "shuffled", 5))):
        # a new run for each check_all, whose caches are keyed by the run
        fin_pos = lambda _: run(learner("fin_pos"), inf, 1000)
        print(f"fin_pos on 0|1 {label:<10}  H=1000 run {best(fin_pos):7.3f} s"
              f"  check_all {best(check_all, lambda: fin_pos(None)):7.3f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
