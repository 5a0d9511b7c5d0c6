"""Exhaustive small-scope check of the judge against the brute-force oracles.

The pool is every set with a prefix and a period of at most two bits: 16
sets, each held as its canonical raw description (`oracles.raw_canonical`)
and as the `UPSet` built from it. Each set is the target of its
informants in turn. On each informant, every run of one to `length`
hypotheses over the pool is judged:

- the twelve pair restrictions once per run of extensions, since they
  read no label, against `oracles.raw_first_site`;
- cons, caut_tar, bc and ex once per labelling of the run, each label 0
  or 1, against `oracles.raw_first_single_site`, which is asked once per
  run of extensions but for ex, the one of them that reads labels;
- at every violated site, `evaluate_site` against `oracles.raw_site` for
  no element, the reported one and every element up to 7 (past every
  set's prefix and period, and past every value the informants below
  show early on).

Each comparison is one check or one element at a site. Run it from any
directory:

    python tests/small_scope.py [--length 3]

It prints the comparisons, the mismatches and the time, and exits 1 on a
mismatch. pytest does not collect this file; `test_small_scope.py` runs
the share of it that fits the suite.
"""

from __future__ import annotations

import argparse
import itertools
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT.parent / "src"), str(ROOT)]

from inferlab.evidence import Informant  # noqa: E402
from inferlab.hypothesis import Hypothesis  # noqa: E402
from inferlab.interaction import HypSequence  # noqa: E402
from inferlab.restrictions import (RESTRICTION_IDS, check,  # noqa: E402
                                   evaluate_site)
from inferlab.upset import UPSet  # noqa: E402
from oracles import (all_descriptions, raw_canonical,  # noqa: E402
                     raw_first_single_site, raw_first_site, raw_member,
                     raw_site)

ORDERS = ("canonical", "shuffled", "fresh")
SINGLE_SITES = ("cons", "caut_tar", "bc", "ex")
PAIR_VARIANTS = tuple(r for r in RESTRICTION_IDS if r not in SINGLE_SITES)


def pool() -> list[tuple[tuple[str, str], UPSet]]:
    """The 16 sets with prefix and period of at most two bits."""
    raws = sorted({raw_canonical(p, q) for p, q in all_descriptions(2, 2)})
    return [(raw, UPSet(*raw)) for raw in raws]


def informant(target: UPSet, order: str) -> Informant:
    """The target's informant in the order: shuffled by seed 0, and fresh
    after a head that shows 3 first."""
    return Informant(target, (3,) if order == "fresh" else (), order, 0)


def _site_mismatches(rid, seq, raw, v, elements) -> tuple[int, list]:
    """Compare `evaluate_site` with `raw_site` at a violated verdict's site,
    for no element, the reported one and the given ones."""
    xs = [None, *sorted({*elements, v.element} - {None})]
    bad = [(rid, v.indices, x) for x in xs
           if evaluate_site(rid, seq, v.indices, x)
           != raw_site(rid, *raw, v.indices, x)]
    return len(xs), bad


def sweep(length: int, orders=("canonical",), elements=range(8)):
    """Judge every run of 1..length hypotheses on every target's informants,
    comparing sites at the given elements.

    Returns the number of comparisons and the mismatches, each as (target,
    order, extensions, labels, restriction, what check or evaluate_site
    said, what the oracle said).
    """
    sets = pool()
    comparisons, mismatches = 0, []
    for traw, target in sets:
        for inf in (informant(target, order) for order in orders):
            for n in range(1, length + 1):
                data = [inf.example_at(i) for i in range(n - 1)]
                for run in itertools.product(sets, repeat=n):
                    exts = [raw for raw, _ in run]
                    conflicts = [next(
                        (i for i, ex in enumerate(data)
                         if raw_member(p, q, ex.value) != bool(ex.label)),
                        None) for p, q in exts]
                    where, oracle = (traw, inf.order, exts), {}
                    for labels in itertools.product((0, 1), repeat=n):
                        seq = HypSequence(tuple(
                            Hypothesis(label, u)
                            for label, (_, u) in zip(labels, run)),
                            "small scope", inf)
                        raw = (exts, list(labels), traw, data)
                        rids = SINGLE_SITES + (PAIR_VARIANTS
                                               if not any(labels) else ())
                        for rid in rids:
                            v = check(rid, seq)
                            got = (v.satisfied, v.indices, v.element)
                            if rid == "ex" or rid not in oracle:
                                oracle[rid] = (
                                    raw_first_site(rid, exts, traw, conflicts)
                                    if rid in PAIR_VARIANTS
                                    else raw_first_single_site(rid, *raw))
                            want = oracle[rid]
                            comparisons += 1
                            if got != want:
                                mismatches.append(
                                    (*where, labels, rid, got, want))
                            if not v.satisfied:
                                count, bad = _site_mismatches(rid, seq, raw, v,
                                                              elements)
                                comparisons += count
                                mismatches += [(*where, labels, *b)
                                               for b in bad]
    return comparisons, mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--length", type=int, default=3)
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    comparisons, mismatches = sweep(args.length, ORDERS)
    for m in mismatches[:20]:
        print("MISMATCH", *m)
    print(f"length <= {args.length}: {comparisons} "
          f"comparisons, {len(mismatches)} mismatches, "
          f"{time.perf_counter() - t0:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
