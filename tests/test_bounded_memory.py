"""Memory stays bounded: every cache has a size limit, a dropped run's
evidence index is freed once the first-conflict cache moves on, and a
value far past the horizon costs only the width of its masks."""

import gc
import importlib.util
import tracemalloc
import weakref
from pathlib import Path

from inferlab import restrictions, upset
from inferlab.catalog import learner as catalog_learner
from inferlab.evidence import Informant
from inferlab.interaction import run
from inferlab.restrictions import check, check_all
from inferlab.upset import NATURALS, from_mask, parse, union

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _cached_upset_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CACHED_UPSET


def test_every_traced_cache_is_bounded():
    caches = [getattr(upset, name) for name in _cached_upset_names()]
    for fn in (*caches, restrictions._first_conflict):
        assert fn.cache_info().maxsize is not None, fn.__name__


def test_dropped_runs_leave_at_most_the_cache_bound_of_indices_alive():
    bound = restrictions._first_conflict.cache_info().maxsize
    fin_pos, evens = catalog_learner("fin_pos"), parse("|10")
    alive = []
    for seed in range(bound + 64):
        seq = run(fin_pos, Informant(evens, (), "shuffled", seed), 3)
        assert check("cons", seq).satisfied
        alive.append(weakref.ref(seq.index))
    del seq
    gc.collect()
    assert sum(ref() is not None for ref in alive) <= bound


def test_a_value_far_past_the_horizon_costs_only_its_masks():
    """The masks are as wide as the largest value shown, here 10**6 bits,
    so the run's index holds about horizon * 10**6 / 4 bytes."""
    inf = Informant(NATURALS, (10**6,))
    tracemalloc.start()
    try:
        seq = run(catalog_learner("constant_empty"), inf, 40)
        verdicts = check_all(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdicts["cons"].indices == (1,)
    assert verdicts["cons"].element == 10**6
    assert peak < 16 * 2**20


def test_dropped_sets_leave_the_intern_table():
    """The intern table holds its sets weakly: once 10,000 distinct finite
    sets and the operation caches' entries on them are dropped, it is back
    to its size before."""
    caches = [getattr(upset, name) for name in _cached_upset_names()]
    for fn in caches:
        fn.cache_clear()
    gc.collect()
    before = len(upset._LIVE)
    sets = [from_mask(m) for m in range(1 << 20, (1 << 20) + 10_000)]
    unions = [union(a, b) for a, b in zip(sets[:100], sets[100:200])]
    assert len(upset._LIVE) >= before + 10_000
    del sets, unions
    for fn in caches:
        fn.cache_clear()
    gc.collect()
    assert len(upset._LIVE) == before
