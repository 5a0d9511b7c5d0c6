"""Every library name the benchmark's tracer hooks into still exists.

`benchmark/tracing.py` looks its hooks up with `getattr` when a traced
pass starts, so a renamed or deleted function breaks only that pass,
which this suite does not run. These tests read the tracer's own tables.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from inferlab import restrictions
from inferlab.catalog import learner as catalog_learner
from inferlab.evidence import Informant
from inferlab.evidence import canonical_informant
from inferlab.hypothesis import DelaySchedule
from inferlab.interaction import EvalContext, Learner, run
from inferlab.upset import parse

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# looked up by name in Tracer.install itself, outside the two tables
_INSTALLED = (("restrictions", "check"), ("interaction", "run"),
              ("catalog", "learner"), ("combinators", "combinator"))


def test_every_traced_name_resolves():
    tracing = _tracing()
    for mod, name, *_bucket in (*tracing._LEAVES, *tracing._SPANS,
                                *_INSTALLED):
        module = importlib.import_module(f"inferlab.{mod}")
        assert callable(getattr(module, name, None)), (mod, name)


def test_traced_caches_report_their_counts():
    upset = importlib.import_module("inferlab.upset")
    for name in _tracing().CACHED_UPSET:
        assert getattr(upset, name).cache_info() is not None, name
    assert restrictions._first_conflict.cache_info() is not None


def test_patched_methods_and_run_wrapper_still_fit():
    # the tracer patches these two methods on their classes
    assert callable(getattr(Informant, "example_at", None))
    assert callable(getattr(DelaySchedule, "of", None))
    # its `run` wrapper passes these four positionally, reads `ctx.memo`
    # and rebuilds the learner as `Learner(name, kind, fn)`
    assert tuple(inspect.signature(run).parameters) == (
        "learner", "informant", "horizon", "ctx")
    assert hasattr(EvalContext(), "memo")
    assert Learner("traced", "G", lambda d, ctx: None).kind == "G"


@pytest.mark.parametrize("name,rid", [
    ("check_cons", "cons"), ("check_monotone", "wmon_b"),
    ("check_cautious", "caut_tar"), ("check_bc", "bc"), ("check_ex", "ex")])
def test_check_calls_each_checker_by_its_module_name(monkeypatch, name, rid):
    # the tracer rebinds the checkers in the module namespace; a `check`
    # that dispatched through a table built at import time would bypass it
    calls = []
    checker = getattr(restrictions, name)

    def traced(*args):
        calls.append(args[:-1])
        return checker(*args)

    monkeypatch.setattr(restrictions, name, traced)
    seq = run(catalog_learner("fin_pos"), canonical_informant(parse("|10")), 6)
    assert restrictions.check(rid, seq).restriction == rid
    assert calls == [(rid,) if name in ("check_monotone", "check_cautious")
                     else ()]
