"""Per-layer tracing from outside the library.

`Tracer.install()` replaces the public entry points of each inferlab
module with timing wrappers. Modules import each other by name
(`from .upset import relate`), so a wrapper is bound in every
`inferlab.*` namespace that holds the original; the two hot methods,
`Informant.example_at` and `DelaySchedule.of`, are replaced on their
classes. `UPSet.member` stays unwrapped: its tens of millions of calls
land in the caller's self time.

Two kinds of wrapper share one call stack:

- span wrappers (harness, adversary, `interaction.run`, the restriction
  checkers, combinator-built learners) record a span (id, name, start,
  end, parent id, op index) in memory;
- leaf wrappers (upset ops, evidence and hypothesis helpers, catalog
  learners) only count calls and add up time.

Either kind adds its duration to the enclosing frame, so a bucket's self
time is its duration minus the time of the wrapped calls inside it.
`per_layer_metrics` and `layer_shares` turn the exported counters into the
benchmark's per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, bucket); the bucket's first dotted part is its layer
_LEAVES = (
    *(("upset", name, "upset." + name) for name in (
        "relate", "union", "intersection", "difference", "complement",
        "from_elements", "min_element", "bounded_elements", "is_subset",
        "combine", "parse")),
    ("evidence", "prefix", "evidence.prefix"),
    *(("evidence", name, "evidence.data") for name in (
        "pos", "neg", "outline", "content")),
    *(("hypothesis", name, "hypothesis." + name) for name in (
        "hypothesis_for", "stage_enumerate", "consistent")),
    ("catalog", "language", "catalog.language"),
    ("catalog", "family_instances", "catalog.family_instances"),
    ("combinators", "patch", "combinators.patch"),
)
_SPANS = (
    ("harness", "validate_config", "harness.validate"),
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "render_report", "harness.render"),
    ("adversary", "run_adversary", "adversary.run"),
    ("adversary", "verify_witness", "adversary.verify"),
    ("restrictions", "check_monotone", "restrictions.monotone"),
    ("restrictions", "check_cautious", "restrictions.cautious"),
    ("restrictions", "check_cons", "restrictions.other"),
    ("restrictions", "check_bc", "restrictions.other"),
    ("restrictions", "check_ex", "restrictions.other"),
    ("restrictions", "revalidate", "restrictions.revalidate"),
)
CACHED_UPSET = ("relate", "union", "intersection", "difference", "complement")


class Tracer:
    """Counters and spans for one traced worker process."""

    def __init__(self):
        self.op = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.spans: list[tuple] = []
        self.extra = defaultdict(int)  # counts read at the boundaries
        self.memo_max = 0
        self._stack = [[0.0, -1]]  # frames: [child time, span id]
        self._adversary_depth = 0
        self._caches = {}

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, bucket: str, fn, span: bool, after=None):
        stack, spans = self._stack, self.spans
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = len(spans) if span else parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                calls[bucket] += 1
                total_s[bucket] += dur
                self_s[bucket] += dur - frame[0]
                if span:
                    spans.append((sid, bucket, t0, t1, parent[1], self.op))
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _adversary(self, bucket: str, fn):
        inner = self._wrap(bucket, fn, span=True, after=(
            self._count_found if bucket == "adversary.run" else None))

        def wrapper(*args, **kwargs):
            self._adversary_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._adversary_depth -= 1

        return wrapper

    def _count_found(self, args, witness):
        self.extra["adversary.games"] += 1
        self.extra["adversary.found"] += witness.kind != "exhausted"

    def _traced_run(self, fn, interaction):
        inner = self._wrap("interaction.run", fn, span=True)
        extra = self.extra

        def run(learner, informant, horizon, ctx=None):
            if ctx is None:
                ctx = interaction.EvalContext()
            if self._adversary_depth:
                extra["adversary.run_calls"] += 1
            base = learner.fn

            def counted(*args):
                extra["interaction.learner_calls"] += 1
                return base(*args)

            seq = inner(interaction.Learner(learner.name, learner.kind,
                                            counted), informant, horizon, ctx)
            self.memo_max = max(self.memo_max, len(ctx.memo))
            return seq

        return run

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers in every loaded inferlab module namespace."""
        from inferlab import (adversary, catalog, combinators, evidence,
                              harness, hypothesis, interaction, restrictions,
                              upset)

        mods = {m.__name__.rpartition(".")[2]: m for m in (
            adversary, catalog, combinators, evidence, harness, hypothesis,
            interaction, restrictions, upset)}
        self._caches = {name: getattr(upset, name) for name in CACHED_UPSET}
        self._caches["first_conflict"] = restrictions._first_conflict

        replace = {}
        for mod, name, bucket in _LEAVES:
            fn = getattr(mods[mod], name)
            replace[fn] = self._wrap(bucket, fn, span=False,
                                     after=self._count_items
                                     if bucket == "evidence.prefix" else None)
        for mod, name, bucket in _SPANS:
            fn = getattr(mods[mod], name)
            if mod == "adversary":
                replace[fn] = self._adversary(bucket, fn)
            elif bucket == "harness.render":
                replace[fn] = self._wrap(bucket, fn, True, self._count_bytes)
            else:
                replace[fn] = self._wrap(bucket, fn, span=True)
        replace[restrictions.check] = self._counted(restrictions.check)
        replace[interaction.run] = self._traced_run(interaction.run,
                                                    interaction)
        replace[catalog.learner] = self._traced_learner(catalog.learner,
                                                        interaction.Learner)
        replace[combinators.combinator] = self._traced_combinator(
            combinators.combinator, interaction.Learner)

        namespaces = [vars(m) for name, m in sys.modules.items()
                      if name == "inferlab" or name.startswith("inferlab.")]
        for ns in namespaces:
            for attr, value in list(ns.items()):
                try:
                    wrapper = replace.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    ns[attr] = wrapper

        informant_cls = evidence.Informant
        informant_cls.example_at = self._wrap(
            "evidence.example_at", informant_cls.example_at, span=False)
        delay_cls = hypothesis.DelaySchedule
        delay_cls.of = self._wrap("hypothesis.delay_of", delay_cls.of,
                                  span=False)

    def _count_items(self, args, result):
        self.extra["evidence.prefix.items"] += len(result)

    def _count_bytes(self, args, document):
        self.extra["harness.report_bytes"] += len(document.encode())

    def _counted(self, fn):
        extra = self.extra

        def check(*args, **kwargs):
            extra["restrictions.check.calls"] += 1
            return fn(*args, **kwargs)

        return check

    def _traced_learner(self, fn, learner_cls):
        def learner(learner_id):
            lrn = fn(learner_id)
            return learner_cls(lrn.name, lrn.kind, self._wrap(
                "catalog.learner", lrn.fn, span=False))

        return learner

    def _traced_combinator(self, fn, learner_cls):
        def combinator(name):
            build = fn(name)

            def traced(base):
                out = build(base)
                return learner_cls(out.name, out.kind, self._wrap(
                    "combinators." + name, out.fn, span=True))

            return traced

        return combinator

    # -- export -------------------------------------------------------------

    def counters(self) -> dict:
        """This pass's counters and cache statistics, as plain JSON."""
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses,
                            "entries": info.currsize}
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "extra": dict(self.extra),
            "memo_max": self.memo_max,
            "caches": caches,
        }


def _ratio(part, base):
    return part / base if base else 0.0


def layer_shares(c, op_seconds) -> dict:
    """Each layer's self time as a share of the traced op time."""
    by_layer = defaultdict(float)
    for bucket, s in c["self_s"].items():
        if bucket != "harness.validate":  # set-up, not op time
            by_layer[bucket.split(".")[0]] += s
    return {layer: _ratio(s, op_seconds)
            for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1])}


def per_layer_metrics(c, untraced_ops_per_s, traced_ops_per_s) -> dict:
    """Per-layer metrics of one traced pass; see README.md for each one.

    `*.self_s` are self times (span time minus wrapped calls inside it);
    the other `*_s` are inclusive times of the named calls.
    """
    calls, extra = defaultdict(int, c["calls"]), defaultdict(int, c["extra"])
    self_s = defaultdict(float, c["self_s"])
    total_s = defaultdict(float, c["total_s"])
    caches = c["caches"]

    def layer(d, name):
        return sum(v for k, v in d.items() if k.split(".")[0] == name)

    hits = sum(caches[n]["hits"] for n in CACHED_UPSET)
    misses = sum(caches[n]["misses"] for n in CACHED_UPSET)
    fc = caches["first_conflict"]
    overhead = untraced_ops_per_s - traced_ops_per_s
    m = {
        "upset.calls": (layer(calls, "upset"), "count"),
        "upset.self_s": (float(layer(self_s, "upset")), "s"),
        "upset.cache_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "upset.cache_entries": (
            sum(caches[n]["entries"] for n in CACHED_UPSET), "count"),
        "evidence.example_at.calls": (calls["evidence.example_at"], "count"),
        "evidence.example_at.self_s": (self_s["evidence.example_at"], "s"),
        "evidence.prefix.calls": (calls["evidence.prefix"], "count"),
        "evidence.prefix.items": (extra["evidence.prefix.items"], "count"),
        "evidence.prefix.self_s": (self_s["evidence.prefix"], "s"),
        "hypothesis.calls": (layer(calls, "hypothesis"), "count"),
        "hypothesis.self_s": (float(layer(self_s, "hypothesis")), "s"),
        "interaction.run.calls": (calls["interaction.run"], "count"),
        "interaction.run.self_s": (self_s["interaction.run"], "s"),
        "interaction.learner_calls": (extra["interaction.learner_calls"],
                                      "count"),
        "catalog.learner_calls": (calls["catalog.learner"], "count"),
        "catalog.learner_s": (total_s["catalog.learner"], "s"),
        "restrictions.check.calls": (extra["restrictions.check.calls"],
                                     "count"),
        "restrictions.monotone.self_s": (self_s["restrictions.monotone"], "s"),
        "restrictions.cautious.self_s": (self_s["restrictions.cautious"], "s"),
        "restrictions.other.self_s": (self_s["restrictions.other"], "s"),
        "restrictions.revalidate.self_s": (self_s["restrictions.revalidate"],
                                           "s"),
        "restrictions.first_conflict_hit_ratio": (
            _ratio(fc["hits"], fc["hits"] + fc["misses"]), "ratio"),
        "combinators.self_s": (float(layer(self_s, "combinators")), "s"),
        "combinators.memo_entries": (c["memo_max"], "count"),
        "adversary.games": (extra["adversary.games"], "count"),
        "adversary.self_s": (float(layer(self_s, "adversary")), "s"),
        "adversary.verify_s": (total_s["adversary.verify"], "s"),
        "adversary.run_calls": (extra["adversary.run_calls"], "count"),
        "adversary.found_ratio": (
            _ratio(extra["adversary.found"], extra["adversary.games"]),
            "ratio"),
        "harness.validate_s": (total_s["harness.validate"], "s"),
        "harness.run_experiment.self_s": (self_s["harness.run_experiment"],
                                          "s"),
        "harness.render_s": (total_s["harness.render"], "s"),
        "harness.report_bytes": (extra["harness.report_bytes"], "B"),
        "trace.overhead_ops_per_s": (overhead, "1/s"),
        "trace.overhead_frac": (_ratio(overhead, untraced_ops_per_s),
                                "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}
