"""Experiment runner: declarative configs in, deterministic reports out.

A config names one learner pipeline and crosses it with target languages,
informant schedules and restriction checks; optional adversary runs attack
the same pipeline. Everything is resolved against the catalogs up front,
runs are seeded explicitly, and the machine report format round-trips
losslessly so results can be diffed and re-verified later.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import typing
from dataclasses import dataclass

from . import __version__
from .adversary import (
    ADVERSARY_IDS,
    Bounds,
    DEFAULT_BOUNDS,
    Witness,
    run_adversary,
    verify_witness,
)
from .catalog import (
    FAMILY_IDS,
    LEARNER_IDS,
    family_instances,
    language,
    learner,
)
from .combinators import (
    COMBINATORS,
    combinator,
    cons_wmon_wrapper,
    dual_wmon_poison,
    patched_learner,
    to_set_driven,
)
from .evidence import ORDERS, Informant, canonical_informant
from .interaction import EvalContext, Learner, run, with_fresh_labels
from .restrictions import RESTRICTION_IDS, check, probe_semantic, revalidate
from .upset import NATURALS, UPSet, parse

__all__ = [
    "AdversaryRow",
    "AdversaryRun",
    "CheckRow",
    "ConfigError",
    "ExperimentConfig",
    "Fingerprint",
    "Report",
    "Schedule",
    "Target",
    "build_pipeline",
    "demo_scenarios",
    "exit_code",
    "format_adversary_row",
    "parse_report",
    "render_report",
    "report_from_dict",
    "report_to_dict",
    "run_experiment",
    "validate_config",
    "witness_found",
]

_EXPECTS = ("satisfied", "witness")


class ConfigError(ValueError):
    """Carries every problem found in a config, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------------------
# resolved config

@dataclass(frozen=True)
class Target:
    upset: UPSet
    scope: str = "family"  # or "global (sampled)"


@dataclass(frozen=True)
class Schedule:
    order: str = "canonical"
    seed: int | None = None
    plan: tuple[int, ...] = ()

    def label(self) -> str:
        parts = []
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.plan:
            parts.append("plan=" + ",".join(map(str, self.plan)))
        if not parts:
            return self.order
        return f"{self.order}[{'; '.join(parts)}]"


@dataclass(frozen=True)
class AdversaryRun:
    adversary: str
    bounds: Bounds = DEFAULT_BOUNDS


@dataclass(frozen=True)
class ExperimentConfig:
    learner_id: str
    combinator_ids: tuple[str, ...] = ()
    targets: tuple[Target, ...] = ()
    schedules: tuple[Schedule, ...] = (Schedule(),)
    horizon: int = 1
    restrictions: tuple[str, ...] = ()
    adversaries: tuple[AdversaryRun, ...] = ()
    expect: str = "satisfied"
    seed: int = 0
    output: str | None = None

    def pipeline(self) -> Learner:
        return build_pipeline(self.learner_id, self.combinator_ids)


def build_pipeline(learner_id: str, combinator_ids=()) -> Learner:
    base = learner(learner_id)
    for name in combinator_ids:
        base = combinator(name)(base)
    return base


# ---------------------------------------------------------------------------
# validation

def _objects(raw, name: str, keys: set, errors):
    """Yield `(where, entry)` for each entry of the config list `raw` that
    is an object with no key outside `keys`; report the others."""
    if not isinstance(raw, list):
        errors.append(f"{name} must be a list")
        return
    for i, entry in enumerate(raw):
        where = f"{name}[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object")
        elif set(entry) - keys:
            errors.append(f"{where}: unknown keys {sorted(set(entry) - keys)}")
        else:
            yield where, entry


def _resolve_language_entry(where, entry, errors) -> list[UPSet]:
    lang_id = entry["language"]
    if not isinstance(lang_id, str):
        errors.append(f"{where}: language id must be a string")
        return []
    fixed = entry.get("params", {})
    sweep = entry.get("sweep", {})
    if not isinstance(fixed, dict) or not isinstance(sweep, dict):
        errors.append(f"{where}: params and sweep must be objects")
        return []
    for key, values in sweep.items():
        if not isinstance(values, list) or not values:
            errors.append(f"{where}: sweep value for {key!r} must be a "
                          "non-empty list")
            return []
    combos = [dict(zip(sweep, combo))
              for combo in itertools.product(*sweep.values())]
    built, last_error = [], None
    for combo in combos:
        try:
            built.append(language(lang_id, **{**fixed, **combo}))
        except ValueError as exc:
            last_error = exc  # sweeps may cross invalid corners; skip those
    if not built:
        errors.append(f"{where}: {last_error}")
    return built


_TARGET_KINDS = ("language", "family", "upset")


def _resolve_targets(raw, errors) -> tuple[Target, ...]:
    out, seen = [], set()
    for where, entry in _objects(raw, "targets", {*_TARGET_KINDS, "params",
                                                  "sweep", "count"}, errors):
        kinds = [k for k in _TARGET_KINDS if k in entry]
        if len(kinds) != 1:
            errors.append(f"{where}: needs exactly one of language/family/upset")
            continue
        scope = "family"
        if kinds[0] == "upset":
            try:
                sets = [parse(entry["upset"])]
            except (ValueError, TypeError, AttributeError) as exc:
                errors.append(f"{where}: bad set notation "
                              f"{entry['upset']!r}: {exc}")
                continue
        elif kinds[0] == "language":
            sets = _resolve_language_entry(where, entry, errors)
        else:
            family = entry["family"]
            count = entry.get("count", 8)
            if count not in NATURALS or count < 1:
                errors.append(f"{where}: count must be a positive integer")
                continue
            if family == "*":
                scope = "global (sampled)"
                sets = [u for fam in FAMILY_IDS
                        for u in family_instances(fam, count)]
            elif family in FAMILY_IDS:
                sets = list(family_instances(family, count))
            else:
                errors.append(f"{where}: unknown family {family!r}; known: "
                              f"{', '.join(FAMILY_IDS)} or '*'")
                continue
        for u in sets:
            if u not in seen:
                seen.add(u)
                out.append(Target(u, scope))
    return tuple(out)


def _resolve_schedules(raw, errors) -> tuple[Schedule, ...]:
    out = []
    for where, entry in _objects(raw, "schedules", {"order", "seed", "plan"},
                                 errors):
        order = entry.get("order", "canonical")
        if order not in ORDERS:
            errors.append(f"{where}: unknown order {order!r}; known: "
                          f"{', '.join(ORDERS)}")
            continue
        seed = entry.get("seed")
        if order == "shuffled":
            if not isinstance(seed, int) or isinstance(seed, bool):
                errors.append(f"{where}: shuffled order requires an "
                              "explicit integer seed")
                continue
        elif seed is not None:
            errors.append(f"{where}: seed is only meaningful for "
                          "shuffled order")
            continue
        plan = entry.get("plan", [])
        if not isinstance(plan, list) or not all(v in NATURALS for v in plan):
            errors.append(f"{where}: plan must be a list of naturals")
            continue
        out.append(Schedule(order, seed, tuple(plan)))
    return tuple(out) if out else (Schedule(),)


def _resolve_adversaries(raw, pipeline, errors) -> tuple[AdversaryRun, ...]:
    out = []
    for where, entry in _objects(raw, "adversaries",
                                 {"id", "n_search", "t_bound", "rounds"},
                                 errors):
        adv = entry.get("id")
        if adv not in ADVERSARY_IDS:
            errors.append(f"{where}: unknown adversary {adv!r}; known: "
                          f"{', '.join(ADVERSARY_IDS)}")
            continue
        try:
            bounds = Bounds(**{k: v for k, v in entry.items() if k != "id"})
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
            continue
        if adv == "mindchange" and pipeline is not None \
                and pipeline.kind != "Sd":
            errors.append(f"{where}: mindchange needs a set-driven opponent; "
                          f"the pipeline is {pipeline.kind}")
            continue
        out.append(AdversaryRun(adv, bounds))
    return tuple(out)


_TOP_KEYS = {"learner", "combinators", "targets", "schedules", "horizon",
             "restrictions", "adversaries", "expect", "seed", "output"}


def validate_config(text: str) -> ExperimentConfig:
    """Parse and fully resolve a JSON config; raises with *all* errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])

    errors: list[str] = []
    for key in sorted(set(raw) - _TOP_KEYS):
        errors.append(f"unknown config key {key!r}")

    learner_id = raw.get("learner")
    if learner_id is None:
        errors.append("missing required key 'learner'")
    elif learner_id not in LEARNER_IDS:
        errors.append(f"unknown learner {learner_id!r}; known: "
                      f"{', '.join(LEARNER_IDS)}")

    comb = raw.get("combinators", [])
    if not isinstance(comb, list):
        errors.append("combinators must be a list")
        comb = []
    # a tuple, not the dict: an entry may be unhashable
    bad = [c for c in comb if c not in tuple(COMBINATORS)]
    for c in bad:
        errors.append(f"unknown combinator {c!r}; known: "
                      f"{', '.join(sorted(COMBINATORS))}")

    pipeline = None
    if learner_id in LEARNER_IDS and not bad:
        try:
            pipeline = build_pipeline(learner_id, comb)
        except ValueError as exc:
            errors.append(f"pipeline does not compose: {exc}")

    targets = _resolve_targets(raw.get("targets", []), errors)
    schedules = _resolve_schedules(raw.get("schedules", []), errors)

    horizon = raw.get("horizon")
    if horizon not in NATURALS or horizon < 1:
        errors.append("horizon must be an integer >= 1")
        horizon = 1

    restrictions = raw.get("restrictions", [])
    if not isinstance(restrictions, list):
        errors.append("restrictions must be a list")
        restrictions = []
    kept = []
    for rid in restrictions:
        if rid not in RESTRICTION_IDS:
            errors.append(f"unknown restriction {rid!r}; known: "
                          f"{', '.join(RESTRICTION_IDS)}")
        elif rid not in kept:
            kept.append(rid)

    adversaries = _resolve_adversaries(raw.get("adversaries", []),
                                       pipeline, errors)

    expect = raw.get("expect", "satisfied")
    if expect not in _EXPECTS:
        errors.append(f"expect must be one of {'/'.join(_EXPECTS)}")
        expect = "satisfied"

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        errors.append("seed must be an integer")
        seed = 0

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        errors.append("output must be a path string")
        output = None

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        learner_id=learner_id,
        combinator_ids=tuple(comb),
        targets=targets,
        schedules=schedules,
        horizon=horizon,
        restrictions=tuple(kept),
        adversaries=adversaries,
        expect=expect,
        seed=seed,
        output=output,
    )


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class CheckRow:
    language: str
    informant: str
    restriction: str
    satisfied: bool
    indices: tuple[int, ...] = ()
    element: int | None = None
    extensions: tuple[str, ...] = ()
    detail: str = ""
    scope: str = "family"
    verified: bool = True


@dataclass(frozen=True)
class AdversaryRow:
    adversary: str
    opponent: str
    kind: str
    target: str | None = None
    restriction: str | None = None
    indices: tuple[int, ...] = ()
    element: int | None = None
    params: tuple[tuple[str, int], ...] = ()
    rounds: int = 0
    split: tuple[str, str] | None = None
    note: str = ""
    verified: bool = True


@dataclass(frozen=True)
class Fingerprint:
    version: str
    seed: int
    schedule_seeds: tuple[int, ...] = ()


@dataclass(frozen=True)
class Report:
    pipeline: tuple[str, ...]
    horizon: int
    rows: tuple[CheckRow, ...] = ()
    adversaries: tuple[AdversaryRow, ...] = ()
    fingerprint: Fingerprint = Fingerprint(__version__, 0)


def _adversary_row(w: Witness) -> AdversaryRow:
    v = w.verdict
    return AdversaryRow(
        adversary=w.adversary,
        opponent=w.opponent,
        kind=w.kind,
        target=str(w.informant.target) if w.informant is not None else None,
        restriction=v.restriction if v is not None else None,
        indices=v.indices if v is not None else (),
        element=v.element if v is not None else None,
        params=tuple(sorted(w.params)),
        rounds=len(w.transcript),
        split=(str(w.split[0]), str(w.split[1])) if w.split else None,
        note=w.note or (v.detail if v is not None else ""),
        verified=verify_witness(w),
    )


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Evaluate every (target, schedule, restriction) cell, then adversaries.

    Cells are independent: each gets a fresh evaluation context, so the
    report does not depend on evaluation order. The config seed only
    goes into the fingerprint.
    """
    pipe = cfg.pipeline()

    rows = []
    for target in cfg.targets:
        for sched in cfg.schedules:
            informant = Informant(target.upset, sched.plan, sched.order,
                                  sched.seed or 0)
            seq = run(pipe, informant, cfg.horizon, EvalContext())
            for rid in cfg.restrictions:
                v = check(rid, seq)
                rows.append(CheckRow(
                    language=str(target.upset),
                    informant=sched.label(),
                    restriction=rid,
                    satisfied=v.satisfied,
                    indices=v.indices,
                    element=v.element,
                    extensions=tuple(str(seq[i].extension)
                                     for i in v.indices),
                    detail=v.detail,
                    scope=target.scope,
                    verified=v.satisfied or revalidate(v, seq),
                ))
    rows.sort(key=lambda r: (r.language, r.informant,
                             RESTRICTION_IDS.index(r.restriction)))

    adversaries = tuple(
        _adversary_row(run_adversary(arun.adversary, pipe, arun.bounds))
        for arun in cfg.adversaries
    )
    fingerprint = Fingerprint(
        version=__version__,
        seed=cfg.seed,
        schedule_seeds=tuple(sorted({s.seed for s in cfg.schedules
                                     if s.seed is not None})),
    )
    return Report((cfg.learner_id, *cfg.combinator_ids), cfg.horizon,
                  tuple(rows), adversaries, fingerprint)


def witness_found(report: Report) -> bool:
    return (any(not r.satisfied for r in report.rows)
            or any(a.kind != "exhausted" for a in report.adversaries))


def exit_code(report: Report, expect: str = "satisfied") -> int:
    """0 when the outcome matches the expectation, else 1."""
    return 0 if witness_found(report) == (expect == "witness") else 1


# ---------------------------------------------------------------------------
# serialization; the machine format is the JSON image of these dicts

def _to_json(obj) -> dict:
    """A report dataclass as an object: tuples become lists, `params` an
    object, and nested dataclasses objects in turn."""
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.name == "params":
            value = dict(value)
        elif isinstance(value, tuple):
            value = [_to_json(v) if dataclasses.is_dataclass(v) else v
                     for v in value]
        elif dataclasses.is_dataclass(value):
            value = _to_json(value)
        out[f.name] = value
    return out


def _from_json(hint, value):
    """The value of the annotated type whose `_to_json` image is `value`.

    A malformed image raises KeyError, TypeError or AttributeError. A
    tuple must come as an array and a scalar as its own type; a bool is
    not an int.
    """
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{
            f.name: tuple(sorted((k, _from_json(int, v))
                                 for k, v in value[f.name].items()))
            if f.name == "params"
            else _from_json(hints[f.name], value[f.name])
            for f in dataclasses.fields(hint)})
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _from_json(args[0], value)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected an array, got {value!r}")
        return tuple(_from_json(args[0], v) for v in value)
    if type(value) is not hint:
        raise TypeError(f"expected {hint.__name__}, got {value!r}")
    return value


def report_to_dict(report: Report) -> dict:
    return _to_json(report)


def report_from_dict(data: dict) -> Report:
    try:
        return _from_json(Report, data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a report document: {exc}") from None


def _format_result(row: CheckRow) -> str:
    if row.satisfied:
        return f"satisfied: {row.detail}" if row.detail else "satisfied"
    bits = [f"VIOLATED at {row.indices}"]
    if row.element is not None:
        bits.append(f"element {row.element}")
    if row.extensions:
        bits.append("extensions " + ", ".join(row.extensions))
    if row.detail:
        bits.append(row.detail)
    if not row.verified:
        bits.append("UNVERIFIED")
    return "; ".join(bits)


def format_adversary_row(a: AdversaryRow) -> str:
    head = f"{a.adversary} vs {a.opponent}: {a.kind}"
    bits = []
    if a.kind == "restriction-violation":
        bits.append(f"{a.restriction} at {a.indices}")
        if a.element is not None:
            bits.append(f"element {a.element}")
        if a.target is not None:
            bits.append(f"target {a.target}")
    elif a.kind == "mindchange-transcript":
        bits.append(f"{a.rounds} forced label changes")
    elif a.kind == "split-pair":
        bits.append(f"indistinguishable pair {a.split[0]} / {a.split[1]}")
    if a.note:
        bits.append(a.note)
    if a.kind != "exhausted":
        bits.append("verified" if a.verified else "UNVERIFIED")
    return head + ("; " + "; ".join(bits) if bits else "")


def _table(headers: tuple[str, ...], cells: list[tuple[str, ...]]) -> list[str]:
    widths = [max(len(h), *(len(row[i]) for row in cells), 0) if cells
              else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w)
                               for c, w in zip(row, widths)).rstrip())
    return lines


def render_report(report: Report, mode: str = "text") -> str:
    """Stable rendering; `machine` is JSON and parses back losslessly."""
    if mode == "machine":
        return json.dumps(report_to_dict(report), indent=2,
                          sort_keys=True) + "\n"
    if mode != "text":
        raise ValueError(f"unknown render mode {mode!r}")
    fp = report.fingerprint
    violated = sum(not r.satisfied for r in report.rows)
    witnesses = sum(a.kind != "exhausted" for a in report.adversaries)
    lines = [
        "inferlab report",
        f"pipeline: {' -> '.join(report.pipeline)}",
        f"horizon: {report.horizon}",
        f"version: {fp.version}",
        f"seed: {fp.seed}",
        f"checks: {len(report.rows)} ({violated} violated)",
        f"adversaries: {len(report.adversaries)} ({witnesses} witnesses)",
        "",
    ]
    lines += _table(
        ("language", "informant", "restriction", "scope", "result"),
        [(r.language, r.informant, r.restriction, r.scope, _format_result(r))
         for r in report.rows],
    )
    if report.adversaries:
        lines.append("")
        lines += [format_adversary_row(a) for a in report.adversaries]
    lines.append("")
    lines.append("outcome: " + ("witness found" if witness_found(report)
                                else "all satisfied"))
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> Report:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a report document: {exc}") from None
    return report_from_dict(data)


# ---------------------------------------------------------------------------
# demo scenarios: one executable claim per named behavior

def _demo_patching():
    base = learner("fin_pos")
    ok = True
    for lrn in (base, patched_learner(base)):
        for target in family_instances("finite", 4):
            seq = run(lrn, canonical_informant(target), 25, EvalContext())
            ok = ok and check("mon_b", seq).satisfied \
                and check("smon", seq).satisfied
    return ok, "forcing consistency kept mon_b and smon on finite targets"


def _demo_cons_wmon():
    wrapped = cons_wmon_wrapper(learner("cofinite"))
    seq = run(wrapped, canonical_informant(parse("10|1")), 25, EvalContext())
    ok = all(check(r, seq).satisfied for r in ("cons", "wmon", "bc"))
    return ok, "wrapped cofinite learner is consistent, weakly monotone, convergent"


def _demo_poison():
    lrn = dual_wmon_poison(to_set_driven(learner("segment")))
    fam = run(lrn, canonical_informant(language("segment", n=3)), 30,
              EvalContext())
    off = run(lrn, canonical_informant(parse("1011|001")), 30, EvalContext())
    ok = all(check(r, fam).satisfied for r in ("cons", "wmon_d", "bc")) \
        and check("cons", off).satisfied
    return ok, "poisoned segment learner stays consistent even off its family"


def _demo_sd_identity():
    g = learner("segment")
    informant = canonical_informant(language("segment", n=4))
    a = run(g, informant, 20, EvalContext())
    b = run(to_set_driven(g), informant, 20, EvalContext())
    ok = a.items == b.items
    return ok, "order-blind replay answers exactly like the original"


def _demo_separation(adversary_id, opponent_id, element_of):
    w = run_adversary(adversary_id, learner(opponent_id))
    ok = w.kind == "restriction-violation" and verify_witness(w)
    if ok and element_of is not None:
        ok = w.verdict.element == element_of(dict(w.params))
    site = (f"violation of {w.verdict.restriction} at {w.verdict.indices}, "
            f"element {w.verdict.element}") if w.verdict is not None \
        else w.note
    return ok, site


def _demo_mindchange():
    w = run_adversary("mindchange", learner("fresh_label"),
                      Bounds(t_bound=20, rounds=10))
    ok = (w.kind == "mindchange-transcript" and len(w.transcript) == 10
          and verify_witness(w))
    return ok, "10 forced label changes, one per offered fresh number"


def _demo_relabel():
    base = learner("cofinite")
    informant = canonical_informant(parse("10|1"))
    a = run(base, informant, 12, EvalContext())
    b = run(with_fresh_labels(base), informant, 12, EvalContext())
    ok = (probe_semantic(a, b) and check("bc", b).satisfied
          and check("ex", a).satisfied and not check("ex", b).satisfied)
    return ok, "relabelling keeps bc but breaks ex"


def demo_scenarios():
    """Named executable claims, each returning (holds, one-line summary)."""
    return (
        ("patching never breaks a monotone learner", _demo_patching),
        ("consistency and weak monotonicity by wrapping", _demo_cons_wmon),
        ("dual weak monotonicity survives poisoning", _demo_poison),
        ("set-driven collapse is invisible on canonical presentations",
         _demo_sd_identity),
        ("stream learner generalizes but will not specialize",
         lambda: _demo_separation("mon_vs_dual", "stream_mon",
                                  lambda p: 3 * p["m"] + 4)),
        ("even-numbers learner specializes but will not generalize",
         lambda: _demo_separation("dual_vs_mon", "even_dualmon",
                                  lambda p: 2 * p["m"])),
        ("segment learner is dual-strong but not strong",
         lambda: _demo_separation("dual_vs_smon", "segment", None)),
        ("finite memorizer is strong but not dual-strong",
         lambda: _demo_separation("smon_vs_dual", "fin_pos", None)),
        ("cofinite learner overshoots and must descend",
         lambda: _demo_separation("caut_tar", "cofinite", None)),
        ("naturals-first learner descends onto a finite set",
         lambda: _demo_separation("caut_fin", "n_or_fin", None)),
        ("fresh-label memorizer never stops changing its mind",
         _demo_mindchange),
        ("relabelling splits syntactic from semantic convergence",
         _demo_relabel),
    )
