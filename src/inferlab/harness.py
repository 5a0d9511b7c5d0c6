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
    check_opponent,
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
    """A resolved config; `validate_config` fills each field from `_SCHEMA`."""

    learner_id: str
    combinator_ids: tuple[str, ...]
    targets: tuple[Target, ...]
    schedules: tuple[Schedule, ...]
    horizon: int
    restrictions: tuple[str, ...]
    adversaries: tuple[AdversaryRun, ...]
    expect: str
    output: str | None

    def pipeline(self) -> Learner:
        return build_pipeline(self.learner_id, self.combinator_ids)


def build_pipeline(learner_id: str, combinator_ids=()) -> Learner:
    base = learner(learner_id)
    for name in combinator_ids:
        base = combinator(name)(base)
    return base


# ---------------------------------------------------------------------------
# validation

def _unknown(what: str, value, known) -> str:
    return f"unknown {what} {value!r}; known: {', '.join(known)}"


def _ids(value, name: str, what: str, known: tuple, errors) -> tuple | None:
    """The config list `value` of ids from `known`, or None when one is
    unknown. A value that is not a list is reported and read as empty."""
    if not isinstance(value, list):
        errors.append(f"{name} must be a list")
        return ()
    # `known` is a tuple, not a set: an entry may be unhashable
    bad = [x for x in value if x not in known]
    errors.extend(_unknown(what, x, known) for x in bad)
    return None if bad else tuple(value)


def _entries(raw, name: str, keys: set, resolve, errors) -> list:
    """`resolve` of each entry of the config list `raw`. An entry that is
    not an object, has a key outside `keys`, or makes `resolve` raise
    ValueError is reported under its position and skipped."""
    if not isinstance(raw, list):
        errors.append(f"{name} must be a list")
        return []
    out = []
    for i, entry in enumerate(raw):
        try:
            if not isinstance(entry, dict):
                raise ValueError("must be an object")
            if set(entry) - keys:
                raise ValueError(f"unknown keys {sorted(set(entry) - keys)}")
            out.append(resolve(entry))
        except ValueError as exc:
            errors.append(f"{name}[{i}]: {exc}")
    return out


def _resolve_learner(value, cfg, errors) -> str | None:
    if value in LEARNER_IDS:
        return value
    errors.append("missing required key 'learner'" if value is None
                  else _unknown("learner", value, LEARNER_IDS))
    return None


def _resolve_combinators(value, cfg, errors) -> tuple[str, ...] | None:
    """The combinator ids, or None when they do not make a pipeline."""
    comb = _ids(value, "combinators", "combinator",
                tuple(sorted(COMBINATORS)), errors)
    if comb is not None and cfg["learner_id"] is not None:
        try:
            build_pipeline(cfg["learner_id"], comb)
        except ValueError as exc:
            errors.append(f"pipeline does not compose: {exc}")
            return None
    return comb


def _language_entry(entry) -> list[UPSet]:
    lang_id = entry["language"]
    if not isinstance(lang_id, str):
        raise ValueError("language id must be a string")
    fixed = entry.get("params", {})
    sweep = entry.get("sweep", {})
    if not isinstance(fixed, dict) or not isinstance(sweep, dict):
        raise ValueError("params and sweep must be objects")
    for key, values in sweep.items():
        if key in fixed:
            raise ValueError(f"parameter {key!r} is both fixed and swept")
        if not isinstance(values, list) or not values:
            raise ValueError(f"sweep value for {key!r} must be a "
                             "non-empty list")
    built, last_error = [], None
    for combo in itertools.product(*sweep.values()):
        params = {**fixed, **dict(zip(sweep, combo))}
        try:
            built.append(language(lang_id, **params))
        except ValueError as exc:
            last_error = exc  # sweeps may cross invalid corners; skip those
    if not built:
        raise last_error
    return built


# Each kind of targets entry and the keys that only that kind takes.
_TARGET_KINDS = {"language": ("params", "sweep"), "family": ("count",),
                 "upset": ()}


def _target_entry(entry) -> tuple[list[UPSet], str]:
    """The sets one targets entry names, and their scope."""
    kinds = [k for k in _TARGET_KINDS if k in entry]
    if len(kinds) != 1:
        raise ValueError("needs exactly one of language/family/upset")
    stray = sorted(set(entry) - {kinds[0], *_TARGET_KINDS[kinds[0]]})
    if stray:
        owner = next(k for k in _TARGET_KINDS if stray[0] in _TARGET_KINDS[k])
        raise ValueError(f"key {stray[0]!r} belongs to {owner} targets, "
                         f"not {kinds[0]}")
    if kinds[0] == "upset":
        try:
            return [parse(entry["upset"])], "family"
        except ValueError as exc:
            raise ValueError(f"bad set notation {entry['upset']!r}: "
                             f"{exc}") from None
    if kinds[0] == "language":
        return _language_entry(entry), "family"
    family = entry["family"]
    count = entry.get("count", 8)
    if count not in NATURALS or count < 1:
        raise ValueError("count must be a positive integer")
    if family == "*":
        sets = [u for fam in FAMILY_IDS for u in family_instances(fam, count)]
        return sets, "global (sampled)"
    if family not in FAMILY_IDS:
        raise ValueError(f"{_unknown('family', family, FAMILY_IDS)} or '*'")
    return list(family_instances(family, count)), "family"


def _resolve_targets(raw, cfg, errors) -> tuple[Target, ...]:
    targets = {}  # the first entry to name a set gives its scope
    keys = {*_TARGET_KINDS, *itertools.chain(*_TARGET_KINDS.values())}
    for sets, scope in _entries(raw, "targets", keys, _target_entry, errors):
        for u in sets:
            targets.setdefault(u, Target(u, scope))
    return tuple(targets.values())


def _schedule_entry(entry) -> Schedule:
    order = entry.get("order", "canonical")
    if order not in ORDERS:
        raise ValueError(_unknown("order", order, ORDERS))
    seed = entry.get("seed")
    if order == "shuffled":
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError("shuffled order requires an explicit integer "
                             "seed")
    elif seed is not None:
        raise ValueError("seed is only meaningful for shuffled order")
    plan = entry.get("plan", [])
    if not isinstance(plan, list) or not all(v in NATURALS for v in plan):
        raise ValueError("plan must be a list of naturals")
    return Schedule(order, seed, tuple(plan))


def _resolve_schedules(raw, cfg, errors) -> tuple[Schedule, ...]:
    # equal schedules would give equal report rows: keep the first
    return tuple(dict.fromkeys(_entries(
        raw, "schedules", {"order", "seed", "plan"}, _schedule_entry,
        errors))) or (Schedule(),)


def _resolve_adversaries(raw, cfg, errors) -> tuple[AdversaryRun, ...]:
    lid, comb = cfg["learner_id"], cfg["combinator_ids"]

    def adversary(entry) -> AdversaryRun:
        adv = entry.get("id")
        if adv not in ADVERSARY_IDS:
            raise ValueError(_unknown("adversary", adv, ADVERSARY_IDS))
        bounds = Bounds(**{k: v for k, v in entry.items() if k != "id"})
        if None not in (lid, comb):
            check_opponent(adv, build_pipeline(lid, comb).kind)
        return AdversaryRun(adv, bounds)

    return tuple(_entries(raw, "adversaries",
                          {"id", "n_search", "t_bound", "rounds"},
                          adversary, errors))


def _resolve_restrictions(value, cfg, errors) -> tuple[str, ...] | None:
    rids = _ids(value, "restrictions", "restriction", RESTRICTION_IDS, errors)
    return None if rids is None else tuple(dict.fromkeys(rids))


def _scalar(ok, message):
    """The resolver that keeps a value passing `ok` and reports the rest."""
    def resolve(value, cfg, errors):
        if ok(value):
            return value
        errors.append(message)
        return None
    return resolve


# Each top-level config key: its ExperimentConfig field, the value an absent
# key takes, and its resolver. Resolvers run in this order, and each reads the
# fields resolved before it in `cfg` (None for a refused learner or pipeline).
_SCHEMA = {
    "learner": ("learner_id", None, _resolve_learner),
    "combinators": ("combinator_ids", [], _resolve_combinators),
    "targets": ("targets", [], _resolve_targets),
    "schedules": ("schedules", [], _resolve_schedules),
    "horizon": ("horizon", None,
                _scalar(lambda h: h in NATURALS and h >= 1,
                        "horizon must be an integer >= 1")),
    "restrictions": ("restrictions", [], _resolve_restrictions),
    "adversaries": ("adversaries", [], _resolve_adversaries),
    "expect": ("expect", "satisfied",
               _scalar(lambda e: e in _EXPECTS,
                       f"expect must be one of {'/'.join(_EXPECTS)}")),
    "output": ("output", None,
               _scalar(lambda o: o is None or isinstance(o, str),
                       "output must be a path string")),
}


def validate_config(text: str) -> ExperimentConfig:
    """Parse and fully resolve a JSON config; raises with *all* errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["config must be a JSON object"])

    errors = [f"unknown config key {key!r}"
              for key in sorted(raw.keys() - _SCHEMA.keys())]
    cfg = {}
    for key, (field, default, resolve) in _SCHEMA.items():
        cfg[field] = resolve(raw.get(key, default), cfg, errors)
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**cfg)


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
    schedule_seeds: tuple[int, ...] = ()


@dataclass(frozen=True)
class Report:
    pipeline: tuple[str, ...]
    horizon: int
    rows: tuple[CheckRow, ...] = ()
    adversaries: tuple[AdversaryRow, ...] = ()
    fingerprint: Fingerprint = Fingerprint(__version__)


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
    report does not depend on evaluation order.
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
    tuple must come as an array, as long as its hint unless that ends in
    `...`, and a scalar as its own type; a bool is not an int.
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
        if args[-1] is ...:
            args = (args[0],) * len(value)
        if len(value) != len(args):
            raise TypeError(f"expected {len(args)} items, got {value!r}")
        return tuple(map(_from_json, args, value))
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
