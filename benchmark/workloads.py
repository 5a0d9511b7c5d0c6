"""Workload definitions: seeded configs in, one timed op per judged cell or game.

Each workload is written as the JSON configs a user would hand to
`inferlab check`. Setup validates them with `harness.validate_config`
(which also builds the pipelines) and splits the result into ops: one
(target, schedule) cell for the sweeps, one adversary run for the games,
so every op can be timed on its own through `harness.run_experiment`.

The workload seed is the only input. It fixes the shuffled-schedule
seeds, the plan heads and the op order; the program sees only the
generated configs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from dataclasses import dataclass

WORKLOADS = ("sweep-judge", "sweep-wrapped", "games")

# sweep-judge: plain learners, every restriction, a horizon where the O(H^2)
# pair scans of the monotone and cautious checks dominate.
JUDGE_LEARNERS = ("fin_pos", "cofinite", "maxpos", "n_or_fin")
JUDGE_HORIZON = 80
JUDGE_FAMILY_COUNT = 2

# sweep-wrapped: combinator pipelines checked only with linear checks, so no
# pair scan runs and the per-prefix wrapper memos do the work.
WRAPPED_PIPELINES = (
    ("cofinite", ("cons_wmon",)),
    ("segment", ("cons_wmon_fourcase",)),
    ("segment", ("to_sd", "dual_wmon_poison")),
    ("fin_pos", ("patch",)),
)
WRAPPED_RESTRICTIONS = ("cons", "caut_tar", "bc", "ex")
WRAPPED_HORIZON = 60
WRAPPED_FAMILY_COUNT = 4

# games: every adversary against every compatible catalog opponent, at the
# default bounds and at one raised bound set.
RAISED_BOUNDS = {"n_search": 160, "t_bound": 80, "rounds": 12}


@dataclass(frozen=True)
class Op:
    """One timed unit of work: a single-cell or single-game config."""

    key: str
    kind: str  # "cell" or "game"
    cfg: object  # harness.ExperimentConfig


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _plan(rng: random.Random) -> list[int]:
    return rng.sample(range(32), 4)


def configs(workload: str, seed: int) -> list[dict]:
    """The JSON configs of one workload at one seed."""
    rng = _rng(workload, seed)
    if workload == "sweep-judge":
        from inferlab import RESTRICTION_IDS

        schedules = [
            {"order": "canonical"},
            {"order": "shuffled", "seed": rng.randrange(1, 10**6)},
            {"order": "shuffled", "seed": rng.randrange(1, 10**6),
             "plan": _plan(rng)},
            {"order": "fresh", "plan": _plan(rng)},
        ]
        return [{
            "learner": lid,
            "targets": [{"family": "*", "count": JUDGE_FAMILY_COUNT}],
            "schedules": schedules,
            "horizon": JUDGE_HORIZON,
            "restrictions": list(RESTRICTION_IDS),
        } for lid in JUDGE_LEARNERS]
    if workload == "sweep-wrapped":
        schedules = [{"order": "canonical"},
                     {"order": "fresh", "plan": _plan(rng)}]
        return [{
            "learner": lid,
            "combinators": list(comb),
            "targets": [{"family": "*", "count": WRAPPED_FAMILY_COUNT}],
            "schedules": schedules,
            "horizon": WRAPPED_HORIZON,
            "restrictions": list(WRAPPED_RESTRICTIONS),
        } for lid, comb in WRAPPED_PIPELINES]
    if workload == "games":
        from inferlab import ADVERSARY_IDS, LEARNER_IDS, learner

        out = []
        for lid in LEARNER_IDS:
            # mindchange needs a set-driven opponent; validation rejects others
            ids = [a for a in ADVERSARY_IDS
                   if a != "mindchange" or learner(lid).kind == "Sd"]
            out.append({
                "learner": lid,
                "horizon": 1,
                "adversaries": [{"id": a, **bounds} for bounds in
                                ({}, RAISED_BOUNDS) for a in ids],
            })
        return out
    raise ValueError(f"unknown workload {workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")


def _cell_key(cfg) -> str:
    (target,), (sched,) = cfg.targets, cfg.schedules
    return (f"{'+'.join((cfg.learner_id, *cfg.combinator_ids))} "
            f"{target.upset} {sched.label()} H={cfg.horizon}")


def _game_key(cfg) -> str:
    (arun,) = cfg.adversaries
    b = arun.bounds
    return (f"{arun.adversary} vs {cfg.learner_id} "
            f"n_search={b.n_search} t_bound={b.t_bound} rounds={b.rounds}")


def build_ops(workload: str, seed: int, harness) -> list[Op]:
    """Validate the workload's configs and split them into seeded-order ops.

    `harness` is the `inferlab.harness` module, passed in so a traced run
    goes through whatever bindings the tracer installed.
    """
    ops = []
    for raw in configs(workload, seed):
        cfg = harness.validate_config(json.dumps(raw))
        if cfg.adversaries:
            for arun in cfg.adversaries:
                one = dataclasses.replace(cfg, adversaries=(arun,))
                ops.append(Op(_game_key(one), "game", one))
        else:
            for target in cfg.targets:
                for sched in cfg.schedules:
                    one = dataclasses.replace(cfg, targets=(target,),
                                              schedules=(sched,))
                    ops.append(Op(_cell_key(one), "cell", one))
    _rng(workload, seed).shuffle(ops)
    return ops


def digest(kind: str, report) -> str:
    """Short digest of what an op decided, for the reference check.

    A cell pins verdict, indices, element and extensions per restriction;
    a game pins kind, site, params and whether the witness re-verified.
    """
    if kind == "cell":
        facts = [[r.restriction, r.satisfied, list(r.indices), r.element,
                  list(r.extensions)] for r in report.rows]
    else:
        facts = [[a.kind, a.target, a.restriction, list(a.indices),
                  a.element, [list(p) for p in a.params], a.rounds,
                  list(a.split) if a.split else None, a.verified]
                 for a in report.adversaries]
    text = json.dumps(facts, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verified(report) -> bool:
    """Every violated row revalidates and every witness re-verifies."""
    return (all(r.verified for r in report.rows)
            and all(a.verified for a in report.adversaries))
