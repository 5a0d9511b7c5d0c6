"""Golden verdicts: every restriction's verdict on catalog runs stays put.

Each catalog learner runs on every sampled family target (two per family)
under the four schedule kinds the judged sweeps use: canonical, shuffled,
shuffled behind a plan, and fresh behind a plan, at horizon 80. Every
`check_all` verdict is pinned as (restriction, satisfied, indices,
element, detail), one cell per line of `golden_checks.json`, compared as
text.

Regenerate after a deliberate change with
`PYTHONPATH=src python tests/test_golden_checks.py`.
"""

import json
from pathlib import Path

from inferlab.catalog import FAMILY_IDS, LEARNER_IDS, family_instances, learner
from inferlab.evidence import Informant
from inferlab.harness import Schedule
from inferlab.interaction import EvalContext, run
from inferlab.restrictions import check_all

GOLDEN = Path(__file__).with_name("golden_checks.json")
HORIZON = 80
SCHEDULES = (
    Schedule("canonical"),
    Schedule("shuffled", 5),
    Schedule("shuffled", 17, (29, 26, 9, 27)),
    Schedule("fresh", None, (3, 17, 0, 30)),
)


def _targets():
    out = []
    for fam in FAMILY_IDS:
        for u in family_instances(fam, 2):
            if u not in out:
                out.append(u)
    return out


def golden_cells() -> dict[str, list]:
    cells = {}
    for lid in LEARNER_IDS:
        for target in _targets():
            for sched in SCHEDULES:
                seq = run(learner(lid), Informant(target, sched.plan,
                          sched.order, sched.seed or 0), HORIZON, EvalContext())
                cells[f"{lid} {target} {sched.label()}"] = [
                    [v.restriction, v.satisfied, list(v.indices), v.element,
                     v.detail] for v in check_all(seq).values()]
    return cells


def _render(cells) -> str:
    lines = [f"{json.dumps(key)}: {json.dumps(row, separators=(',', ':'))}"
             for key, row in cells.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_golden_checks_unchanged():
    assert _render(golden_cells()) == GOLDEN.read_text()


def test_golden_checks_cover_every_cell_and_both_outcomes():
    cells = json.loads(GOLDEN.read_text())
    assert len(cells) == len(LEARNER_IDS) * len(_targets()) * len(SCHEDULES)
    for rid in ("mon", "mon_d", "smon_b", "caut", "caut_fin", "caut_inf"):
        outcomes = {v[1] for row in cells.values() for v in row
                    if v[0] == rid}
        assert outcomes == {True, False}, rid


if __name__ == "__main__":
    GOLDEN.write_text(_render(golden_cells()))
