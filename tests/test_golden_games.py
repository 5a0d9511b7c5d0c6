"""Golden adversary rows: every game's witness, notes included, stays put.

Each registered game is played against every compatible catalog learner
and against hand-built opponents that reach the exhausted branches (stage
replay divergence, a missing middle or third tier, a learner clinging to
the naturals, an element never admitted), at the default and at raised
bounds. The rows are the machine report's adversary entries, compared
with `golden_games.json` as text.

Regenerate after a deliberate change with
`PYTHONPATH=src python tests/test_golden_games.py`.
"""

import json
from pathlib import Path

from inferlab.adversary import ADVERSARY_IDS, DEFAULT_BOUNDS, Bounds, run_adversary
from inferlab.catalog import LEARNER_IDS, constant_learner, language, learner
from inferlab.evidence import DataSequence
from inferlab.harness import Report, adversary_row, report_to_dict
from inferlab.hypothesis import hypothesis_for
from inferlab.interaction import Learner
from inferlab.upset import EMPTY, NATURALS, from_elements

GOLDEN = Path(__file__).with_name("golden_games.json")
BOUNDS = (DEFAULT_BOUNDS, Bounds(160, 80, 12))


def _after(n_calls: int, inner: Learner, name: str) -> Learner:
    """`inner` for the first n_calls queries, the empty set from then on."""
    calls = 0
    empty = hypothesis_for(EMPTY)

    def fn(*args):
        nonlocal calls
        calls += 1
        return inner.fn(*args) if calls <= n_calls else empty

    return Learner(name, inner.kind, fn)


def _blind_to_ends() -> Learner:
    """stream_mon that never sees a c element, so it stops at the Y tier."""
    stream = learner("stream_mon")
    return Learner("stream_mon_no_c", "G", lambda d, ctx: stream.fn(
        DataSequence(tuple(e for e in d.items if e.value % 3 != 2)), ctx))


def _opponents(bounds: Bounds):
    """(name, factory) pairs; a factory builds a fresh opponent per game."""
    stage = bounds.n_search + 1  # queries in a game's opening run
    out = [(lid, lambda lid=lid: learner(lid)) for lid in LEARNER_IDS]
    out += [
        ("constant_naturals", lambda: constant_learner(NATURALS)),
        ("constant_zero", lambda: constant_learner(from_elements({0}))),
        ("constant_streamX", lambda: constant_learner(language("streamX"))),
        ("stream_mon_no_c", _blind_to_ends),
    ]
    for calls in (stage, 2 * stage):
        out += [
            (f"naturals_for_{calls}", lambda c=calls: _after(
                c, constant_learner(NATURALS), f"naturals_for_{c}")),
            (f"zero_for_{calls}", lambda c=calls: _after(
                c, constant_learner(from_elements({0})), f"zero_for_{c}")),
            (f"stream_mon_for_{calls}", lambda c=calls: _after(
                c, learner("stream_mon"), f"stream_mon_for_{c}")),
            (f"even_dualmon_for_{calls}", lambda c=calls: _after(
                c, learner("even_dualmon"), f"even_dualmon_for_{c}")),
        ]
    return out


def golden_rows() -> list[dict]:
    witnesses = []
    for bounds in BOUNDS:
        for _, make in _opponents(bounds):
            for aid in ADVERSARY_IDS:
                opponent = make()
                if aid == "mindchange" and opponent.kind != "Sd":
                    continue
                witnesses.append(run_adversary(aid, opponent, bounds))
    rows = tuple(adversary_row(w) for w in witnesses)
    return report_to_dict(Report((), 0, adversaries=rows))["adversaries"]


def _render(rows) -> str:
    return json.dumps(rows, indent=1) + "\n"


def test_golden_games_unchanged():
    assert _render(golden_rows()) == GOLDEN.read_text()


def test_golden_games_reach_every_exhausted_branch():
    notes = [row["note"] for row in json.loads(GOLDEN.read_text())]
    for needle in ("stage replay diverged at index",
                   "stage replay diverged before index", "middle tier",
                   "third tier", "clung to the naturals", "never admitted",
                   "never conjectured the naturals", "no finite descent"):
        assert any(needle in note for note in notes), needle


if __name__ == "__main__":
    GOLDEN.write_text(_render(golden_rows()))
