"""Separation games: staged informants, mind changes, external opponents."""

import dataclasses
import json
import sys
import threading
import time

import pytest

from inferlab import adversary
from inferlab.adversary import (
    ADVERSARY_IDS,
    Bounds,
    DEFAULT_BOUNDS,
    OpponentError,
    SubprocessOpponent,
    Witness,
    check_opponent,
    run_adversary,
    verify_witness,
)
from inferlab.catalog import LEARNER_IDS, constant_learner, language, learner
from inferlab.cli import main
from inferlab.evidence import DataSet
from inferlab.harness import ConfigError, validate_config
from inferlab.hypothesis import hypothesis_for
from inferlab.interaction import Learner, run
from inferlab.restrictions import evaluate_site
from inferlab.upset import EMPTY, from_elements, parse
from test_golden_games import BOUNDS as GOLDEN_BOUNDS


def test_bounds_validation():
    assert DEFAULT_BOUNDS == Bounds(100, 50, 10)
    with pytest.raises(ValueError):
        Bounds(n_search=0)
    with pytest.raises(ValueError):
        Witness("sideways", "caut", "x", DEFAULT_BOUNDS)


# ---------------------------------------------------------------------------
# cautiousness games

def test_caut_adversary_on_cofinite_learner():
    w = run_adversary("caut_inf", learner("cofinite"))
    assert w.kind == "restriction-violation"
    assert dict(w.params)["n0"] == 0
    assert w.verdict.indices == (0, 2)
    assert w.verdict.element == 1
    assert w.informant.target == parse("10|1")
    assert verify_witness(w)


def test_caut_tar_and_inf_variants():
    tar = run_adversary("caut_tar", learner("cofinite"))
    assert tar.verdict.restriction == "caut_tar"
    assert tar.verdict.indices == (0,)
    assert verify_witness(tar)
    inf = run_adversary("caut_inf", learner("cofinite"))
    assert inf.verdict.indices == (0, 2)
    assert verify_witness(inf)


def test_caut_adversary_exhausts_honestly():
    # never conjectures the naturals: nothing to descend from
    w = run_adversary("caut_inf", learner("fin_pos"))
    assert w.kind == "exhausted"
    assert "naturals" in w.note
    assert not w.verdict.satisfied  # bc failure on the naturals, as evidence
    assert verify_witness(w)
    assert run_adversary("caut_tar", learner("constant_empty")).kind == "exhausted"


def test_cautfin_adversary_on_n_or_fin():
    w = run_adversary("caut_fin", learner("n_or_fin"))
    assert w.kind == "restriction-violation"
    assert dict(w.params)["n0"] == 0
    assert w.verdict.restriction == "caut_fin"
    assert w.verdict.indices == (0, 1)
    assert verify_witness(w)


def test_cautfin_adversary_no_false_positive_on_cofinite():
    # cofinite conjectures only infinite sets; its descents never land
    # on a finite one, so the finite-descent game must come up empty
    w = run_adversary("caut_fin", learner("cofinite"))
    assert w.kind == "exhausted"
    assert "no finite descent" in w.note


# ---------------------------------------------------------------------------
# monotonicity games

def test_smon_vs_dual_grows_past_commitment():
    w = run_adversary("smon_vs_dual", learner("fin_pos"))
    assert w.kind == "restriction-violation"
    assert w.verdict.restriction == "smon_d"
    assert w.verdict.indices == (1, 2)
    assert w.verdict.element == 1
    assert w.informant.target == from_elements({0, 1})
    assert verify_witness(w)


def test_smon_vs_dual_exhausts_on_stubborn_opponent():
    w = run_adversary("smon_vs_dual", constant_learner(from_elements({0})))
    assert w.kind == "exhausted"
    assert "never admitted" in w.note


def test_dual_vs_smon_on_segment_learner():
    w = run_adversary("dual_vs_smon", learner("segment"))
    assert w.kind == "restriction-violation"
    assert w.verdict.restriction == "smon"
    assert w.verdict.indices == (0, 3)
    assert w.verdict.element == 2
    assert w.informant.target == from_elements({0, 1})
    assert verify_witness(w)


def test_mon_vs_dual_on_stream_learner():
    w = run_adversary("mon_vs_dual", learner("stream_mon"))
    assert w.kind == "restriction-violation"
    assert w.verdict.restriction == "mon_d"
    p = dict(w.params)
    assert (p["n_x"], p["n"], p["n_y"], p["m"]) == (0, 0, 5, 2)
    assert w.verdict.indices == (0, 5)
    assert w.verdict.element == 10  # the b past the cut
    assert w.informant.target == language("streamZ", n=0, m=2)
    assert verify_witness(w)


def test_dual_vs_mon_on_even_learner():
    w = run_adversary("dual_vs_mon", learner("even_dualmon"))
    assert w.kind == "restriction-violation"
    assert w.verdict.restriction == "mon"
    p = dict(w.params)
    assert (p["n_x"], p["n"], p["n_y"], p["m"]) == (0, 0, 2, 1)
    assert w.verdict.element == 2
    assert verify_witness(w)


def test_monotonicity_unknown_kind():
    with pytest.raises(ValueError):
        run_adversary("mon_vs_mon", learner("fin_pos"))


# ---------------------------------------------------------------------------
# mind changes

def test_mindchange_transcript_maxpos():
    w = run_adversary("mindchange", learner("maxpos"),
                      Bounds(t_bound=10, rounds=5))
    assert w.kind == "mindchange-transcript"
    assert len(w.transcript) == 5
    # each round offers the next fresh number and flips on its arrival
    assert [r.probe for r in w.transcript] == [0, 1, 2, 3, 4]
    assert [r.label_after for r in w.transcript] == [0, 1, 2, 3, 4]
    assert verify_witness(w)


def test_mindchange_transcript_fresh_label():
    w = run_adversary("mindchange", learner("fresh_label"),
                      Bounds(t_bound=10, rounds=10))
    assert len(w.transcript) == 10
    labels = [r.label_after for r in w.transcript]
    assert len(set(labels)) == 10
    assert verify_witness(w)


def test_mindchange_split_pair_on_constant():
    w = run_adversary("mindchange", learner("constant_empty"),
                      Bounds(t_bound=6, rounds=4))
    assert w.kind == "split-pair"
    assert dict(w.params)["round"] == 0
    assert w.split == (from_elements({0}), from_elements({1}))
    assert w.data == DataSet(frozenset())
    assert verify_witness(w)


def test_mindchange_requires_set_driven():
    with pytest.raises(OpponentError):
        run_adversary("mindchange", learner("segment"))


_WRONG_MODE = "mindchange needs a set-driven opponent; the pipeline is {}"


def test_wrong_mode_mindchange_opponent_gets_one_message(capsys):
    """Config validation, the CLI and the game refuse it in the same words."""
    message = _WRONG_MODE.format("G")
    with pytest.raises(ConfigError) as info:
        validate_config(json.dumps({"learner": "segment", "horizon": 10,
                                    "adversaries": [{"id": "mindchange"}]}))
    assert info.value.errors == [f"adversaries[0]: {message}"]
    assert main(["adversary", "mindchange", "--opponent", "segment"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    empty = hypothesis_for(EMPTY)
    for opponent in (learner("segment"),
                     Learner("psd", "Psd", lambda d, n, ctx: empty),
                     Learner("it", "It", lambda h, ex, ctx: h)):
        with pytest.raises(OpponentError) as info:
            run_adversary("mindchange", opponent)
        assert str(info.value) == _WRONG_MODE.format(opponent.kind)


@pytest.mark.parametrize("bounds", GOLDEN_BOUNDS)
def test_game_verdicts_name_their_sites_least_witness(bounds):
    """Every violation a game finds against a catalog opponent names the
    least witness of its site: no smaller natural witnesses that site."""
    violated = set()
    for lid in LEARNER_IDS:
        for aid in ADVERSARY_IDS:
            opponent = learner(lid)
            try:
                check_opponent(aid, opponent.kind)
            except ValueError:
                continue
            w = run_adversary(aid, opponent, bounds)
            if w.kind != "restriction-violation":
                continue
            violated.add(aid)
            v = w.verdict
            seq = run(opponent, w.informant, w.horizon)
            assert evaluate_site(v.restriction, seq, v.indices, v.element)
            assert not any(evaluate_site(v.restriction, seq, v.indices, x)
                           for x in range(v.element)), (aid, lid)
    assert violated == set(ADVERSARY_IDS) - {"mindchange"}


def test_tampered_witnesses_fail_verification():
    w = run_adversary("smon_vs_dual", learner("fin_pos"))
    bad_verdict = dataclasses.replace(w.verdict, indices=(0, 1))
    assert not verify_witness(dataclasses.replace(w, verdict=bad_verdict))
    wrong_el = dataclasses.replace(w.verdict, element=5)
    assert not verify_witness(dataclasses.replace(w, verdict=wrong_el))

    m = run_adversary("mindchange", learner("maxpos"),
                      Bounds(t_bound=5, rounds=3))
    r0 = m.transcript[0]
    forged = (dataclasses.replace(r0, label_after=r0.label_after + 1),
              *m.transcript[1:])
    assert not verify_witness(dataclasses.replace(m, transcript=forged))


def _mindchange_transcript():
    return run_adversary("mindchange", learner("maxpos"),
                         Bounds(t_bound=5, rounds=3))


def _split_pair():
    return run_adversary("mindchange", learner("constant_empty"),
                         Bounds(t_bound=6, rounds=4))


def _violation():
    return run_adversary("smon_vs_dual", learner("fin_pos"))


def _first_round(w, **changes):
    return (dataclasses.replace(w.transcript[0], **changes), *w.transcript[1:])


_TAMPERED = {
    "transcript cut to one round": (_mindchange_transcript, lambda w: {
        "transcript": w.transcript[:1]}),
    "params claim nine rounds": (_mindchange_transcript, lambda w: {
        "params": (("rounds", 9),)}),
    "cut transcript with matching params": (_mindchange_transcript, lambda w: {
        "transcript": w.transcript[:1], "params": (("rounds", 1),)}),
    "mindchange data dropped": (_mindchange_transcript, lambda w: {
        "data": None}),
    "empty transcript": (_mindchange_transcript, lambda w: {
        "transcript": (), "params": (("rounds", 0),)}),
    "label before a round": (_mindchange_transcript, lambda w: {
        "transcript": _first_round(w, label_before=7)}),
    "probe of a round": (_mindchange_transcript, lambda w: {
        "transcript": _first_round(w, probe=w.transcript[0].probe + 2)}),
    "split replaced": (_split_pair, lambda w: {
        "split": (parse("11|0"), parse("001|0"))}),
    "split of one set twice": (_split_pair, lambda w: {
        "split": (w.split[0], w.split[0])}),
    "split data dropped": (_split_pair, lambda w: {"data": None}),
    "no opponent to replay": (_violation, lambda w: {"opponent_ref": None}),
    "violation without informant": (_violation, lambda w: {
        "informant": None}),
    "violation without verdict": (_violation, lambda w: {"verdict": None}),
    "violation marked satisfied": (_violation, lambda w: {
        "verdict": dataclasses.replace(w.verdict, satisfied=True)}),
}


@pytest.mark.parametrize("case", sorted(_TAMPERED))
def test_verify_witness_refuses_tampering(case):
    play, changes = _TAMPERED[case]
    w = play()
    assert w.kind != "exhausted" and verify_witness(w)
    assert not verify_witness(dataclasses.replace(w, **changes(w)))


def test_run_adversary_dispatch_and_determinism():
    a = run_adversary("mon_vs_dual", learner("stream_mon"))
    b = run_adversary("mon_vs_dual", learner("stream_mon"))
    assert a == b
    assert run_adversary("mindchange", learner("maxpos"),
                         Bounds(10, 5, 3)).kind == "mindchange-transcript"
    assert run_adversary("caut_fin", learner("n_or_fin")).kind == \
        "restriction-violation"
    with pytest.raises(ValueError):
        run_adversary("nope", learner("fin_pos"))
    assert set(ADVERSARY_IDS) == {
        "caut_tar", "caut_inf", "caut_fin", "smon_vs_dual", "dual_vs_smon",
        "mon_vs_dual", "dual_vs_mon", "mindchange",
    }


# ---------------------------------------------------------------------------
# external opponents

_FIN_POS_CHILD = r"""
import sys
for line in sys.stdin:
    line = line.strip()
    if not line.startswith("Q"):
        continue
    payload = line[1:].strip()
    xs = set()
    if payload:
        for part in payload.split(","):
            v, lab = part.split(":")
            if lab == "+":
                xs.add(int(v))
    bits = "".join("1" if i in xs else "0" for i in range(max(xs) + 1)) if xs else ""
    print(f"H {len(xs)} {bits}|0", flush=True)
"""


def test_subprocess_opponent_round_trip():
    with SubprocessOpponent([sys.executable, "-c", _FIN_POS_CHILD]) as opp:
        h = opp.ask(DataSet(frozenset([(0, 1), (2, 0), (3, 1)])))
        assert h.label == 2
        assert h.extension == from_elements({0, 3})
        assert opp.ask(DataSet(frozenset())).extension == from_elements(())
        # drive a real game over the pipe
        w = run_adversary("mindchange", opp.as_learner(),
                          Bounds(t_bound=3, rounds=3))
        assert w.kind == "mindchange-transcript"


def test_subprocess_opponent_malformed_reply():
    child = 'import sys\nfor _ in sys.stdin: print("BOGUS", flush=True)'
    with SubprocessOpponent([sys.executable, "-c", child]) as opp:
        with pytest.raises(OpponentError, match="malformed"):
            opp.ask(DataSet(frozenset([(0, 1)])))


@pytest.mark.parametrize("reply,message", [
    (b"H 1 \xff|1\n", "malformed reply"),  # not UTF-8
    (b"H 1 2|x\n", "malformed reply"),  # no extension
    (b"H +5 |1\n", "malformed reply"),  # labels are ASCII decimal digits
    (b"H 5_0 |1\n", "malformed reply"),
    ("H \u0665 |1\n".encode(), "malformed reply"),
    (b"H -0 |1\n", "malformed reply"),
    (b"", "opponent closed its output"),
])
def test_subprocess_opponent_bad_reply_fails_at_once(
        reply, message, monkeypatch):
    thread_errors = []
    monkeypatch.setattr(threading, "excepthook", thread_errors.append)
    child = (f"import sys\nsys.stdin.readline()\n"
             f"sys.stdout.buffer.write({reply!r})\nsys.stdout.flush()")
    with SubprocessOpponent([sys.executable, "-c", child], timeout=5.0) as opp:
        start = time.monotonic()
        with pytest.raises(OpponentError, match=message):
            opp.ask(DataSet(frozenset([(0, 1)])))
        assert time.monotonic() - start < 2.5
        assert thread_errors == []


@pytest.mark.parametrize("kind", ["Psd", "It"])
def test_subprocess_opponent_rejects_unsupported_mode(kind, monkeypatch):
    def spawn(*args, **kwargs):
        raise AssertionError("child process spawned")

    monkeypatch.setattr(adversary.subprocess, "Popen", spawn)
    with pytest.raises(ValueError, match=kind):
        SubprocessOpponent([sys.executable, "-c", _FIN_POS_CHILD], kind=kind)


def test_subprocess_opponent_timeout():
    child = "import sys, time\nsys.stdin.readline()\ntime.sleep(5)"
    with SubprocessOpponent([sys.executable, "-c", child], timeout=0.3) as opp:
        with pytest.raises(OpponentError, match="timed out"):
            opp.ask(DataSet(frozenset([(0, 1)])))


def test_subprocess_opponent_close_ends_a_silent_child():
    child = "import sys, time\nsys.stdin.readline()\ntime.sleep(30)"
    opp = SubprocessOpponent([sys.executable, "-c", child], timeout=0.3)
    with pytest.raises(OpponentError, match="timed out"):
        opp.ask(DataSet(frozenset([(0, 1)])))
    start = time.monotonic()
    opp.close()
    assert time.monotonic() - start < 2
    assert opp._proc.returncode != 0
