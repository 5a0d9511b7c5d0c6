from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferlab import evidence
from inferlab.adversary import run_adversary, verify_witness
from inferlab.catalog import learner
from inferlab.combinators import cons_wmon_wrapper
from inferlab.evidence import (
    ORDERS,
    DataSequence,
    DataSet,
    Example,
    Informant,
    canonical_informant,
    content,
    pos,
    prefix,
)
from inferlab.hypothesis import Hypothesis, hypothesis_for
from inferlab.interaction import (
    INITIAL_HYPOTHESIS,
    KINDS,
    EvalContext,
    HypSequence,
    Learner,
    as_full_information,
    run,
    with_fresh_labels,
)
from inferlab.restrictions import check_all
from inferlab.upset import EMPTY, from_elements, parse, union


def sd_positives(d, ctx):
    return hypothesis_for(from_elements(pos(d)))


FIN_POS = Learner("positives", "Sd", sd_positives)

LENGTH_AWARE = Learner(
    "length-aware", "Psd", lambda d, n, ctx: Hypothesis(n, from_elements(pos(d)))
)

IT_COLLECT = Learner(
    "collect",
    "It",
    lambda h, ex, ctx: hypothesis_for(
        union(h.extension, from_elements({ex.value})) if ex.label else h.extension
    ),
)


def test_learner_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Learner("x", "SD", sd_positives)


def test_initial_hypothesis_is_empty():
    assert INITIAL_HYPOTHESIS.extension == EMPTY
    assert INITIAL_HYPOTHESIS.label % 2 == 0


def test_run_produces_horizon_plus_one_items():
    inf = canonical_informant(parse("|10"))
    seq = run(FIN_POS, inf, 6)
    assert len(seq) == 7
    assert seq.learner_name == "positives"
    assert seq.final is seq[6]
    with pytest.raises(ValueError):
        run(FIN_POS, inf, -1)


def test_run_on_sd_learner_tracks_positives():
    inf = canonical_informant(parse("|10"))
    seq = run(FIN_POS, inf, 5)
    assert seq[0].extension == EMPTY
    assert seq[3].extension == from_elements({0, 2})
    assert seq[5].extension == from_elements({0, 2, 4})


def test_run_is_deterministic_and_prefix_coherent():
    inf = Informant(parse("1|0"), (0, (2, 0)), "shuffled", 5)
    long = run(FIN_POS, inf, 12)
    again = run(FIN_POS, inf, 12)
    short = run(FIN_POS, inf, 7)
    assert long.items == again.items
    assert short.items == long.items[:8]


def test_psd_learner_sees_length():
    inf = canonical_informant(parse("|10"))
    seq = run(LENGTH_AWARE, inf, 4)
    assert [h.label for h in seq.items] == [0, 1, 2, 3, 4]


def test_iterative_run_threads_previous_hypothesis():
    inf = canonical_informant(parse("|10"))
    seq = run(IT_COLLECT, inf, 5)
    assert seq[0] == INITIAL_HYPOTHESIS
    # example i arrives between items i and i+1
    assert seq[1].extension == from_elements({0})
    assert seq[2].extension == from_elements({0})
    assert seq[3].extension == from_elements({0, 2})
    assert seq[5].extension == from_elements({0, 2, 4})


def test_as_full_information_agrees_with_native_run():
    inf = canonical_informant(parse("|10"))
    for learner in (FIN_POS, LENGTH_AWARE, IT_COLLECT):
        lifted = as_full_information(learner)
        assert lifted.kind == "G"
        native = run(learner, inf, 8)
        via_g = run(lifted, inf, 8)
        assert native.items == via_g.items
    assert as_full_information(FIN_POS).name == "positives[G]"
    g = Learner("id", "G", lambda d, ctx: INITIAL_HYPOTHESIS)
    assert as_full_information(g) is g


def test_fresh_labels_are_odd_and_increasing():
    ctx = EvalContext()
    labels = [ctx.fresh_label() for _ in range(5)]
    assert labels == [1, 3, 5, 7, 9]


def _oracle_run(lrn, informant, horizon, ctx):
    """Reference loop: rebuild every prefix from scratch at every step."""
    if lrn.kind == "It":
        items = [INITIAL_HYPOTHESIS]
        for i in range(horizon):
            items.append(lrn.fn(items[-1], informant.example_at(i), ctx))
        return items
    items = []
    for n in range(horizon + 1):
        d = prefix(informant, n)
        if lrn.kind == "G":
            items.append(lrn.fn(d, ctx))
        elif lrn.kind == "Psd":
            items.append(lrn.fn(content(d), n, ctx))
        else:
            items.append(lrn.fn(content(d), ctx))
    return items


_PIPELINES = (
    FIN_POS,
    LENGTH_AWARE,
    IT_COLLECT,
    learner("segment"),
    learner("cofinite"),
    with_fresh_labels(learner("stream_mon")),
    with_fresh_labels(LENGTH_AWARE),
    with_fresh_labels(IT_COLLECT),
    cons_wmon_wrapper(learner("cofinite")),
    cons_wmon_wrapper(with_fresh_labels(learner("fin_pos"))),
)

_INFORMANTS = (
    canonical_informant(parse("10|1")),
    Informant(parse("1|0"), (0, (2, 0), 0), "shuffled", 5),
    Informant(parse("|10"), (Example(4, 1), Example(1, 0)), "fresh"),
)


@pytest.mark.parametrize("lrn", _PIPELINES, ids=lambda lrn: lrn.name)
def test_run_matches_rebuilding_oracle(lrn):
    for informant in _INFORMANTS:
        ctx, oracle_ctx = EvalContext(), EvalContext()
        seq = run(lrn, informant, 14, ctx)
        assert list(seq.items) == _oracle_run(lrn, informant, 14, oracle_ctx)
        assert ctx.memo == oracle_ctx.memo


@pytest.mark.parametrize("lrn", (
    Learner("first", "G", lambda d, ctx: INITIAL_HYPOTHESIS),
    LENGTH_AWARE,
    FIN_POS,
    IT_COLLECT,
), ids=lambda lrn: lrn.kind)
def test_run_enumerates_the_informant_once(lrn, monkeypatch):
    """Whatever reads an informant reads it through its one buffer, so
    over runs of any length, a check of a sequence built by hand and a
    game with the replay of its witness, each index of each informant is
    read exactly once in total. An `Informant` reads the values it shows
    through `_values`, in bulk and one index alike, so the indices of the
    ranges it is asked for are the reads."""
    calls = []
    values = Informant._values

    def counted(self, i, n):
        # keeps the informant alive: ids stay apart
        calls.extend((self, j) for j in range(i, n))
        return values(self, i, n)

    monkeypatch.setattr(Informant, "_values", counted)
    inf = Informant(parse("10|1"), (3, 3), "shuffled", 2)
    for horizon in (0, 40, 1, 60):
        run(lrn, inf, horizon)
    assert [i for _, i in calls] == list(range(60))
    by_hand = HypSequence(tuple(
        hypothesis_for(parse("10|1")) if n % 3 else INITIAL_HYPOTHESIS
        for n in range(71)), "handmade", inf)
    check_all(by_hand)
    assert all(s is inf for s, _ in calls)
    assert [i for _, i in calls] == list(range(70))
    calls.clear()
    w = run_adversary("caut_tar", learner("cofinite"))
    assert w.kind == "restriction-violation"
    played = len(calls)
    assert verify_witness(w)
    assert len(calls) == played
    assert any(s is w.informant for s, _ in calls)
    assert set(Counter((id(s), i) for s, i in calls).values()) == {1}


class _ListedInformant:
    """Shows the listed items as they are, checked by nothing."""

    def __init__(self, *examples):
        self.examples = examples

    def example_at(self, i):
        return self.examples[i]


# the items of each bad informant, and the error every mode raises
_BAD_INFORMANTS = {
    "two labels for one value": ((Example(4, 1), Example(4, 0)),
                                 "contradictory labels for 4"),
    "label two": (((3, 2),), "label must be 0 or 1, got 2"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_INFORMANTS))
@pytest.mark.parametrize("lrn", (
    Learner("first", "G", lambda d, ctx: INITIAL_HYPOTHESIS),
    LENGTH_AWARE,
    FIN_POS,
    IT_COLLECT,
), ids=lambda lrn: lrn.kind)
def test_every_mode_refuses_a_bad_informant(lrn, bad):
    items, message = _BAD_INFORMANTS[bad]
    with pytest.raises(ValueError):
        run(lrn, _ListedInformant(*items), len(items))
    # the buffer never keeps a refused example: run twice, or again after
    # a shorter run that stops before it, the same error comes back
    twice, later = _ListedInformant(*items), _ListedInformant(*items)
    run(lrn, later, len(items) - 1)
    for inf in (twice, twice, later):
        with pytest.raises(ValueError) as refused:
            run(lrn, inf, len(items))
        assert str(refused.value) == message


@pytest.mark.parametrize("kind", ("G", "Psd", "Sd"))
def test_a_run_nested_in_a_step_is_handed_exact_prefixes(kind):
    """A learner that starts a run of the same informant inside each of
    its steps. The outer run reads the buffer to its horizon before its
    first step; at every fifth step from the fifth on, the inner run reads
    past it, so the buffer grows under the outer run's live views. The
    outer run is still handed exactly `prefix(inf, n)`, or its content,
    at every n."""
    inf = Informant(parse("10|1"), (9, 3, 3), "shuffled", 4)

    def exact(d, n):
        want = prefix(inf, n) if kind == "G" else content(prefix(inf, n))
        assert type(d) is type(want) and d.masks == want.masks
        assert d == want and hash(d) == hash(want)

    def collecting(into):
        def fn(*args):
            if kind == "Psd":
                assert args[1] == len(into)
            into.append(args[0])
            return INITIAL_HYPOTHESIS
        return fn

    handed = []
    collect = collecting(handed)

    def nesting(*args):
        n, inner = len(handed), []
        collect(*args)
        # at every fifth step the inner run reads to 30 + n, past the outer
        # horizon; in between it reads no further than the outer run
        run(Learner("inner", kind, collecting(inner)), inf,
            30 + n if n % 5 == 0 else n)
        for m, d in enumerate(inner):
            exact(d, m)
        exact(args[0], n)
        return INITIAL_HYPOTHESIS

    run(Learner("outer", kind, nesting), inf, 30)
    assert len(handed) == 31
    for n, d in enumerate(handed):
        exact(d, n)


@pytest.mark.parametrize("kind", ("G", "Sd"))
def test_evidence_with_masks_compares_as_plain_evidence(kind):
    """What a run hands a learner carries its masks, yet compares and
    hashes as evidence built from its items alone, masks read or not."""
    handed = []

    def keep(d, ctx):
        handed.append(d)
        return INITIAL_HYPOTHESIS

    inf = Informant(parse("10|1"), (9, 3, 3), "shuffled", 4)
    seq = run(Learner("keep", kind, keep), inf, 30)
    plain_type = DataSequence if kind == "G" else DataSet
    for n, d in enumerate(handed):
        plain = plain_type(d.items)
        assert d == plain and hash(d) == hash(plain)
        assert "masks" in vars(d) and "masks" in vars(plain)
        assert d.masks == plain.masks == (
            sum(1 << x for x in {ex.value for ex in d.items if ex.label}),
            sum(1 << x for x in {ex.value for ex in d.items if not ex.label}))
        assert d == plain and hash(d) == hash(plain)
        assert (seq.index.positives[n], seq.index.negatives[n]) == d.masks


_CONSTANT = {
    "G": lambda d, ctx: INITIAL_HYPOTHESIS,
    "Psd": lambda d, n, ctx: INITIAL_HYPOTHESIS,
    "Sd": lambda d, ctx: INITIAL_HYPOTHESIS,
    "It": lambda h, ex, ctx: h,
}


def _items_built(monkeypatch, lrn, inf, horizon) -> int:
    """How often a run of lrn builds the items of a view."""
    built = 0
    get = evidence._Items.__get__

    def counted(self, d, cls=None):
        nonlocal built
        built += d is not None  # items kept in vars(d) hide __get__
        return get(self, d, cls)

    with monkeypatch.context() as m:
        m.setattr(evidence._Items, "__get__", counted)
        run(lrn, inf, horizon)
    return built


@pytest.mark.parametrize("kind", KINDS)
def test_a_constant_learner_has_no_items_built(monkeypatch, kind):
    """A run hands over views, which build their items only when read, so
    a learner that reads nothing costs no copy of the evidence. A content
    is the prefix's masks alone: its items are read off them, and no view
    builds its items for it."""
    inf = Informant(parse("10|1"), (9, 3, 3), "shuffled", 4)
    lrn = Learner("constant", kind, _CONSTANT[kind])
    assert _items_built(monkeypatch, lrn, inf, 200) == 0
    if kind != "It":  # the count sees a learner that reads the items
        read = []
        reads = lambda *args: (read.append(args[0].items),
                               INITIAL_HYPOTHESIS)[1]
        assert _items_built(monkeypatch, Learner("reads", kind, reads),
                            inf, 200) == (201 if kind == "G" else 0)
        assert [frozenset(items) for items in read] == \
            [frozenset(prefix(inf, n).items) for n in range(201)]


def _counted_reads(monkeypatch) -> tuple[list, list]:
    """The lengths of the views `evidence._view` builds from now on, and
    the indices of the ranges `Informant._values` is asked for."""
    built, calls = [], []
    view, values = evidence._view, Informant._values

    def counted_view(run, n, masks):
        built.append(n)
        return view(run, n, masks)

    def counted_values(self, i, n):
        calls.extend(range(i, n))
        return values(self, i, n)

    monkeypatch.setattr(evidence, "_view", counted_view)
    monkeypatch.setattr(Informant, "_values", counted_values)
    return built, calls


def test_an_iterative_run_builds_no_view(monkeypatch):
    """An It learner is handed the example alone, read off the buffer."""
    built, calls = _counted_reads(monkeypatch)
    inf = Informant(parse("10|1"), (9, 3, 3), "shuffled", 4)
    seq = run(IT_COLLECT, inf, 200)
    assert built == [] and calls == list(range(200))
    assert seq.final == run(as_full_information(IT_COLLECT), inf, 200).final


@pytest.mark.parametrize("lrn", (LENGTH_AWARE, FIN_POS),
                         ids=lambda lrn: lrn.kind)
def test_a_set_driven_run_builds_no_view(monkeypatch, lrn):
    """A Psd or Sd learner is handed sets made from the evidence index."""
    built, calls = _counted_reads(monkeypatch)
    inf = Informant(parse("10|1"), (9, 3, 3), "shuffled", 4)
    seq = run(lrn, inf, 200)
    assert built == [] and calls == list(range(200))
    assert seq.items == run(as_full_information(lrn), inf, 200).items


def test_the_index_of_a_sequence_built_by_hand_builds_no_view(monkeypatch):
    built, calls = _counted_reads(monkeypatch)
    inf = Informant(parse("10|1"), (9, 3, 3), "shuffled", 4)
    index = HypSequence((INITIAL_HYPOTHESIS,) * 201, "handmade", inf).index
    assert built == [] and calls == list(range(200))
    assert len(index.positives) == len(index.negatives) == 201
    assert (index.positives[200], index.negatives[200]) == \
        prefix(inf, 200).masks


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("G", "Psd", "Sd")), st.sampled_from(ORDERS),
       st.sampled_from(("|0", "|1", "10|1", "0110|10", "|100")),
       st.integers(0, 50), st.lists(st.integers(0, 40), max_size=6),
       st.integers(0, 40))
def test_handed_evidence_equals_the_rebuilt_prefix(kind, order, text, seed,
                                                   plan, horizon):
    """What a run hands a G, Psd or Sd learner equals, and hashes as, the
    prefix rebuilt from scratch, or its content: while the run reads it,
    and again after the run has moved on."""
    target = parse(text)
    head = Informant(target, tuple(plan), "shuffled", seed).head
    inf = Informant(target, head, order, seed)
    handed = []

    def keep(*args):
        d, ctx = args[0], args[-1]
        n = len(handed)
        want = prefix(inf, n) if kind == "G" else content(prefix(inf, n))
        if kind == "Psd":
            assert args[1] == n
        if n % 2:  # the others are read only once the run is over
            assert d == want and hash(d) == hash(want)
        handed.append(d)
        return INITIAL_HYPOTHESIS

    run(Learner("keep", kind, keep), inf, horizon)
    assert len(handed) == horizon + 1
    for n, d in enumerate(handed):
        want = prefix(inf, n) if kind == "G" else content(prefix(inf, n))
        assert type(d) is type(want) and len(d) == len(want)
        assert d.masks == want.masks
        assert d == want and hash(d) == hash(want)
        assert content(d) == content(want)
        assert hash(content(d)) == hash(content(want))
