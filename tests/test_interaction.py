import pytest

from inferlab.catalog import learner
from inferlab.combinators import cons_wmon_wrapper
from inferlab.evidence import (
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
    EvalContext,
    HypSequence,
    Learner,
    as_full_information,
    run,
    with_fresh_labels,
)
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
), ids=lambda lrn: lrn.kind)
def test_run_enumerates_the_informant_once(lrn, monkeypatch):
    calls = []
    example_at = Informant.example_at

    def counted(self, i):
        calls.append(i)
        return example_at(self, i)

    monkeypatch.setattr(Informant, "example_at", counted)
    inf = Informant(parse("10|1"), (3, 3), "shuffled", 2)
    for horizon in (0, 1, 40):
        calls.clear()
        run(lrn, inf, horizon)
        assert calls == list(range(horizon))


class _ListedInformant:
    """Shows the listed items as they are, checked by nothing."""

    def __init__(self, *examples):
        self.examples = examples

    def example_at(self, i):
        return self.examples[i]


_BAD_INFORMANTS = {
    "two labels for one value": (Example(4, 1), Example(4, 0)),
    "label two": ((3, 2),),
}


@pytest.mark.parametrize("bad", sorted(_BAD_INFORMANTS))
@pytest.mark.parametrize("lrn", (
    Learner("first", "G", lambda d, ctx: INITIAL_HYPOTHESIS),
    LENGTH_AWARE,
    FIN_POS,
    IT_COLLECT,
), ids=lambda lrn: lrn.kind)
def test_every_mode_refuses_a_bad_informant(lrn, bad):
    items = _BAD_INFORMANTS[bad]
    with pytest.raises(ValueError):
        run(lrn, _ListedInformant(*items), len(items))


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
