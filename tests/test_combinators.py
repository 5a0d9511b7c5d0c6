import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import _shortest_same_content
from inferlab.catalog import FAMILY_IDS, LEARNER_IDS, family_instances
from inferlab.catalog import learner as catalog_learner
from inferlab.combinators import (
    COMBINATORS,
    canonical_prefix,
    combinator,
    cons_wmon_fourcase,
    cons_wmon_wrapper,
    dual_wmon_poison,
    patch,
    patched_learner,
    prefix_length,
    to_set_driven,
    _stage_union,
)
from inferlab.evidence import (
    DataSequence,
    DataSet,
    Example,
    Informant,
    canonical_informant,
    conflicts,
    content,
    neg,
    parse_sequence,
    pos,
    prefix,
)
from inferlab.hypothesis import (
    DelaySchedule,
    Hypothesis,
    consistent,
    hypothesis_for,
)
from inferlab.interaction import (
    EvalContext,
    Learner,
    as_full_information,
    run,
    with_fresh_labels,
)
from inferlab.restrictions import check, check_all
from inferlab.upset import (
    EMPTY,
    NATURALS,
    UPSet,
    complement,
    from_elements,
    parse,
)


def g_positives(d, ctx):
    return hypothesis_for(from_elements(pos(d)))


G_FIN_POS = Learner("positives", "G", g_positives)

G_COFINITE = Learner(
    "cofinite", "G",
    lambda d, ctx: hypothesis_for(complement(from_elements(neg(d)))),
)


def test_prefix_length_and_canonical_prefix():
    d = parse_sequence("0:+,1:-,3:+")
    assert prefix_length(d) == 2
    assert canonical_prefix(d) == parse_sequence("0:+,1:-")
    assert prefix_length(parse_sequence("")) == 0
    assert canonical_prefix(parse_sequence("1:-")) == parse_sequence("")
    full = parse_sequence("2:-,0:+,1:+")
    assert prefix_length(full) == 3
    assert canonical_prefix(full) == parse_sequence("0:+,1:+,2:-")


def test_to_set_driven_equals_base_on_canonical_informants():
    sd = to_set_driven(G_FIN_POS)
    assert sd.kind == "Sd" and sd.name == "positives[sd]"
    inf = canonical_informant(parse("|10"))
    base = run(G_FIN_POS, inf, 12)
    lifted = run(sd, inf, 12)
    assert base.items == lifted.items  # labels included


def test_to_set_driven_cuts_at_first_gap():
    sd = to_set_driven(G_FIN_POS)
    ctx = EvalContext()
    out = sd.fn(content(parse_sequence("0:+,2:+")), ctx)
    # the value 1 was never shown, so only the segment before it counts
    assert out.extension == from_elements({0})


def test_patch_forces_consistency_and_keeps_consistent_guesses():
    ctx = EvalContext()
    d = parse_sequence("0:+,1:-,4:+")
    wild = Hypothesis(0, parse("01|1"))  # contains 1, misses 0
    fixed = patch(wild, d, ctx)
    assert fixed.label % 2 == 1
    assert fixed.extension == parse("10|1")
    tame = hypothesis_for(parse("|10"))
    assert patch(tame, d, ctx).extension == tame.extension


def test_patched_learner_kinds():
    bad = Learner("void", "G", lambda d, ctx: hypothesis_for(EMPTY))
    inf = canonical_informant(parse("|10"))
    seq = run(patched_learner(bad), inf, 8)
    assert check("cons", seq).satisfied
    assert seq[5].extension == from_elements({0, 2, 4})
    sd = patched_learner(to_set_driven(bad))
    assert sd.kind == "Sd"
    assert run(sd, inf, 8).items[5].extension == from_elements({0, 2, 4})
    with pytest.raises(ValueError):
        patched_learner(Learner("it", "It", lambda h, ex, ctx: h))


def test_stage_union_windows():
    d = parse_sequence("0:+,1:-")
    plain = Hypothesis(0, NATURALS)
    assert _stage_union(plain, d) == from_elements({0})
    late_conflict = Hypothesis(0, NATURALS, DelaySchedule(((1, 5),)))
    assert _stage_union(late_conflict, d) == from_elements({0, 2, 3, 4})
    # positive only visible after the conflict: nothing survives
    late_pos = Hypothesis(0, NATURALS, DelaySchedule(((2, 9),)))
    assert _stage_union(late_pos, parse_sequence("2:+,1:-")) == EMPTY
    # conflict visible at stage zero
    assert _stage_union(plain, parse_sequence("0:-")) == EMPTY
    # missing positive contributes nothing
    assert _stage_union(Hypothesis(0, EMPTY), d) == EMPTY
    # no data: the full extension
    assert _stage_union(plain, parse_sequence("")) == NATURALS


def test_cons_wmon_wrapper_trace_on_cofinite_target():
    wrapped = cons_wmon_wrapper(G_COFINITE)
    inf = canonical_informant(parse("10|1"))  # everything but 1
    seq = run(wrapped, inf, 12)
    assert seq[0].extension == NATURALS
    assert seq[1].extension == NATURALS
    assert seq[2].extension == parse("10|1")
    verdicts = check_all(seq)
    assert verdicts["cons"].satisfied
    assert verdicts["wmon"].satisfied
    assert verdicts["bc"].satisfied and verdicts["bc"].detail == "correct from 2"


def test_cons_wmon_wrapper_cuts_stale_guesses():
    stubborn = Learner(
        "stubborn", "G",
        lambda d, ctx: Hypothesis(0, NATURALS, DelaySchedule(((1, 5),))),
    )
    wrapped = cons_wmon_wrapper(stubborn)
    ctx = EvalContext()
    out = wrapped.fn(parse_sequence("0:+,1:-"), ctx)
    # the base guess survives as its last stage before 1 becomes visible
    assert out.extension == from_elements({0, 2, 3, 4})
    assert check("cons", run(wrapped, canonical_informant(parse("10|1")), 8)).satisfied


def test_cons_wmon_wrapper_is_consistent_even_for_hostile_base():
    hostile = Learner(
        "hostile", "G",
        lambda d, ctx: hypothesis_for(from_elements(neg(d))),
    )
    seq = run(cons_wmon_wrapper(hostile), canonical_informant(parse("|10")), 10)
    assert check("cons", seq).satisfied
    assert check("wmon", seq).satisfied


def test_dual_wmon_poison_cases():
    ctx = EvalContext()
    # pass-through: consistent base answers survive verbatim
    segment = Learner(
        "segment", "Sd",
        lambda dset, ctx: hypothesis_for(
            NATURALS if not neg(dset)
            else from_elements(range(min(neg(dset))))
        ),
    )
    poisoned = dual_wmon_poison(segment)
    inf = canonical_informant(parse("1|0"))  # just {0}
    seq = run(poisoned, inf, 8)
    assert seq[0].extension == NATURALS
    assert seq[2].extension == from_elements({0})
    verdicts = check_all(seq)
    assert verdicts["cons"].satisfied
    assert verdicts["wmon_d"].satisfied
    assert verdicts["bc"].satisfied
    # positive-poison: a base missing shown positives collapses to them
    blind = Learner("blind", "Sd", lambda dset, ctx: hypothesis_for(from_elements({1})))
    out = dual_wmon_poison(blind).fn(parse_sequence("0:+"), ctx)
    assert out.extension == from_elements({0})
    out = dual_wmon_poison(blind).fn(parse_sequence("0:+,1:-"), ctx)
    assert out.extension == from_elements({0})
    # blow-up: covering a shown negative widens to everything-but-negatives
    allin = Learner("allin", "Sd", lambda dset, ctx: hypothesis_for(NATURALS))
    out = dual_wmon_poison(allin).fn(parse_sequence("0:+,1:-"), ctx)
    assert out.extension == parse("10|1")
    with pytest.raises(ValueError):
        dual_wmon_poison(G_COFINITE)


def test_shortest_same_content():
    d = parse_sequence("0:+,0:+,1:-")
    assert _shortest_same_content(d.items) == 3
    d = parse_sequence("0:+,1:-,0:+")
    assert _shortest_same_content(d.items) == 2
    assert _shortest_same_content(()) == 0


def test_fourcase_repeats_blown_up_conjecture():
    wrapped = cons_wmon_fourcase(G_COFINITE)
    inf = canonical_informant(parse("10|1"))
    seq = run(wrapped, inf, 10)
    # after conjecturing everything-but-negatives once, it sticks with it
    # while the negatives stand still
    assert seq[0].extension == NATURALS
    assert seq[1].extension == NATURALS
    assert seq[2].extension == parse("10|1")
    assert seq[4].extension == parse("10|1")
    verdicts = check_all(seq)
    assert verdicts["cons"].satisfied
    assert verdicts["wmon"].satisfied
    assert verdicts["bc"].satisfied


def test_fourcase_ignores_repeated_data():
    wrapped = cons_wmon_fourcase(G_FIN_POS)
    inf = Informant(parse("10|1"), (0, 1, 0), "shuffled", 3)
    ctx = EvalContext()
    seq = run(wrapped, inf, 3, ctx)
    # the third datum repeats the first, so the answer is reused verbatim
    assert seq[3] == seq[2]


def test_fourcase_demotes_wrong_positives():
    blind = Learner("blind", "G", lambda d, ctx: hypothesis_for(from_elements({9})))
    ctx = EvalContext()
    out = cons_wmon_fourcase(blind).fn(parse_sequence("0:+"), ctx)
    assert out.extension == from_elements({0})


def _work(monkeypatch, wrap, base_id, informant, horizon):
    """Base-learner calls and validated prefixes in one wrapped run."""
    base, calls, validated = catalog_learner(base_id), 0, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return base.fn(*args)

    check = DataSequence.__post_init__

    def counted_check(d):
        nonlocal validated
        validated += 1
        check(d)

    with monkeypatch.context() as m:
        m.setattr(DataSequence, "__post_init__", counted_check)
        run(wrap(Learner(base.name, base.kind, counted)), informant, horizon)
    return calls, validated


@pytest.mark.parametrize("wrap,base_id", [
    (cons_wmon_wrapper, "cofinite"),
    (cons_wmon_fourcase, "segment"),
    (lambda lrn: dual_wmon_poison(to_set_driven(lrn)), "segment"),
], ids=("cons_wmon", "fourcase", "dual_wmon_poison"))
def test_wrappers_make_a_linear_number_of_base_calls(monkeypatch, wrap,
                                                     base_id):
    inf = Informant(parse("110|1"), (3, 3, 0, 5, 0), "shuffled", 4)
    counts = []
    for h in (100, 200):
        calls, validated = _work(monkeypatch, wrap, base_id, inf, h)
        contents = 1 + len(set(prefix(inf, h).items))
        if wrap is cons_wmon_wrapper:
            assert calls == h + 1
        elif wrap is cons_wmon_fourcase:
            assert calls == contents
        else:
            assert calls <= h + 1
        assert validated == 0  # every prefix is built from trusted parts
        counts.append(calls)
    assert counts[1] <= 2.5 * counts[0], counts


@pytest.mark.parametrize("wrap", (cons_wmon_wrapper, cons_wmon_fourcase,
                                  dual_wmon_poison),
                         ids=("cons_wmon", "fourcase", "dual_wmon_poison"))
def test_wrapper_membership_tests_grow_linearly(monkeypatch, wrap):
    """Testing a base answer against the data is one mask test, so a run
    makes a number of membership tests linear in its horizon, where a test
    of each example shown would make a quadratic number."""
    calls = 0
    member = UPSet.member

    def counted(u, x):
        nonlocal calls
        calls += 1
        return member(u, x)

    monkeypatch.setattr(UPSet, "member", counted)
    counts = []
    for h in (100, 400):
        calls = 0
        run(wrap(catalog_learner("cofinite")),
            canonical_informant(parse("10|1")), h)
        counts.append(calls)
    assert counts[1] <= 5 * counts[0], counts


@st.composite
def _evidence(draw):
    """A sequence in any order, with repeats, whose labels are consistent."""
    labels = draw(st.dictionaries(st.integers(0, 20), st.integers(0, 1),
                                  max_size=10))
    values = draw(st.lists(st.sampled_from(sorted(labels)), max_size=14)
                  if labels else st.just([]))
    return DataSequence(tuple(Example(v, labels[v]) for v in values))


_bits = st.text("01", max_size=8)


@st.composite
def _hypotheses(draw):
    """A hypothesis over a random P|Q set, whose delay schedule has a
    random slope, offset and overrides for some of its members."""
    ext = UPSet(draw(_bits), draw(st.text("01", min_size=1, max_size=4)))
    members = [x for x in range(24) if ext.member(x)]
    late = draw(st.lists(st.tuples(st.sampled_from(members),
                                   st.integers(0, 12)), max_size=3)
                if members else st.just([]))
    delay = DelaySchedule(tuple(dict((x, x + k) for x, k in late).items()),
                          draw(st.integers(1, 3)), draw(st.integers(0, 5)))
    return Hypothesis(draw(st.integers(0, 9)), ext, delay)


@settings(max_examples=400, deadline=None)
@given(_evidence(), _hypotheses())
def test_agreement_matches_the_example_walk(d, h):
    """`conflicts`, `consistent` and `_stage_union` answer as the tests of
    each example shown do."""
    u, dset = h.extension, DataSet(d.items)
    wrong = {ex.value for ex in d if u.member(ex.value) != bool(ex.label)}
    assert conflicts(d.masks, u) == conflicts(dset.masks, u) \
        == sum(1 << x for x in wrong)
    for e in (u, h):
        assert consistent(e, d) == consistent(e, dset) \
            == oracles.raw_consistent(e, d) == (not wrong)
    assert _stage_union(h, d) == oracles.raw_stage_union(h, d)


def test_set_driven_base_is_handed_unvalidated_content(monkeypatch):
    # the wrapper's prefixes are valid already, so their content is too
    validated = 0
    check = DataSet.__post_init__

    def counted_check(d):
        nonlocal validated
        validated += 1
        check(d)

    monkeypatch.setattr(DataSet, "__post_init__", counted_check)
    run(cons_wmon_wrapper(catalog_learner("cofinite")),
        canonical_informant(parse("10|1")), 100)
    assert validated == 0


def test_combinator_registry():
    assert set(COMBINATORS) == {
        "to_sd", "patch", "cons_wmon", "dual_wmon_poison", "cons_wmon_fourcase"
    }
    assert combinator("patch") is patched_learner
    for name in ("fix_everything", ["x"], {"a": 1}):
        with pytest.raises(ValueError):
            combinator(name)


# Each pipeline step as (package version, oracle version).
_STEPS = {
    "fresh": (with_fresh_labels, with_fresh_labels),
    "to_sd": (to_set_driven, to_set_driven),
    "patch": (patched_learner, patched_learner),
    "cons_wmon": (cons_wmon_wrapper, oracles.raw_cons_wmon),
    "fourcase": (cons_wmon_fourcase, oracles.raw_fourcase),
    "poison": (dual_wmon_poison, oracles.raw_dual_poison),
}
_WRAPPERS = ("cons_wmon", "fourcase", "poison")
_DRAWS_LABELS = ("fresh", "patch", *_WRAPPERS)
_TARGETS = tuple(dict.fromkeys(
    t for f in FAMILY_IDS for t in family_instances(f, 4)))


def _pipeline(base_id, steps, side):
    lrn = catalog_learner(base_id)
    for step in steps:
        if step == "poison" and lrn.kind != "Sd":
            lrn = to_set_driven(lrn)
        lrn = _STEPS[step][side](lrn)
    return lrn


@st.composite
def _informants(draw):
    target = draw(st.sampled_from(_TARGETS))
    head = tuple(Example(v, int(target.member(v)))
                 for v in draw(st.lists(st.integers(0, 12), max_size=5)))
    order = draw(st.sampled_from(("canonical", "shuffled", "fresh")))
    return Informant(target, head, order, draw(st.integers(0, 50)))


@st.composite
def _sequences(draw):
    """Evidence in any order, with repeats; it need not extend a run."""
    target = draw(st.sampled_from(_TARGETS))
    values = draw(st.lists(st.integers(0, 15), max_size=14))
    return DataSequence(tuple(Example(v, int(target.member(v)))
                              for v in values))


_jobs = st.lists(st.one_of(
    st.tuples(st.just("run"), _informants(), st.integers(0, 24)),
    st.tuples(st.just("fn"), _sequences()),
), min_size=1, max_size=3)


def _answers(lrn, jobs):
    """Every hypothesis the jobs draw from the learner, in one shared ctx."""
    ctx, out = EvalContext(), []
    g = as_full_information(lrn)
    for job in jobs:
        if job[0] == "run":
            out += run(lrn, job[1], job[2], ctx).items
        else:
            out.append(g.fn(job[1], ctx))
    return out


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEARNER_IDS),
       st.lists(st.sampled_from(tuple(_STEPS)), max_size=2),
       st.sampled_from(_WRAPPERS), _jobs)
# an earlier answer's window outlives the base answer that replaced it
@example("n_or_fin", [], "cons_wmon",
         [("run", Informant(parse("1111|0"), tuple(
             Example(v, int(v < 4)) for v in (2, 5, 8, 5, 1)), "shuffled", 16),
           20)])
# a base answer misses a positive, then covers all once a new one shows
@example("stream_mon", [], "poison",
         [("run", Informant(parse("10|001"), (), "shuffled", 3), 24)])
# poisoned, then covered after a new negative, then a positive repeats
@example("even_dualmon", [], "poison",
         [("run", Informant(parse("100011|0"), tuple(
             Example(v, int(v in (0, 4, 5))) for v in (9, 2, 3, 5, 2, 4, 5))),
           20)])
# blown up, then a new positive while the base answers otherwise
@example("even_dualmon", [], "fourcase",
         [("run", canonical_informant(parse("01|0")), 24)])
def test_wrappers_match_the_rebuilding_oracles(base_id, inner, outer, jobs):
    """The wrappers answer exactly as the per-prefix rebuilds do.

    Hypotheses must be equal, labels included, with one exception: a
    `dual_wmon_poison` over a base that draws fresh labels asks that base
    fewer times than the rebuild, so the fresh labels drawn after it may be
    renumbered. There the extensions and delays must be equal, and two
    answers must share a label exactly when the oracle's answers do.
    """
    steps = (*inner, outer)
    got = _answers(_pipeline(base_id, steps, 0), jobs)
    want = _answers(_pipeline(base_id, steps, 1), jobs)
    renumbered = any(step == "poison" and set(steps[:i]) & set(_DRAWS_LABELS)
                     for i, step in enumerate(steps))
    if not renumbered:
        assert got == want
        return
    assert [(h.extension, h.delay) for h in got] == [
        (h.extension, h.delay) for h in want]
    assert [[a.label == b.label for b in got] for a in got] == [
        [a.label == b.label for b in want] for a in want]
