import pytest
from hypothesis import given, settings, strategies as st

import oracles

from inferlab.adversary import Bounds
from inferlab.catalog import family_instances, language
from inferlab.evidence import (
    ORDERS,
    DataSequence,
    DataSet,
    Example,
    Informant,
    canonical,
    canonical_informant,
    content,
    format_sequence,
    neg,
    outline,
    parse_sequence,
    pos,
    prefix,
    prefixes,
)
from inferlab.hypothesis import DelaySchedule, Hypothesis
from inferlab.interaction import INITIAL_HYPOTHESIS, Learner, run
from inferlab.upset import EMPTY, NATURALS, UPSet, parse


def test_sequence_projections():
    d = parse_sequence("0:+,1:-,3:+")
    assert pos(d) == {0, 3}
    assert neg(d) == {1}
    assert outline(d) == {0, 1, 3}
    assert content(d) == DataSet({Example(0, 1), Example(1, 0), Example(3, 1)})


def test_sequence_rejects_contradiction():
    with pytest.raises(ValueError):
        DataSequence((Example(4, 1), Example(4, 0)))
    with pytest.raises(ValueError):
        DataSet({Example(4, 1), Example(4, 0)})


def test_sequence_allows_repetition():
    d = DataSequence((Example(4, 1), Example(4, 1)))
    assert len(d) == 2
    assert len(content(d)) == 1


def test_examples_validated():
    with pytest.raises(ValueError):
        DataSequence(((-1, 1),))
    with pytest.raises(ValueError):
        DataSequence(((3, 2),))


def test_parse_format_round_trip():
    text = "0:+,1:-,3:+"
    assert format_sequence(parse_sequence(text)) == text
    assert parse_sequence("") == DataSequence()
    assert format_sequence(DataSequence()) == ""
    with pytest.raises(ValueError):
        parse_sequence("1:*")
    with pytest.raises(ValueError):
        parse_sequence("x:+")


def test_format_dataset_sorts():
    d = DataSet({Example(9, 0), Example(2, 1)})
    assert format_sequence(d) == "2:+,9:-"


@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1)), max_size=12))
def test_content_forgets_order_and_repetition(raw):
    seen = {}
    for v, b in raw:
        seen.setdefault(v, b)
    d = DataSequence(tuple((v, seen[v]) for v, _ in raw))
    assert content(d).items == frozenset(Example(v, b) for v, b in seen.items())
    assert pos(d) | neg(d) == outline(d)
    assert pos(d) & neg(d) == frozenset()


def test_canonical_informant_enumerates_in_order():
    evens = parse("|10")
    inf = canonical_informant(evens)
    assert prefix(inf, 5) == parse_sequence("0:+,1:-,2:+,3:-,4:+")


def test_informant_head_must_match_target():
    with pytest.raises(ValueError):
        Informant(EMPTY, (Example(0, 1),))
    inf = Informant(NATURALS, (Example(7, 1),))
    assert inf.example_at(0) == Example(7, 1)
    assert inf.example_at(1) == Example(0, 1)


def test_informant_rejects_unknown_order():
    with pytest.raises(ValueError):
        Informant(NATURALS, (), "sorted")


def test_fresh_order_skips_head_values():
    L = parse("|10")
    inf = Informant(L, (Example(2, 1), Example(0, 1)), "fresh")
    tail = [inf.example_at(i).value for i in range(2, 8)]
    assert tail == [1, 3, 4, 5, 6, 7]


@given(st.lists(st.integers(0, 60), max_size=30), st.integers(0, 80))
def test_fresh_order_lists_the_other_values_in_order(plan, extra):
    """Past the head, fresh order shows the values the head did not show,
    in increasing order; what it keeps to find them is no field."""
    inf = Informant(NATURALS, tuple(plan), "fresh")
    shown = set(plan)
    want = [v for v in range(len(shown) + extra + 61) if v not in shown]
    n = len(plan)
    assert [inf.example_at(n + j).value for j in range(extra)] \
        == want[:extra]
    again = Informant(NATURALS, tuple(plan), "fresh")
    assert inf == again and hash(inf) == hash(again)
    assert repr(inf) == repr(again) and "_gaps" not in repr(inf)
    # nor does the buffer a run fills
    run(Learner("none", "G", lambda d, ctx: INITIAL_HYPOTHESIS), inf, 20)
    assert len(vars(inf)["_buffer"][0]) == 20  # (examples, index)
    again = Informant(NATURALS, tuple(plan), "fresh")
    assert inf == again and hash(inf) == hash(again)
    assert repr(inf) == repr(again) and "_buffer" not in repr(inf)


def test_shuffled_informant_is_complete_and_sound():
    L = parse("110|010")
    inf = Informant(L, (Example(5, 0),), "shuffled", seed=11)
    seen = {}
    for i in range(41):
        ex = inf.example_at(i)
        assert L.member(ex.value) == bool(ex.label)
        seen.setdefault(ex.value, ex.label)
    # head plus five full blocks covers 0..39
    assert set(range(40)) <= set(seen)


def test_shuffled_determinism_and_seed_sensitivity():
    L = parse("|10")
    a = Informant(L, (), "shuffled", seed=3)
    b = Informant(L, (), "shuffled", seed=3)
    c = Informant(L, (), "shuffled", seed=4)
    row = lambda inf: [inf.example_at(i) for i in range(24)]
    assert row(a) == row(b)
    assert row(a) != row(c)
    assert {ex.value for ex in row(a)} == set(range(24))


@given(st.integers(0, 200), st.integers(0, 100))
def test_coverage_index_bound(seed, value):
    L = parse("0110|10")
    inf = Informant(L, (Example(3, 0), Example(1, 1)), "shuffled", seed=seed)
    # past the head, values are shuffled within blocks of 8
    bound = len(inf.head) + (value // 8 + 1) * 8
    assert value in outline(prefix(inf, bound))


def test_scheduled_informant_plan():
    L = parse("|10")
    inf = Informant(L, (4, (3, 0), 4), "shuffled", 0)
    assert [inf.example_at(i) for i in range(3)] == [
        Example(4, 1),
        Example(3, 0),
        Example(4, 1),
    ]
    with pytest.raises(ValueError):
        Informant(L, ((3, 1),), "shuffled", 0)


def test_prefix_is_monotone():
    inf = Informant(parse("1|0"), (0, 5), "shuffled", 9)
    long = prefix(inf, 20)
    for n in range(20):
        assert prefix(inf, n).items == long.items[:n]


_TARGETS = ("|0", "|1", "10|1", "0110|10", "1|0", "|100", "111|0")


@given(
    st.sampled_from(ORDERS),
    st.sampled_from(_TARGETS),
    st.integers(0, 50),
    st.lists(st.integers(0, 40), max_size=6),
    st.integers(0, 60),
)
def test_prefixes_match_rebuilt_prefixes(order, text, seed, plan, horizon):
    target = parse(text)
    head = Informant(target, tuple(plan), "shuffled", seed).head
    inf = Informant(target, head, order, seed)
    expected = [prefix(inf, n) for n in range(horizon + 1)]
    got = list(prefixes(inf, horizon))
    assert got == expected
    for d, d0 in zip(got, expected):
        assert d.items == d0.items and hash(d) == hash(d0)
        dset, dset0 = content(d), content(d0)
        assert dset == dset0 and hash(dset) == hash(dset0)
        assert dset.items == dset0.items == frozenset(d0.items)


class _ListedInformant:
    def __init__(self, *examples):
        self.examples = examples

    def example_at(self, i):
        return self.examples[i]


def test_prefixes_validate_each_new_example():
    ok = _ListedInformant(Example(4, 1), Example(4, 1), (2, 0))
    assert [len(content(d)) for d in prefixes(ok, 3)] == [0, 1, 1, 2]
    with pytest.raises(ValueError, match="contradictory labels for 4"):
        list(prefixes(_ListedInformant(Example(4, 1), Example(4, 0)), 2))
    with pytest.raises(ValueError):
        list(prefixes(_ListedInformant((3, 2)), 1))
    with pytest.raises(ValueError):
        list(prefixes(_ListedInformant((-1, 1)), 1))


def test_membership_compares_each_example():
    """`in` asks each example in turn with `==`, on a set as on a
    sequence: an unhashable object is in neither, and refused by neither."""
    d = DataSequence(((1, 1), (4, 0)))
    for e in (d, content(d), DataSet({(4, 0), (1, 1)})):
        assert [1, 1] not in e and {} not in e
        assert (1, 1) in e and Example(4, 0) in e and (1, True) in e
        assert (1, 0) not in e and 1 not in e and (2, 1) not in e


def _agrees(s: DataSet, want: frozenset) -> None:
    """`s` answers as `want`, the oracle set of its examples: its length,
    items, order and iteration, and `in` for each example, the example
    with its label flipped, `(v, True)` and non-examples."""
    assert len(s) == len(want) and s.items == want
    assert s.sorted() == tuple(sorted(want)) == tuple(s)
    top = max((v for v, _ in want), default=-1)
    for v in range(top + 2):
        for x in ((v, 0), (v, 1), (v, True), (v, 2), (v,), (v, 1, 0), v):
            assert (x in s) == (x in want), x
    assert None not in s and "x" not in s


def _compare(made) -> None:
    """Each two (set, oracle set) pairs are equal, and hash alike, when
    their oracle sets are equal."""
    for s, want in made:
        _agrees(s, want)
        for t, other in made:
            assert (s == t) == (want == other)
            assert hash(s) == hash(t) or want != other


def _consistent(raw) -> list:
    """The pairs of `raw`, each value with the label it is first given."""
    first = {}
    return [(v, first.setdefault(v, b)) for v, b in raw]


_RAW = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 1)), max_size=10)


@settings(max_examples=200)
@given(_RAW, _RAW, st.integers(0, 1 << 14), st.integers(0, 14))
def test_a_set_answers_as_the_frozenset_of_its_examples(raw, raw2, p, n):
    shown, shown2 = _consistent(raw), _consistent(raw2)
    rows = [(i, p >> i & 1) for i in range(n)]
    made = [(DataSet(shown), shown),
            (DataSet(shown2), shown2),
            (content(DataSequence(tuple(shown[::-1] + shown))), shown),
            (content(DataSequence(tuple(shown2))), shown2),
            (content(canonical(p, n)), rows),
            (DataSet(rows[::-1]), rows)]
    _compare([(s, oracles.raw_content(x)) for s, x in made])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORDERS), st.sampled_from(_TARGETS), st.integers(0, 50),
       st.lists(st.integers(0, 40), max_size=6), st.integers(0, 40))
def test_every_prefix_content_answers_as_the_frozenset_of_its_examples(
        order, text, seed, plan, horizon):
    target = parse(text)
    head = Informant(target, tuple(plan), "shuffled", seed).head
    inf = Informant(target, head, order, seed)
    shown = [tuple(inf.example_at(i)) for i in range(horizon)]
    made = [(content(d), oracles.raw_content(shown[:n]))
            for n, d in enumerate(prefixes(inf, horizon))]
    assert len(made) == horizon + 1
    _compare(made)


# ---------------------------------------------------------------------------
# input rules: a bool is not a natural, a label is the int 0 or 1

_TAKES_A_NATURAL = {
    "example value": lambda x: DataSequence(((x, 1),)),
    "hypothesis label": lambda x: Hypothesis(x, NATURALS),
    "delay mult": lambda x: DelaySchedule(mult=x),
    "delay add": lambda x: DelaySchedule(add=x),
    "delay override value": lambda x: DelaySchedule(((x, 5),)),
    "delay override time": lambda x: DelaySchedule(((0, x),)),
    "bounds n_search": lambda x: Bounds(n_search=x),
    "bounds t_bound": lambda x: Bounds(t_bound=x),
    "bounds rounds": lambda x: Bounds(rounds=x),
    "segment n": lambda x: language("segment", n=x),
    "streamZ m": lambda x: language("streamZ", n=0, m=x),
    "finite element": lambda x: language("finite", elements=[2, x]),
    "cofinite removal": lambda x: language("cofinite", remove=[x]),
    "family count": lambda x: family_instances("finite", x),
}


@pytest.mark.parametrize("bad", [True, 1.5, -1, "1"], ids=repr)
@pytest.mark.parametrize("entry", sorted(_TAKES_A_NATURAL))
def test_every_natural_entry_refuses_non_naturals(entry, bad):
    with pytest.raises(ValueError):
        _TAKES_A_NATURAL[entry](bad)


@pytest.mark.parametrize("label", [1.7, 0.9, "1", None, True], ids=repr)
def test_labels_are_the_ints_zero_and_one(label):
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        DataSequence(((3, label),))
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        DataSet({(3, label)})
    with pytest.raises(ValueError, match="label must be 0 or 1"):
        Informant(NATURALS, ((3, label),))


def test_an_example_is_a_value_label_pair():
    with pytest.raises(ValueError, match="pair"):
        DataSequence((5,))
    with pytest.raises(ValueError, match="pair"):
        DataSet({5})
    with pytest.raises(ValueError, match="pair"):
        Informant(NATURALS, (True,))
    # a bare natural in the head takes its label from the target
    assert Informant(parse("|10"), (4, (3, 0))).head == (
        Example(4, 1), Example(3, 0))
