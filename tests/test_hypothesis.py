import pytest
from hypothesis import given, strategies as st

from inferlab.evidence import parse_sequence
from inferlab.hypothesis import (
    DEFAULT_DELAY,
    DelaySchedule,
    Hypothesis,
    consistent,
    extension_label,
    format_hypothesis,
    hypothesis_for,
    stage_enumerate,
)
from inferlab.upset import EMPTY, UPSet, parse


def test_default_delay_is_identity():
    assert [DEFAULT_DELAY.of(x) for x in range(5)] == [0, 1, 2, 3, 4]


def test_affine_delay_dominates_identity():
    d = DelaySchedule(mult=2, add=3)
    assert d.of(0) == 3
    assert d.of(4) == 11
    d0 = DelaySchedule(mult=1, add=0)
    assert d0.of(7) == 7


def test_delay_overrides():
    d = DelaySchedule(((2, 9), (0, 0)), mult=1, add=1)
    assert d.of(2) == 9
    assert d.of(0) == 0
    assert d.of(1) == 2
    assert d.overrides == ((0, 0), (2, 9))


def test_delay_validation():
    with pytest.raises(ValueError):
        DelaySchedule(mult=0)
    with pytest.raises(ValueError):
        DelaySchedule(add=-1)
    with pytest.raises(ValueError):
        DelaySchedule(((3, 2),))
    with pytest.raises(ValueError):
        DelaySchedule(((3, 5), (3, 6)))
    # repeated identical override collapses
    assert DelaySchedule(((3, 5), (3, 5))).overrides == ((3, 5),)


def test_hypothesis_rejects_override_outside_extension():
    with pytest.raises(ValueError):
        Hypothesis(0, parse("|10"), DelaySchedule(((1, 4),)))
    Hypothesis(0, parse("|10"), DelaySchedule(((2, 4),)))


def test_stage_enumerate_grows_to_extension():
    h = Hypothesis(0, parse("|10"), DelaySchedule(((2, 7),), mult=1, add=0))
    assert stage_enumerate(h, 0) == {0}
    assert stage_enumerate(h, 2) == {0}  # delayed member 2 not visible yet
    assert stage_enumerate(h, 6) == {0, 4, 6}
    assert stage_enumerate(h, 7) == {0, 2, 4, 6}
    with pytest.raises(ValueError):
        stage_enumerate(h, -1)


@given(st.integers(0, 40), st.integers(1, 3), st.integers(0, 5))
def test_stages_are_nested_and_bounded(t, mult, add):
    h = Hypothesis(0, parse("01|110"), DelaySchedule(mult=mult, add=add))
    small, big = stage_enumerate(h, t), stage_enumerate(h, t + 1)
    assert small <= big
    assert all(h.extension.member(x) and x <= t for x in small)


def test_stage_reaches_every_member_eventually():
    h = Hypothesis(0, parse("|01"), DelaySchedule(((1, 30),), mult=2, add=1))
    for x in (1, 3, 5, 9):
        assert x in stage_enumerate(h, max(30, 2 * x + 1))


def test_consistent_against_upset_and_hypothesis_and_set():
    d = parse_sequence("0:+,1:-,4:+")
    evens = parse("|10")
    assert consistent(evens, d)
    assert consistent(Hypothesis(6, evens), d)
    assert not consistent(evens, parse_sequence("2:-"))
    assert not consistent(evens, parse_sequence("3:+"))
    assert consistent(EMPTY, parse_sequence("1:-,2:-"))
    with pytest.raises(TypeError):
        consistent("evens", d)


def test_extension_label_is_even_and_injective_on_samples():
    descriptions = ["|0", "|1", "|10", "|01", "1|0", "0|1", "110|01"]
    labels = [extension_label(parse(t)) for t in descriptions]
    assert all(v % 2 == 0 for v in labels)
    assert len(set(labels)) == len(labels)
    # EMPTY prints as |0, two base-4 digits 3 then 1
    assert extension_label(EMPTY) == 2 * (4 * 3 + 1)


def _label_by_digits(u) -> int:
    """Reference: the description read as base-4 digits, one at a time."""
    n = 0
    for ch in str(u):
        n = 4 * n + {"0": 1, "1": 2, "|": 3}[ch]
    return 2 * n


@given(st.text(alphabet="01", max_size=10),
       st.text(alphabet="01", min_size=1, max_size=8))
def test_extension_label_matches_the_digit_loop(prefix, period):
    u = UPSet(prefix, period)
    assert extension_label(u) == _label_by_digits(u)


@given(st.text(alphabet="01", max_size=10),
       st.text(alphabet="01", min_size=1, max_size=8))
def test_hypothesis_for_is_the_checked_hypothesis(prefix, period):
    """Built without `__init__`, it is the hypothesis `__init__` builds:
    equal, hashed, shown and delayed alike, and as frozen."""
    u = UPSet(prefix, period)
    h, want = hypothesis_for(u), Hypothesis(extension_label(u), u)
    assert type(h) is Hypothesis and h == want and want == h
    assert hash(h) == hash(want) and repr(h) == repr(want)
    assert str(h) == str(want) and vars(h) == vars(want)
    assert h.delay is want.delay is DEFAULT_DELAY
    assert h != Hypothesis(extension_label(u) + 1, u)
    with pytest.raises(AttributeError):
        h.label = 0


def test_format_parse_round_trip():
    h = Hypothesis(26, parse("|10"), DelaySchedule(((2, 9),), mult=2, add=1))
    text = format_hypothesis(h)
    assert text == "label=26 ext=|10 delay=2,1;2->9"
    assert str(h) == text

