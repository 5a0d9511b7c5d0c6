"""Canonical forms and exact set algebra for ultimately periodic sets."""

import copy
import math
import operator
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferlab.upset import (
    EMPTY,
    NATURALS,
    Relation,
    UPSet,
    bounded_elements,
    combine,
    complement,
    cycle,
    difference,
    from_cycle,
    from_elements,
    from_mask,
    intersection,
    is_subset,
    mask_elements,
    min_element,
    parse,
    relate,
    to_mask,
    union,
)
from oracles import (
    all_descriptions,
    raw_bound,
    raw_canonical,
    raw_elements,
    raw_member,
    raw_relation,
)

FLIP = str.maketrans("01", "10")

bits = st.text(alphabet="01", max_size=8)
periods = st.text(alphabet="01", min_size=1, max_size=6)
upsets = st.builds(UPSet, bits, periods)


def test_normalize_drops_redundant_period_repetition():
    assert UPSet("", "1010") == UPSet("", "10")


def test_normalize_absorbs_prefix_into_period():
    assert UPSet("1", "1") == NATURALS
    assert UPSet("000", "0") == EMPTY


def test_normalize_worked_example():
    # Derived by brute force below: membership of ("110010", "1010") agrees
    # with ("110", "01") everywhere, and nothing strictly smaller does.
    u = UPSet("110010", "1010")
    assert (u.prefix, u.period) == ("110", "01")
    reference = {x for x in range(41) if raw_member("110010", "1010", x)}
    assert raw_elements("110", "01", 40) == reference
    for p, q in all_descriptions(max_prefix=6, max_period=4):
        if raw_elements(p, q, 40) == reference:
            assert (len(q), len(p)) >= (len(u.period), len(u.prefix))


@settings(max_examples=300, deadline=None)
@given(bits, periods)
def test_normalization_preserves_membership(p, q):
    u = UPSet(p, q)
    bound = raw_bound(p, q, u.prefix, u.period)
    for x in range(bound + 1):
        assert u.member(x) == raw_member(p, q, x)


@settings(max_examples=300, deadline=None)
@given(bits, periods)
def test_canonical_form_is_minimal_and_stable(p, q):
    u = UPSet(p, q)
    again = UPSet(u.prefix, u.period)
    assert (again.prefix, again.period) == (u.prefix, u.period)
    # No strictly shorter period generates the same tail, and given that
    # period length the prefix cannot shrink further.
    n = len(u.period)
    for d in range(1, n):
        assert not (n % d == 0 and u.period == u.period[:d] * (n // d))
    if u.prefix:
        # One more absorption step (rotate the period right and drop the
        # last prefix bit) must change the set, else the form was not minimal.
        rotated = u.period[-1] + u.period[:-1]
        assert raw_elements(u.prefix[:-1], rotated, 40) != raw_elements(
            u.prefix, u.period, 40
        )


def test_rejects_bad_descriptions():
    with pytest.raises(ValueError):
        UPSet("01", "")
    with pytest.raises(ValueError):
        UPSet("0a", "1")
    with pytest.raises(ValueError):
        parse("10")
    with pytest.raises(ValueError):
        parse("1|0|1")
    with pytest.raises(ValueError):
        parse("1|")


@pytest.mark.parametrize("value", [5, b"|1", None, ["|1"], {"|": 1}])
def test_parse_refuses_a_non_string_with_value_error(value):
    with pytest.raises(ValueError, match="P\\|Q notation must be a string"):
        parse(value)


def test_parse_and_str_round_trip():
    for text in ("|10", "10|1", "110|01", "|0", "|1", "101|0"):
        assert str(parse(text)) == text


def test_parse_normalizes():
    assert str(parse("01|01")) == "|01"


def test_member_examples():
    evens = parse("|10")
    assert evens.member(0) and evens.member(4)
    assert not evens.member(7)
    assert 4 in evens
    assert not parse("10|1").member(1)
    with pytest.raises(ValueError):
        evens.member(-1)


def test_relate_examples():
    evens = parse("|10")
    odds = parse("|01")
    assert relate(evens, NATURALS) is Relation.PROPER_SUBSET
    assert relate(NATURALS, evens) is Relation.PROPER_SUPERSET
    assert relate(evens, parse("10|10")) is Relation.EQUAL
    assert relate(evens, odds) is Relation.INCOMPARABLE
    assert is_subset(evens, evens)


def test_combine_examples():
    assert union(parse("|10"), parse("|01")) == NATURALS
    assert difference(NATURALS, from_elements({1})) == parse("10|1")
    assert combine("union", EMPTY, NATURALS) == NATURALS
    with pytest.raises(ValueError):
        combine("xor", EMPTY, EMPTY)


def test_intersection_of_multiples():
    # Multiples of 3 intersected with multiples of 2 are multiples of 6;
    # derived by brute force rather than trusting the headline notation.
    by3, by2 = parse("|100"), parse("|10")
    got = intersection(by3, by2)
    expected = {x for x in range(37) if x % 3 == 0 and x % 2 == 0}
    assert raw_elements(got.prefix, got.period, 36) == expected
    assert str(got) == "|100000"


def test_complement_examples():
    assert complement(NATURALS) == EMPTY
    assert complement(parse("|10")) == parse("|01")
    assert complement(parse("110|0")) == parse("001|1")


def test_bounded_elements_examples():
    assert bounded_elements(parse("|10"), 5) == (0, 2, 4)
    assert bounded_elements(EMPTY, 100) == ()
    assert bounded_elements(parse("10111|0"), 10) == (0, 2, 3, 4)


def test_from_elements_and_min_element():
    assert from_elements(()) == EMPTY
    assert str(from_elements({0, 2})) == "101|0"
    assert min_element(EMPTY) is None
    assert min_element(parse("0001|0")) == 3
    assert min_element(parse("|01")) == 1
    with pytest.raises(ValueError):
        from_elements({-1})


def test_finite_and_cofinite_flags():
    assert EMPTY.is_finite()
    assert not NATURALS.is_finite()
    assert from_elements({3, 5}).is_finite()
    assert not parse("|10").is_finite()


@settings(max_examples=200, deadline=None)
@given(upsets, upsets)
def test_boolean_laws(a, b):
    assert union(a, b) == union(b, a)
    assert intersection(a, b) == intersection(b, a)
    assert complement(complement(a)) == a
    assert complement(union(a, b)) == intersection(complement(a), complement(b))
    assert complement(intersection(a, b)) == union(complement(a), complement(b))
    assert difference(a, b) == intersection(a, complement(b))
    assert union(a, a) == a and intersection(a, a) == a
    assert union(a, complement(a)) == NATURALS
    assert intersection(a, complement(a)) == EMPTY


@settings(max_examples=200, deadline=None)
@given(upsets, upsets, upsets)
def test_lattice_laws(a, b, c):
    assert union(a, union(b, c)) == union(union(a, b), c)
    assert intersection(a, intersection(b, c)) == intersection(intersection(a, b), c)
    assert intersection(a, union(b, c)) == union(intersection(a, b), intersection(a, c))


def test_relate_against_brute_force():
    rng = random.Random(7)
    for _ in range(300):
        pa = "".join(rng.choice("01") for _ in range(rng.randrange(6)))
        qa = "".join(rng.choice("01") for _ in range(1, rng.randrange(2, 6)))
        pb = "".join(rng.choice("01") for _ in range(rng.randrange(6)))
        qb = "".join(rng.choice("01") for _ in range(1, rng.randrange(2, 6)))
        assert relate(UPSet(pa, qa), UPSet(pb, qb)).value == raw_relation(pa, qa, pb, qb)


def test_combination_is_congruent_on_equal_inputs():
    # Two raw descriptions of the evens must combine identically.
    e1, e2 = UPSet("", "10"), UPSet("1010", "1010")
    assert e1 == e2
    other = parse("110|01")
    assert union(e1, other) == union(e2, other)
    assert difference(other, e1) == difference(other, e2)


# Long prefixes whose tail often continues the period, so the canonical
# trim has long runs to absorb.
long_descriptions = st.builds(
    lambda head, q, reps, cut: ((head + q * reps)[cut:][:120], q),
    st.text(alphabet="01", max_size=120),
    periods,
    st.integers(0, 30),
    st.integers(0, 5),
)


@settings(max_examples=300, deadline=None)
@given(long_descriptions, long_descriptions, st.integers(-1, 200))
def test_kernels_match_the_raw_oracle(da, db, bound):
    (pa, qa), (pb, qb) = da, db
    a, b = UPSet(pa, qa), UPSet(pb, qb)
    assert (a.prefix, a.period) == raw_canonical(pa, qa)
    assert (b.prefix, b.period) == raw_canonical(pb, qb)
    top = raw_bound(pa, qa, pb, qb)
    ea, eb = raw_elements(pa, qa, top), raw_elements(pb, qb, top)
    for got, want in ((union(a, b), ea | eb), (intersection(a, b), ea & eb),
                      (difference(a, b), ea - eb),
                      (complement(a), set(range(top + 1)) - ea)):
        assert raw_elements(got.prefix, got.period, top) == want
    assert relate(a, b).value == raw_relation(pa, qa, pb, qb)
    assert min_element(a) == min(ea, default=None)
    assert bounded_elements(a, bound) == tuple(sorted(raw_elements(pa, qa, bound)))


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 300), max_size=40))
def test_from_mask_matches_from_elements(xs):
    """Bit x of the mask stands for x; the set is the same one
    `from_elements` builds, and the raw rule reads it back."""
    u = from_mask(sum(1 << x for x in xs))
    assert u == from_elements(xs)
    assert raw_elements(u.prefix, u.period, 310) == xs
    with pytest.raises(ValueError):
        from_mask(-1 - sum(1 << x for x in xs))


def _string_walk(m: int) -> list[int]:
    """The set bits of m, read off its bit string one bit at a time."""
    return [x for x, bit in enumerate(format(m, "b")[::-1]) if bit == "1"]


_WIDE = 10**6


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.sets(st.integers(0, 300), max_size=8),  # sparse
    st.sets(st.integers(0, 40), min_size=10),  # dense
    st.sets(st.integers(0, _WIDE), max_size=3).map(lambda xs: xs | {_WIDE}),
    st.integers(0, 64).map(lambda k: set(range(k))),
    # k bits set in a width of 4k - 1, 4k or 4k + 1: either side of the
    # switch between the two ways of reading
    st.tuples(st.integers(1, 20), st.integers(-1, 1)).map(
        lambda kd: set(range(kd[0] - 1)) | {4 * kd[0] - 1 + kd[1]})))
def test_mask_elements_matches_the_string_walk(xs):
    """Sparse and dense masks, and masks 10**6 bits wide, list their set
    bits as walking their bit string does, whichever way they are read."""
    m = sum(1 << x for x in xs)
    assert mask_elements(m) == _string_walk(m) == sorted(xs)


@settings(max_examples=300, deadline=None)
@given(upsets)
def test_complement_is_canonical_as_it_stands(u):
    """`complement` skips the normalization: flipping the bits of a
    canonical form gives the canonical form of the complement."""
    c = complement(u)
    again = UPSet(c.prefix, c.period)
    assert (again.prefix, again.period) == (c.prefix, c.period)
    n = len(u.prefix) + len(u.period) + 2
    assert all(c.member(x) != u.member(x) for x in range(n))


@pytest.mark.parametrize("call", [
    lambda: to_mask(parse("111|0"), -1),
    lambda: bounded_elements(parse("111|0"), -2),
    lambda: bounded_elements(NATURALS, -5),
    lambda: mask_elements(-5),
    lambda: mask_elements(-1),
], ids=["to_mask", "bounded_elements", "bounded_elements_naturals",
        "mask_elements", "mask_elements_minus_one"])
def test_a_negative_width_is_refused_not_sliced(call):
    """A width is a natural: a negative one is not read as a slice from
    the end of the bit string."""
    with pytest.raises(ValueError, match="^naturals only$"):
        call()


def test_every_small_description_against_the_raw_oracle():
    """Small scope: every raw description with prefix and period of at most
    three bits, alone and in all ordered pairs, against the raw rule. Each
    result is the one interned set of its canonical form, found by
    `raw_canonical` from a raw description of the expected set."""
    descs = list(all_descriptions(3, 3))
    assert len(descs) == 210
    top = 3 + 2 * math.lcm(2, 3)  # raw_bound of any two of them
    sets = [UPSet(p, q) for p, q in descs]
    elems = [raw_elements(p, q, top) for p, q in descs]
    members = [[raw_member(p, q, x) for x in range(top + 1)]
               for p, q in descs]
    everything = set(range(top + 1))
    read, interned = {}, {}  # results read back, expected sets by description

    def elements(u):
        if u not in read:
            read[u] = raw_elements(u.prefix, u.period, top)
        return read[u]

    def expected(p, q):
        if (p, q) not in interned:
            interned[p, q] = UPSet(*raw_canonical(p, q))
        return interned[p, q]

    for (p, q), u, e in zip(descs, sets, elems):
        assert u is expected(p, q)
        assert (u.prefix, u.period) == raw_canonical(p, q)
        assert parse(str(u)) is u
        c = complement(u)
        assert c is expected(p.translate(FLIP), q.translate(FLIP))
        assert elements(c) == everything - e
        assert min_element(u) == min(e, default=None)
        assert all(u.member(x) == (x in e) for x in range(top + 1))
        for width in (0, 1, 2, 5, top + 1):
            assert to_mask(u, width) == sum(1 << x for x in e if x < width)
    ops = ((union, operator.or_, lambda x, y: x or y),
           (intersection, operator.and_, lambda x, y: x and y),
           (difference, operator.sub, lambda x, y: x and not y))
    on_masks = {union: operator.or_, intersection: operator.and_,
                difference: lambda x, y: x & ~y}
    for (pa, qa), a, ea, ba in zip(descs, sets, elems, members):
        for (pb, qb), b, eb, bb in zip(descs, sets, elems, members):
            assert relate(a, b).value == raw_relation(pa, qa, pb, qb)
            n = max(len(pa), len(pb))
            length = n + math.lcm(len(qa), len(qb))
            cyc_n, cyc_length, (ma, mb) = cycle(a, b)
            assert cyc_n <= n and cyc_length - cyc_n <= length - n
            for op, on_sets, on_bits in ops:
                got = op(a, b)
                assert from_cycle(on_masks[op](ma, mb), cyc_n,
                                  cyc_length) is got
                assert elements(got) == on_sets(ea, eb)
                raw = "".join("1" if on_bits(ba[x], bb[x]) else "0"
                              for x in range(length))
                assert got is expected(raw[:n], raw[n:])


def test_equal_sets_are_one_object():
    """Sets are interned: every constructor and every operation returns
    the one live set of its canonical form, so `==` is identity."""
    assert UPSet("", "10") is UPSet("1010", "1010")
    assert parse("01|01") is UPSet("", "01")
    assert from_elements({0, 2}) is from_mask(5) is parse("101|0")
    assert union(parse("|10"), parse("|01")) is NATURALS
    assert complement(NATURALS) is EMPTY
    assert intersection(parse("|100"), parse("|10")) is parse("|100000")
    assert difference(NATURALS, from_elements({1})) is parse("10|1")
    assert "__eq__" not in vars(UPSet)


@pytest.mark.parametrize("clone", [
    lambda u: pickle.loads(pickle.dumps(u)),
    lambda u: pickle.loads(pickle.dumps(u, protocol=0)),
    copy.copy,
    copy.deepcopy,
], ids=["pickle", "pickle_protocol_0", "copy", "deepcopy"])
def test_copies_are_the_interned_set(clone):
    for text in ("|0", "|1", "110|01", "101|0"):
        u = parse(text)
        assert clone(u) is u
        assert clone([u])[0] is u


def test_a_set_is_immutable():
    """An interned set is shared, so no attribute can be assigned, the
    private ones included."""
    u = parse("110|01")
    for name in ("prefix", "period", "label", *UPSet.__slots__):
        with pytest.raises(AttributeError):
            setattr(u, name, "1")
    assert str(u) == "110|01" and u is parse("110|01")


def test_the_hash_does_not_depend_on_the_hash_seed():
    code = "from inferlab.upset import parse; print(hash(parse('0|10')))"
    hashes = {subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True, timeout=60,
                             env=dict(os.environ, PYTHONHASHSEED=seed)).stdout
              for seed in ("0", "1")}
    assert len(hashes) == 1 and hashes != {""}
