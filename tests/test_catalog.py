"""Catalog families and reference learners."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inferlab import evidence
from inferlab.catalog import (
    FAMILY_IDS,
    LANGUAGE_IDS,
    LEARNER_IDS,
    constant_learner,
    family_instances,
    language,
    learner,
    list_catalog,
)
from inferlab.evidence import (
    DataSet,
    DataSequence,
    Informant,
    canonical_informant,
    prefix,
)
from inferlab.hypothesis import hypothesis_for
from inferlab.interaction import run
from inferlab.restrictions import check, check_all
from inferlab.upset import (EMPTY, NATURALS, UPSet, complement, from_elements,
                            parse)
from oracles import raw_even_dualmon, raw_stream_mon


# ---------------------------------------------------------------------------
# languages

def test_language_examples():
    assert language("cofinite", remove={1}) == parse("10|1")
    assert language("segment", n=3) == from_elements({0, 1, 2, 3})
    assert language("naturals") == NATURALS
    assert language("finite", elements=(4, 0)) == from_elements({0, 4})
    assert language("finite") == EMPTY


def test_stream_languages():
    x = language("streamX")
    assert [v for v in range(10) if x.member(v)] == [0, 3, 6, 9]
    y0 = language("streamY", n=0)
    assert y0 == UPSet("100", "010")
    assert [v for v in range(12) if y0.member(v)] == [0, 4, 7, 10]
    # b's cut off at m, then the single c_m
    z = language("streamZ", n=1, m=2)
    assert z == from_elements({0, 3, 7, 8})
    assert z.is_finite()


def test_even_languages():
    assert language("evenX") == parse("|10")
    assert language("evenY", n=1) == from_elements({0, 2, 3})
    assert language("evenZ", n=1, m=2) == from_elements({0, 2, 3, 4})


def test_language_rejects_bad_input():
    with pytest.raises(ValueError):
        language("streamZ", n=2, m=2)
    with pytest.raises(ValueError):
        language("evenZ", n=3, m=1)
    with pytest.raises(ValueError):
        language("segment", n=-1)
    with pytest.raises(ValueError):
        language("no_such_language")
    with pytest.raises(ValueError):
        language("finite", n=3)  # wrong parameter name


def test_family_instances_finite_enumeration():
    inst = family_instances("finite", 8)
    assert inst[0] == EMPTY
    assert inst[3] == from_elements({0, 1})
    assert inst[7] == from_elements({0, 1, 2})
    assert len(set(inst)) == 8
    # same code drives both: cofinite instances mirror the finite ones
    assert family_instances("cofinite", 5)[3] == parse("00|1")


def test_family_instances_shapes():
    cof = family_instances("cofinite", 4)
    assert all(complement(u).is_finite() for u in cof)
    seg = family_instances("segments_or_N", 4)
    assert seg[0] == NATURALS and seg[1] == from_elements({0})
    nfin = family_instances("N_or_finite", 3)
    assert nfin == (NATURALS, EMPTY, from_elements({0}))
    stream = family_instances("streamXYZ", 6)
    assert stream == (
        language("streamX"),
        language("streamY", n=0),
        language("streamZ", n=0, m=1),
        language("streamY", n=1),
        language("streamZ", n=0, m=2),
        language("streamZ", n=1, m=2),
    )
    assert len(family_instances("evenXYZ", 9)) == 9
    assert all(family_instances(f, 0) == () for f in FAMILY_IDS)
    with pytest.raises(ValueError):
        family_instances("unknown")


# ---------------------------------------------------------------------------
# learners, pointwise

def _content(pairs):
    return DataSet(frozenset(pairs))


def test_fin_pos_and_cofinite():
    ctx = None
    h = learner("fin_pos").fn(_content([(0, 1), (5, 0)]), ctx)
    assert h.extension == from_elements({0})
    g = learner("cofinite").fn(_content([(0, 1), (5, 0)]), ctx)
    assert g.extension == parse("111110|1")


def test_segment_learner():
    seq = DataSequence(((3, 0), (0, 1)))
    h = learner("segment").fn(seq, None)
    assert h.extension == from_elements({0, 1, 2})
    assert learner("segment").fn(DataSequence(((0, 1),)), None).extension == NATURALS


def test_n_or_fin_learner():
    assert learner("n_or_fin").fn(DataSequence(((2, 1),)), None).extension == NATURALS
    h = learner("n_or_fin").fn(DataSequence(((2, 1), (4, 0))), None)
    assert h.extension == from_elements({2})


def test_maxpos_learner():
    h = learner("maxpos").fn(_content([(2, 1), (5, 1), (7, 0)]), None)
    assert h.label == 5
    assert h.extension == from_elements({2, 5})
    assert learner("maxpos").fn(_content([(7, 0)]), None) == hypothesis_for(EMPTY)


def test_even_dualmon_pointwise():
    # odd marker plus its even partner pins the boundary
    seq = DataSequence(((2, 1), (3, 1)))
    h = learner("even_dualmon").fn(seq, None)
    assert h.extension == language("evenY", n=1) == from_elements({0, 2, 3})
    # no marker yet: stay on the evens
    plain = learner("even_dualmon").fn(DataSequence(((0, 1),)), None)
    assert plain.extension == language("evenX")


def test_stream_mon_trace():
    z = language("streamZ", n=1, m=2)
    seq = run(learner("stream_mon"), canonical_informant(z), 9)
    exts = [h.extension for h in seq]
    assert exts[:8] == [language("streamX")] * 8
    assert exts[8] == language("streamY", n=1)
    assert exts[9] == z


def test_fresh_label_memorizer():
    a = learner("fresh_label")
    b = learner("fresh_label")
    d1 = _content([(0, 1)])
    d2 = _content([(0, 1), (1, 0)])
    assert a.fn(d1, None).label == b.fn(d1, None).label
    assert a.fn(d1, None).label != a.fn(d2, None).label
    assert a.fn(d2, None).extension == from_elements({0})


# any evidence below 90, or a canonical prefix of a three-tier instance
_drawn_evidence = st.one_of(
    st.dictionaries(st.integers(0, 89), st.integers(0, 1), max_size=60).map(
        lambda shown: DataSequence(tuple(shown.items()))),
    st.builds(lambda u, n: prefix(canonical_informant(u), n),
              st.sampled_from(family_instances("streamXYZ", 12)
                              + family_instances("evenXYZ", 12)),
              st.integers(0, 90)))


@settings(max_examples=400, deadline=None)
@given(_drawn_evidence)
def test_three_tier_learners_match_their_references(d):
    assert learner("stream_mon").fn(d, None) == raw_stream_mon(d, None)
    assert learner("even_dualmon").fn(d, None) == raw_even_dualmon(d, None)


@settings(max_examples=300, deadline=None)
@given(_drawn_evidence, _drawn_evidence)
def test_fresh_label_is_odd_and_one_per_content(d1, d2):
    fn = learner("fresh_label").fn
    a, b = fn(evidence.content(d1), None), fn(evidence.content(d2), None)
    assert a.label % 2 == 1 and b.label % 2 == 1
    assert (a.label == b.label) == (evidence.content(d1)
                                    == evidence.content(d2))


@pytest.mark.parametrize("lid", LEARNER_IDS)
def test_catalog_learners_read_the_masks_alone(lid, monkeypatch):
    """A run of any catalog learner neither lists a mask's elements nor
    builds the items of the evidence it is handed."""
    family = {e.learner: e for e in list_catalog("learners")}[lid].family
    target = family_instances(family, 3)[2]

    def refuse(*args):
        raise AssertionError("read past the masks")

    monkeypatch.setattr(evidence, "mask_elements", refuse)
    monkeypatch.setattr(evidence._Items, "__get__", refuse)
    assert len(run(learner(lid), canonical_informant(target), 60)) == 61


def test_constant_learners():
    u = parse("10|1")
    c = constant_learner(u)
    assert c.kind == "Sd"
    assert c.fn(_content([(0, 1)]), None) == hypothesis_for(u)
    assert learner("constant_empty").fn(_content([(3, 1)]), None) == hypothesis_for(EMPTY)


def test_learner_unknown_id():
    with pytest.raises(ValueError):
        learner("nope")


# ---------------------------------------------------------------------------
# behaviour on home families

def test_even_dualmon_drops_an_even():
    # on the canonical informant of Z_{1,2} the learner passes through
    # Y_1 and loses the even number 2m = 4 that it conjectured before
    z = language("evenZ", n=1, m=2)
    seq = run(learner("even_dualmon"), canonical_informant(z), 5)
    assert seq[4].extension == language("evenY", n=1)
    v = check("mon", seq)
    assert not v.satisfied
    assert v.indices == (0, 4)
    assert v.element == 4
    assert check("mon_d", seq).satisfied


def test_stream_mon_adds_an_outsider():
    # dual reading of the same story: Y_1 picks up b_3 = 10, which is
    # neither in the earlier conjecture X nor in the target
    z = language("streamZ", n=1, m=2)
    seq = run(learner("stream_mon"), canonical_informant(z), 9)
    v = check("mon_d", seq)
    assert not v.satisfied
    assert v.indices == (0, 8)
    assert v.element == 10
    assert check("mon", seq).satisfied


_VIOLATION_WITNESSES = [
    ("fin_pos", "smon_d", lambda: canonical_informant(from_elements({0, 1})), 4),
    ("cofinite", "smon", lambda: canonical_informant(parse("10|1")), 4),
    ("cofinite", "caut", lambda: canonical_informant(parse("10|1")), 4),
    ("cofinite", "caut_inf", lambda: canonical_informant(parse("10|1")), 4),
    ("cofinite", "caut_tar", lambda: canonical_informant(parse("10|1")), 4),
    ("maxpos", "ex",
     lambda: Informant(from_elements({3, 5}), ((5, 1),), "shuffled", 0), 10),
    ("segment", "smon", lambda: canonical_informant(from_elements({0, 1})), 5),
    ("segment", "caut_fin", lambda: canonical_informant(from_elements({0, 1})), 5),
    ("segment", "caut_tar", lambda: canonical_informant(from_elements({0, 1})), 5),
    ("n_or_fin", "caut", lambda: canonical_informant(from_elements({0})), 4),
    ("n_or_fin", "caut_fin", lambda: canonical_informant(from_elements({0})), 4),
    ("stream_mon", "cons",
     lambda: canonical_informant(language("streamY", n=0)), 4),
    ("stream_mon", "mon_d",
     lambda: canonical_informant(language("streamZ", n=1, m=2)), 9),
    ("stream_mon", "mon_b",
     lambda: canonical_informant(language("streamZ", n=1, m=2)), 9),
    ("even_dualmon", "cons",
     lambda: Informant(language("evenY", n=1), ((3, 1),), "shuffled", 0), 3),
    ("even_dualmon", "mon",
     lambda: canonical_informant(language("evenZ", n=1, m=2)), 5),
    ("even_dualmon", "mon_b",
     lambda: canonical_informant(language("evenZ", n=1, m=2)), 5),
    ("fresh_label", "ex", lambda: canonical_informant(from_elements({0})), 6),
    ("constant_empty", "bc", lambda: canonical_informant(from_elements({0})), 5),
]


@pytest.mark.parametrize("lid,rid,make,horizon", _VIOLATION_WITNESSES)
def test_advertised_violations_have_witnesses(lid, rid, make, horizon):
    entry = {e.learner: e for e in list_catalog("learners")}[lid]
    assert rid in entry.violates
    seq = run(learner(lid), make(), horizon)
    assert not check(rid, seq).satisfied


def test_advertised_satisfactions_hold():
    # every satisfies claim in the registry survives canonical and
    # shuffled informants over the learner's home family
    for entry in list_catalog("learners"):
        lad = learner(entry.learner)
        for target in family_instances(entry.family, 5):
            for informant in (
                canonical_informant(target),
                Informant(target, (), "shuffled", 1),
            ):
                verdicts = check_all(run(lad, informant, 30))
                for rid in entry.satisfies:
                    assert verdicts[rid].satisfied, (
                        entry.learner, rid, str(target), repr(informant))


def test_list_catalog_metadata():
    fams = list_catalog("families")
    assert tuple(f.family for f in fams) == FAMILY_IDS
    for f in fams:
        assert f.learner in LEARNER_IDS
        assert all(l in LANGUAGE_IDS for l in f.languages)
    rows = list_catalog("learners")
    ids = {r.learner for r in rows}
    assert {"fin_pos", "cofinite", "maxpos", "segment",
            "n_or_fin", "stream_mon", "even_dualmon"} <= ids
    with pytest.raises(ValueError):
        list_catalog("recipes")
