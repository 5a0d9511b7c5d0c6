import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import inferlab.restrictions as restrictions
from inferlab.catalog import LEARNER_IDS
from inferlab.catalog import learner as catalog_learner
from inferlab.evidence import (
    ORDERS,
    Example,
    Informant,
    canonical_informant,
    pos,
)
from inferlab.hypothesis import Hypothesis, hypothesis_for
from inferlab.interaction import (
    EvalContext,
    HypSequence,
    Learner,
    run,
    with_fresh_labels,
)
from inferlab.restrictions import (
    RESTRICTION_IDS,
    Verdict,
    check,
    check_all,
    check_bc,
    check_cautious,
    check_cons,
    check_ex,
    check_monotone,
    evaluate_site,
    probe_semantic,
    revalidate,
)
from inferlab.upset import (
    EMPTY,
    NATURALS,
    UPSet,
    complement,
    difference,
    from_elements,
    parse,
    union,
)
from oracles import (all_descriptions, raw_first_conflict,
                     raw_first_single_site, raw_first_site, raw_member,
                     raw_pair_bad, raw_site)

EVENS = parse("|10")


def seq_of(target, extensions, informant=None):
    inf = informant if informant is not None else canonical_informant(target)
    items = tuple(hypothesis_for(u) for u in extensions)
    return HypSequence(items, "handmade", inf)


def fin(*xs):
    return from_elements(set(xs))


def test_restriction_catalogue_is_fixed():
    assert len(RESTRICTION_IDS) == 16
    assert len(set(RESTRICTION_IDS)) == 16
    with pytest.raises(ValueError):
        check("mon&", seq_of(EVENS, [EVENS]))


def test_cons_accepts_and_rejects():
    ok = seq_of(EVENS, [fin(), fin(0), fin(0), fin(0, 2)])
    assert check_cons(ok) == Verdict("cons", True)
    # third hypothesis forgets the positive datum 0 shown at index 0
    bad = seq_of(EVENS, [fin(), fin(0), fin(2), fin(0, 2)])
    v = check_cons(bad)
    assert (v.satisfied, v.indices, v.element) == (False, (2,), 0)
    assert "0:+" in v.detail


def test_cons_rejects_covered_negative():
    bad = seq_of(EVENS, [fin(), fin(0), fin(0, 1)])
    v = check_cons(bad)
    assert (v.satisfied, v.indices, v.element) == (False, (2,), 1)


def test_smon_and_mon():
    grow = seq_of(EVENS, [fin(), fin(0), fin(0, 2), EVENS])
    assert check("smon", grow).satisfied
    assert check("mon", grow).satisfied
    drop = seq_of(EVENS, [fin(0, 2), fin(0)])
    v = check("smon", drop)
    assert (v.satisfied, v.indices, v.element) == (False, (0, 1), 2)
    # dropping an element outside the target is fine for mon
    noisy = seq_of(EVENS, [fin(0, 3), fin(0), EVENS])
    assert check("mon", noisy).satisfied
    assert not check("smon", noisy).satisfied
    v = check("mon", seq_of(EVENS, [fin(0, 2), fin(0), EVENS]))
    assert (v.satisfied, v.indices, v.element) == (False, (0, 1), 2)


def test_mon_dual_tracks_negatives():
    # 3 is outside the target: excluded at 0, covered at 1
    bad = seq_of(EVENS, [fin(0), fin(0, 3), EVENS])
    v = check("mon_d", bad)
    assert (v.satisfied, v.indices, v.element) == (False, (0, 1), 3)
    # covering a target element late is no dual violation
    assert check("mon_d", seq_of(EVENS, [fin(0), fin(0, 2)])).satisfied


def test_mon_both_requires_both():
    assert check("mon_b", seq_of(EVENS, [fin(0), fin(0, 2), EVENS])).satisfied
    assert not check("mon_b", seq_of(EVENS, [fin(0), fin(0, 3)])).satisfied
    assert not check("mon_b", seq_of(EVENS, [fin(0, 2), fin(0)])).satisfied


def test_smon_dual_and_both():
    shrink = seq_of(EVENS, [NATURALS, EVENS, EVENS])
    assert check("smon_d", shrink).satisfied
    assert not check("smon", shrink).satisfied
    v = check("smon_d", seq_of(EVENS, [fin(0), fin(0, 2)]))
    assert (v.satisfied, v.indices, v.element) == (False, (0, 1), 2)
    constant = seq_of(EVENS, [EVENS, EVENS, EVENS])
    assert check("smon_b", constant).satisfied
    assert not check("smon_b", shrink).satisfied


def test_wmon_gate_exempts_inconsistent_ancestors():
    # by index 2 the datum 1:- has discredited {0,1}, so dropping 1 is free
    seq = seq_of(EVENS, [fin(0, 1), fin(0, 1), fin(0)])
    assert check("wmon", seq) == Verdict("wmon", True)
    # at t=1 only 0:+ has been shown and {0,1} is still in the game
    v = check("wmon", seq_of(EVENS, [fin(0, 1), fin(0)]))
    assert not v.satisfied and v.indices == (0, 1) and v.element == 1


def test_wmon_dual_and_both():
    v = check("wmon_d", seq_of(EVENS, [fin(0), fin(0, 2)]))
    assert (v.satisfied, v.indices, v.element) == (False, (0, 1), 2)
    assert check("wmon_d", seq_of(EVENS, [fin(1), fin(0)])).satisfied
    assert not check("wmon_b", seq_of(EVENS, [fin(0), fin(0, 2)])).satisfied


def test_caut_family():
    descent_fin = seq_of(EVENS, [EVENS, fin(0)])
    descent_inf = seq_of(EVENS, [NATURALS, EVENS])
    incomparable = seq_of(EVENS, [fin(1), fin(0), EVENS])
    v = check("caut", descent_fin)
    assert (v.satisfied, v.indices, v.element) == (False, (0, 1), 2)
    assert not check("caut", descent_inf).satisfied
    assert check("caut", incomparable).satisfied
    # descent onto a finite set breaks caut_fin, not caut_inf
    assert not check("caut_fin", descent_fin).satisfied
    assert check("caut_inf", descent_fin).satisfied
    assert check("caut_fin", descent_inf).satisfied
    assert not check("caut_inf", descent_inf).satisfied
    # the descent is from index 0, past an incomparable extension at 1
    v = check("caut", seq_of(EVENS, [fin(0, 1), fin(5), fin(0)]))
    assert (v.satisfied, v.indices, v.element) == (False, (0, 2), 1)


def test_caut_target():
    v = check("caut_tar", seq_of(EVENS, [fin(0), union_evens_one()]))
    assert (v.satisfied, v.indices, v.element) == (False, (1,), 1)
    assert check("caut_tar", seq_of(EVENS, [NATURALS])).satisfied is False
    assert check("caut_tar", seq_of(EVENS, [fin(0, 1), EVENS])).satisfied


def union_evens_one():
    return parse("11|10")


def test_bc_minimal_settling_index():
    good = seq_of(EVENS, [fin(0), EVENS, EVENS])
    v = check_bc(good)
    assert v.satisfied and v.detail == "correct from 1"
    flaky = seq_of(EVENS, [EVENS, fin(0), EVENS])
    assert check_bc(flaky).detail == "correct from 2"
    assert check_bc(seq_of(EVENS, [EVENS])).detail == "correct from 0"
    bad = seq_of(EVENS, [EVENS, fin(0)])
    v = check_bc(bad)
    assert (v.satisfied, v.indices, v.element) == (False, (1,), 2)


def test_ex_needs_a_settled_tail_of_two():
    a, b = hypothesis_for(EVENS), Hypothesis(99, EVENS)
    inf = canonical_informant(EVENS)
    assert check_ex(HypSequence((b, a, a), "x", inf)).satisfied
    v = check_ex(HypSequence((a, b), "x", inf))
    assert not v.satisfied and v.indices == (0, 1)
    assert check_ex(HypSequence((a,), "x", inf)) == Verdict(
        "ex", False, (0,), None, "horizon too short to observe settling"
    )
    # bc is satisfied by a lone correct final hypothesis, ex is not
    assert check_bc(HypSequence((a, b), "x", inf)).satisfied


def test_ex_settled_label_must_name_target():
    wrong = hypothesis_for(fin(0))
    seq = HypSequence((wrong, wrong, wrong), "x", canonical_informant(EVENS))
    v = check_ex(seq)
    assert (v.satisfied, v.indices, v.element) == (False, (0,), 2)
    assert "wrong set" in v.detail


def test_ex_rejects_a_site_before_the_label_settles():
    # the final label 7 holds only from index 2 on, where the extension
    # names the target; index 0 shares the label but not the tail
    seq = HypSequence(
        tuple(map(Hypothesis, (7, 8, 7, 7), (NATURALS, EVENS, EVENS, EVENS))),
        "x", canonical_informant(EVENS))
    assert check("ex", seq).satisfied
    assert not revalidate(Verdict("ex", False, (0,), 1), seq)


def test_relabelling_preserves_bc_and_breaks_ex():
    base = Learner("tail", "Sd", lambda d, ctx: hypothesis_for(
        EVENS if len(d) >= 2 else from_elements(pos(d))))
    inf = canonical_informant(EVENS)
    plain = run(base, inf, 10)
    fresh = run(with_fresh_labels(base), inf, 10, EvalContext())
    assert probe_semantic(plain, fresh)
    assert check("bc", plain).satisfied and check("ex", plain).satisfied
    assert check("bc", fresh).satisfied
    assert not check("ex", fresh).satisfied
    with pytest.raises(ValueError, match="different length"):
        probe_semantic(plain, run(base, inf, 9))


CORPUS_EXTENSIONS = [
    [parse("|0"), parse("1|0"), parse("|10")],
    [parse("|10"), parse("|10"), parse("|10")],
    [NATURALS, parse("|10"), parse("|10")],
    [parse("1|0"), parse("101|0"), parse("|10"), parse("|10")],
    [parse("0111|0"), parse("01|0"), parse("|10")],
    [parse("|1"), NATURALS, parse("11|10"), parse("|10")],
    [parse("1|0"), parse("1|0"), parse("001|10"), parse("|10"), parse("|10")],
]

IMPLICATIONS = [
    ("smon", "mon"),
    ("smon", "wmon"),
    ("smon", "caut"),
    ("smon_d", "mon_d"),
    ("smon_d", "wmon_d"),
    ("mon_b", "mon"),
    ("mon_b", "mon_d"),
    ("smon_b", "smon"),
    ("smon_b", "smon_d"),
    ("wmon_b", "wmon"),
    ("wmon_b", "wmon_d"),
    ("ex", "bc"),
]


def test_implication_lattice_on_corpus():
    for exts in CORPUS_EXTENSIONS:
        seq = seq_of(EVENS, exts)
        verdicts = check_all(seq)
        for weak, strong in IMPLICATIONS:
            if verdicts[weak].satisfied:
                assert verdicts[strong].satisfied, (exts, weak, strong)
        assert verdicts["caut"].satisfied == (
            verdicts["caut_fin"].satisfied and verdicts["caut_inf"].satisfied
        )
        if verdicts["bc"].satisfied and verdicts["caut"].satisfied:
            assert verdicts["caut_tar"].satisfied
        if verdicts["bc"].satisfied and verdicts["smon"].satisfied:
            assert verdicts["mon_b"].satisfied
        if verdicts["bc"].satisfied and verdicts["smon_d"].satisfied:
            assert verdicts["mon_b"].satisfied


def test_violation_sites_stable_under_longer_horizon():
    learner = Learner(
        "wobble", "Sd",
        lambda d, ctx: hypothesis_for(fin(0, 2) if len(d) % 2 else fin(0)),
    )
    inf = canonical_informant(EVENS)
    short = run(learner, inf, 4)
    long = run(learner, inf, 9)
    for rid in ("smon_d", "caut", "mon"):
        a, b = check(rid, short), check(rid, long)
        assert not a.satisfied and (a.indices, a.element) == (b.indices, b.element)


def test_revalidate_detects_tampering():
    seq = seq_of(EVENS, [fin(0, 2), fin(0), EVENS])
    v = check("mon", seq)
    assert not v.satisfied
    assert revalidate(v, seq)
    wrong_elt = dataclasses.replace(v, element=0)
    wrong_site = dataclasses.replace(v, indices=(1, 2))
    flipped = dataclasses.replace(v, satisfied=True)
    assert not revalidate(wrong_elt, seq)
    assert not revalidate(wrong_site, seq)
    assert not revalidate(flipped, seq)
    ok = check("cons", seq)
    assert ok.satisfied and revalidate(ok, seq)


def test_revalidate_out_of_range_site():
    seq = seq_of(EVENS, [fin(0)])
    v = Verdict("smon", False, (0, 5), 0)
    assert not revalidate(v, seq)


def test_a_site_given_as_a_list_evaluates_as_its_tuple():
    """Indices read back from JSON come as a list; the family does not
    decide whether they are accepted."""
    seen = set()
    for lid in LEARNER_IDS:
        for target in ("|10", "0|1", "10|1", "|1"):
            seq = run(catalog_learner(lid), canonical_informant(parse(target)),
                      12)
            for rid, v in check_all(seq).items():
                if v.satisfied:
                    continue
                seen.add(rid)
                assert evaluate_site(rid, seq, list(v.indices), v.element), \
                    (lid, target, rid, v)
    assert {"cons", "mon", "caut", "caut_tar", "bc", "ex"} <= seen


def test_checkers_refuse_an_id_outside_their_family():
    seq = seq_of(EVENS, [fin(0)])
    with pytest.raises(ValueError, match="unknown restriction"):
        check("sideways", seq)
    with pytest.raises(ValueError, match="not a monotonicity variant"):
        check_monotone("caut", seq)
    with pytest.raises(ValueError, match="not a caution variant"):
        check_cautious("mon", seq)


PAIR_VARIANTS = ("mon", "mon_d", "mon_b", "smon", "smon_d", "smon_b",
                 "wmon", "wmon_d", "wmon_b", "caut", "caut_fin", "caut_inf")
raw_sets = st.tuples(st.text("01", max_size=5),
                     st.text("01", min_size=1, max_size=3))


@st.composite
def pair_runs(draw, labels=False):
    """Runs mixing repeats, increasing chains, descents and random jumps.

    A recall move takes a subset of an extension from further back, which
    makes descents from indices other than the previous one.

    Besides the naturals, the target and random sets, the pool holds
    copies of the target with one bit flipped: each is consistent with the
    data until the flipped element is shown, which drives the weakly
    monotone gate.

    With `labels`, each hypothesis gets a label drawn from {0, 1, 2}
    instead of the one its extension names, so labels repeat, change and
    come back.
    """
    tp, tq = draw(raw_sets)
    target = UPSet(tp, tq)
    pool = [NATURALS, target]
    pool += [UPSet(*d) for d in draw(st.lists(raw_sets, max_size=4))]
    width = len(tp) + 8 * len(tq)
    bits = "".join("1" if raw_member(tp, tq, x) else "0" for x in range(width))
    for j in draw(st.lists(st.integers(0, width - 1), max_size=4)):
        pool.append(UPSet(bits[:j] + "10"[int(bits[j])] + bits[j + 1:], tq))
    moves = st.tuples(
        st.sampled_from(("stay", "jump", "grow", "shrink", "recall")),
        st.integers(0, len(pool) - 1), st.integers(0, 17))
    exts = [pool[draw(st.integers(0, len(pool) - 1))]]
    for move, k, j in draw(st.lists(moves, max_size=18)):
        prev, old = exts[-1], exts[j % len(exts)]
        exts.append({"stay": prev, "jump": pool[k],
                     "grow": union(prev, pool[k]),
                     "shrink": difference(prev, pool[k]),
                     "recall": difference(old, pool[k])}[move])
    order = draw(st.sampled_from(("canonical", "shuffled", "fresh")))
    head = tuple(Example(v, int(target.member(v)))
                 for v in draw(st.lists(st.integers(0, 12), max_size=3)))
    seed = draw(st.integers(0, 9))
    inf = Informant(target, head, order, seed)
    if not labels:
        return seq_of(target, exts, inf)
    drawn = draw(st.lists(st.integers(0, 2), min_size=len(exts),
                          max_size=len(exts)))
    return HypSequence(tuple(map(Hypothesis, drawn, exts)), "handmade", inf)


def _raw(u):
    return str(u).split("|")


@settings(max_examples=300, deadline=None)
@given(pair_runs())
def test_pair_scans_match_the_full_scan_oracle(seq):
    inf, horizon = seq.informant, len(seq) - 1
    data = [inf.example_at(i) for i in range(horizon)]
    exts = [_raw(h.extension) for h in seq.items]
    conflicts = [next((i for i, ex in enumerate(data)
                       if raw_member(p, q, ex.value) != bool(ex.label)), None)
                 for p, q in exts]
    for rid in PAIR_VARIANTS:
        v = check(rid, seq)
        expected = raw_first_site(rid, exts, _raw(inf.target), conflicts)
        assert (v.satisfied, v.indices, v.element) == expected, rid
        if not v.satisfied:
            assert evaluate_site(rid, seq, v.indices, v.element), rid


SINGLE_SITES = ("cons", "caut_tar", "bc", "ex")


def _raw_run(seq):
    """The run as `raw_site` reads it: raw bits and the informant's data."""
    inf, horizon = seq.informant, len(seq) - 1
    return ([_raw(h.extension) for h in seq.items],
            [h.label for h in seq.items], _raw(inf.target),
            [inf.example_at(i) for i in range(horizon)])


@settings(max_examples=300, deadline=None)
@given(pair_runs(labels=True), st.data())
def test_revalidate_accepts_exactly_the_oracle_sites(seq, data):
    """A violated verdict revalidates iff its (indices, element) is a site.

    Candidates are check's own site, where it has one, and a drawn site,
    each moved by one on an index, given another element, or given none.
    An element that is not a natural (a bool is not one) never revalidates.
    """
    raw = _raw_run(seq)
    sites = st.tuples(st.lists(st.integers(0, len(seq) - 1), min_size=1,
                               max_size=2).map(tuple), st.integers(0, 12))
    for rid in RESTRICTION_IDS:
        v = check(rid, seq)
        if rid in SINGLE_SITES:
            assert (v.satisfied, v.indices, v.element) == \
                raw_first_single_site(rid, *raw), rid
        bases = [data.draw(sites)]
        if not v.satisfied:
            bases.append((v.indices, v.element))
        candidates = []
        for indices, element in bases:
            xs = {element, data.draw(st.integers(0, 40)), None}
            if element is not None:
                xs |= {element + 1, abs(element - 1)}
            candidates += [(indices, x) for x in xs]
            for k in range(len(indices)):
                for step in (-1, 1):
                    moved = (*indices[:k], indices[k] + step, *indices[k + 1:])
                    candidates.append((moved, element))
        for cand, x in candidates:
            assert revalidate(Verdict(rid, False, cand, x), seq) == raw_site(
                rid, *raw, cand, x), (rid, cand, x)
        for cand in {indices for indices, _ in candidates}:
            for x in (-1, "x", 1.5, True):
                assert revalidate(Verdict(rid, False, cand, x), seq) is False, \
                    (rid, cand, x)


@settings(max_examples=300, deadline=None)
@given(pair_runs(labels=True))
def test_sites_are_stable_when_the_horizon_doubles(seq):
    """A violation found at horizon H has the same site at 2H.

    Checked for the pair variants, cons and caut_tar. bc and ex are left
    out: their sites are tied to the horizon by definition, since bc is
    violated only at the horizon and ex only past the point where the
    final label settled.
    """
    h = (len(seq) - 1) // 2
    short, long = (HypSequence(seq.items[:n + 1], "handmade", seq.informant)
                   for n in (h, 2 * h))
    for rid in (*PAIR_VARIANTS, "cons", "caut_tar"):
        v = check(rid, short)
        if not v.satisfied:
            w = check(rid, long)
            assert (w.satisfied, w.indices, w.element) == (
                False, v.indices, v.element), rid


def _pair_tests(monkeypatch, seq) -> int:
    """Pair tests made by one check_all: monotone plus caution pairs."""
    calls = 0
    pair_bad = restrictions._pair_bad

    def counting(*args):
        nonlocal calls
        calls += 1
        return pair_bad(*args)

    with monkeypatch.context() as m:
        m.setattr(restrictions, "_pair_bad", counting)
        check_all(seq)
    return calls


@pytest.mark.parametrize("lid,informant", [
    ("fin_pos", canonical_informant(parse("0|1"))),
    ("cofinite", Informant(parse("|0"), tuple(
        Example(v, 0) for v in (29, 26, 9, 27)))),
])
def test_check_all_makes_a_linear_number_of_pair_tests(
        monkeypatch, lid, informant):
    counts = [_pair_tests(monkeypatch, run(catalog_learner(lid), informant, h))
              for h in (100, 200)]
    assert 0 < counts[1] <= 2.5 * counts[0], counts


@settings(max_examples=300, deadline=None)
@given(st.lists(raw_sets, min_size=1, max_size=3),
       st.lists(st.integers(0, 2), min_size=1, max_size=16))
def test_blocks_are_the_change_points(raws, picks):
    """`HypSequence.blocks` is the naive list of change points, also on
    runs whose extensions come back (A, B, A)."""
    pool = [UPSet(*raw) for raw in raws]
    exts = [pool[k % len(pool)] for k in picks]
    naive = [(n, e) for n, e in enumerate(exts) if n == 0 or e != exts[n - 1]]
    assert seq_of(EVENS, exts).blocks == tuple(naive)


def test_no_scan_tests_a_pair_of_equal_extensions(monkeypatch):
    """check_all walks the change points: no pair test gets one extension
    twice, and a run's pair tests do not grow with its stretches."""
    a, b = EVENS, NATURALS
    runs = [run(catalog_learner(lid), canonical_informant(parse(t)), 30)
            for lid in LEARNER_IDS for t in ("|0", "0|1", "|10")]
    runs += [seq_of(EVENS, [a] * n + [b] * n + [a] * n + [fin(0)] * n)
             for n in (2, 40)]
    calls = []
    pair_bad = restrictions._pair_bad

    def recording(variant, wa, wb, target):
        calls.append(wa is wb)
        return pair_bad(variant, wa, wb, target)

    counts = []
    with monkeypatch.context() as m:
        m.setattr(restrictions, "_pair_bad", recording)
        for seq in runs:
            check_all(seq)
            counts.append(len(calls))
    assert calls and not any(calls)
    short, long = (counts[-2] - counts[-3], counts[-1] - counts[-2])
    assert short == long > 0


def test_pair_bad_is_the_set_algebra():
    """Each pair variant's bit formula gives the very set the set algebra
    builds, for every ordered pair and target among the 16 sets with
    prefix and period of at most two bits."""
    sets = list(dict.fromkeys(UPSet(p, q) for p, q in all_descriptions(2, 2)))
    assert len(sets) == 16
    for variant in PAIR_VARIANTS:
        for wa in sets:
            for wb in sets:
                for target in sets:
                    assert restrictions._pair_bad(variant, wa, wb, target) \
                        is raw_pair_bad(variant, wa, wb, target), \
                        (variant, wa, wb, target)


def test_checks_report_only_sites_their_site_function_confirms(monkeypatch):
    """Every check tests its candidates with `_SITES[rid]`, the function
    `evaluate_site` applies: refusing every site leaves nothing to report.

    The runs are catalog runs and, since no catalog run breaks the weakly
    monotone variants, two hand-built ones; each id is broken by some.
    """
    runs = [run(catalog_learner(lid), canonical_informant(parse(t)), 20)
            for lid in LEARNER_IDS for t in ("|0", "0|1", "|10")]
    runs += [seq_of(EVENS, [fin(0, 1), fin(0)]),
             seq_of(EVENS, [fin(0), fin(0, 2)])]
    for rid in RESTRICTION_IDS:
        broken = [seq for seq in runs if not check(rid, seq).satisfied]
        assert broken, rid
        with monkeypatch.context() as m:
            m.setitem(restrictions._SITES, rid, lambda seq, indices: EMPTY)
            assert all(check(rid, seq).satisfied for seq in broken), rid


@st.composite
def indexed_runs(draw):
    """A run of drawn extensions over a drawn informant, and a value.

    The informant's head may show a value far past the horizon. The pool
    holds random sets, the target, its complement and the target with
    the far value flipped. The run is made by `run` or built by hand, so
    its index comes from the run or from the informant.
    """
    tp, tq = draw(raw_sets)
    target = UPSet(tp, tq)
    horizon = draw(st.integers(0, 24))
    far = horizon + draw(st.integers(100, 400))
    head = draw(st.lists(st.integers(0, 12) | st.just(far), max_size=4))
    inf = Informant(target, tuple(head), draw(st.sampled_from(ORDERS)),
                    draw(st.integers(0, 9)))
    flip = from_elements({far})
    pool = [target, complement(target), union(target, flip),
            difference(target, flip), EMPTY, NATURALS]
    pool += [UPSet(*d) for d in draw(st.lists(raw_sets, max_size=4))]
    hyps = tuple(hypothesis_for(pool[k]) for k in draw(st.lists(
        st.integers(0, len(pool) - 1), min_size=horizon + 1,
        max_size=horizon + 1)))
    if draw(st.booleans()):
        seq = run(Learner("drawn", "G", lambda d, ctx: hyps[len(d)]), inf,
                  horizon)
        assert len(vars(inf)["_buffer"][0]) == horizon  # (examples, index)
    else:
        seq = HypSequence(hyps, "handmade", inf)
    return seq, pool, far


@settings(max_examples=300, deadline=None)
@given(indexed_runs())
def test_first_conflicts_match_the_informant_walk(drawn):
    """The binary search over the index finds the walk's first conflict,
    and cons accepts exactly the oracle's sites."""
    seq, pool, far = drawn
    inf, horizon = seq.informant, len(seq) - 1
    for u in pool:
        assert restrictions._first_conflict(u, seq.index, horizon) == \
            raw_first_conflict(_raw(u), inf, horizon), u
    raw = _raw_run(seq)
    v = check("cons", seq)
    assert (v.satisfied, v.indices, v.element) == \
        raw_first_single_site("cons", *raw)
    xs = {ex.value for ex in raw[3]} | set(range(13)) | {far, far + 1}
    for n in range(len(seq)):
        for x in xs:
            assert evaluate_site("cons", seq, (n,), x) == raw_site(
                "cons", *raw, (n,), x), (n, x)


@pytest.mark.parametrize("lid", ("fin_pos", "cofinite", "segment",
                                 "stream_mon", "even_dualmon"))
def test_check_all_reads_the_informant_only_for_a_hand_built_run(
        monkeypatch, lid):
    calls = []
    example_at = Informant.example_at

    def counted(self, i):
        calls.append(i)
        return example_at(self, i)

    horizon = 40
    inf = Informant(parse("10|1"), (29, 3, 3), "shuffled", 2)
    seq = run(catalog_learner(lid), inf, horizon)
    monkeypatch.setattr(Informant, "example_at", counted)
    made = check_all(seq)
    assert calls == []
    by_hand = check_all(HypSequence(seq.items, "handmade", inf))
    assert by_hand == made
    assert len(calls) <= horizon
