"""Acceptance gate: one test per advertised guarantee, one line per verdict.

Each test prints `ACCEPTANCE <name>: PASS|FAIL` through the capture so the
lines are visible in plain pytest output, then asserts. Failure messages
carry the first few offending instances for diagnosis.
"""

import random

import pytest

from inferlab.adversary import (
    DEFAULT_BOUNDS,
    Bounds,
    run_adversary,
    verify_witness,
)
from inferlab.catalog import (
    FAMILY_IDS,
    LEARNER_IDS,
    constant_learner,
    family_instances,
    learner,
)
from inferlab.combinators import (
    cons_wmon_fourcase,
    cons_wmon_wrapper,
    dual_wmon_poison,
    patch,
    patched_learner,
    prefix_length,
    to_set_driven,
)
from inferlab.evidence import (
    Informant,
    canonical_informant,
    content,
    prefix,
)
from inferlab.hypothesis import consistent, hypothesis_for
from inferlab.interaction import (
    EvalContext,
    as_full_information,
    run,
    with_fresh_labels,
)
from inferlab.restrictions import RESTRICTION_IDS, check, check_all
from inferlab.upset import UPSet, combine, complement, parse, relate

from oracles import raw_bound, raw_elements, raw_relation

# where each catalog learner is at home; used when sampling on-family runs
_HOME = {
    "fin_pos": "finite",
    "cofinite": "cofinite",
    "maxpos": "finite",
    "segment": "segments_or_N",
    "n_or_fin": "N_or_finite",
    "stream_mon": "streamXYZ",
    "even_dualmon": "evenXYZ",
    "fresh_label": "finite",
    "constant_empty": "finite",
}


@pytest.fixture
def announce(capsys):
    def _announce(name: str, failures: list):
        verdict = "FAIL" if failures else "PASS"
        with capsys.disabled():
            print(f"ACCEPTANCE {name}: {verdict}")
        assert not failures, f"{name}: {len(failures)} failures; " \
            f"first: {failures[:3]}"
    return _announce


def _random_description(rng) -> tuple[str, str]:
    bits = lambda n: "".join(rng.choice("01") for _ in range(n))
    return bits(rng.randrange(0, 7)), bits(rng.randrange(1, 5))


def _informants(target, seeds):
    return [canonical_informant(target)] + \
        [Informant(target, (), "shuffled", s) for s in seeds]


def test_upset_oracle_equivalence(announce):
    rng = random.Random(101)
    failures = []
    for i in range(2000):
        pa, qa = _random_description(rng)
        pb, qb = _random_description(rng)
        a, b = UPSet(pa, qa), UPSet(pb, qb)
        bound = raw_bound(pa, qa, pb, qb)
        ra, rb = raw_elements(pa, qa, bound), raw_elements(pb, qb, bound)
        window = range(bound + 1)
        if relate(a, b).value != raw_relation(pa, qa, pb, qb):
            failures.append((i, "relate", pa, qa, pb, qb))
        for op, want in (("union", ra | rb), ("intersection", ra & rb),
                         ("difference", ra - rb)):
            got = {x for x in window if combine(op, a, b).member(x)}
            if got != want:
                failures.append((i, op, pa, qa, pb, qb))
        comp = {x for x in window if complement(a).member(x)}
        if comp != set(window) - ra:
            failures.append((i, "complement", pa, qa))
    announce("upset-oracle-equivalence", failures)


def test_patch_lemmas(announce):
    rng = random.Random(202)
    ctx = EvalContext()
    failures = []
    for i in range(1000):
        u = UPSet(*_random_description(rng))
        informant = canonical_informant(u) if rng.random() < 0.5 \
            else Informant(u, (), "shuffled", rng.randrange(100))
        d = prefix(informant, rng.randrange(0, 25))
        e = hypothesis_for(u)
        patched = patch(e, d, ctx)
        if not consistent(patched, d):
            failures.append((i, "consistency", str(u)))
        if patched.extension != e.extension:
            failures.append((i, "denotation", str(u)))
    announce("patch-lemmas", failures)


_SIX_VARIANTS = (
    ("mon", "cofinite", "cofinite"),
    ("mon_d", "even_dualmon", "evenXYZ"),
    ("mon_b", "fin_pos", "finite"),
    ("smon", "fin_pos", "finite"),
    ("smon_d", "segment", "segments_or_N"),
    ("smon_b", None, "finite"),  # the constant learner for each instance
)


def test_patch_preserves_monotone_variants(announce):
    failures = []
    for variant, lid, family in _SIX_VARIANTS:
        for target in family_instances(family, 4):
            base = constant_learner(target) if lid is None else learner(lid)
            for lrn in (base, patched_learner(base)):
                for informant in _informants(target, range(1, 20)):
                    seq = run(lrn, informant, 50, EvalContext())
                    v = check(variant, seq)
                    if not v.satisfied:
                        failures.append((variant, lrn.name, str(target),
                                         repr(informant), v.detail))
    announce("patch-preserves-monotone-variants", failures)


def test_cons_wmon_wrapper(announce):
    cases = (
        (cons_wmon_wrapper(learner("cofinite")),
         family_instances("cofinite", 8)),
        (cons_wmon_wrapper(learner("stream_mon")),
         family_instances("streamXYZ", 10)),
    )
    failures = []
    for lrn, targets in cases:
        for target in targets:
            for informant in _informants(target, (1, 2, 3, 4)):
                seq = run(lrn, informant, 40, EvalContext())
                for rid in ("cons", "wmon", "bc"):
                    v = check(rid, seq)
                    if not v.satisfied:
                        failures.append((lrn.name, str(target), rid,
                                         repr(informant), v.detail))
    announce("cons-wmon-wrapper", failures)


def test_dual_wmon_poisoning(announce):
    rng = random.Random(505)
    lrn = dual_wmon_poison(to_set_driven(learner("segment")))
    failures = []
    for target in family_instances("segments_or_N", 6):
        for informant in _informants(target, (1, 2, 3)):
            seq = run(lrn, informant, 40, EvalContext())
            for rid in ("cons", "wmon_d", "bc"):
                v = check(rid, seq)
                if not v.satisfied:
                    failures.append(("family", str(target), rid, v.detail))
    off_family = [parse("1011|001")] + \
        [UPSet(*_random_description(rng)) for _ in range(8)]
    for target in off_family:
        for informant in _informants(target, (1, 2, 3)):
            seq = run(lrn, informant, 40, EvalContext())
            v = check("cons", seq)
            if not v.satisfied:
                failures.append(("global", str(target), "cons", v.detail))
    announce("dual-wmon-poisoning", failures)


def test_canonical_reduction_identity(announce):
    rng = random.Random(606)
    failures = []
    for i in range(500):
        lid = rng.choice(LEARNER_IDS)
        target = rng.choice(family_instances(rng.choice(FAMILY_IDS), 6))
        informant = canonical_informant(target) if rng.random() < 0.3 \
            else Informant(target, (), "shuffled", rng.randrange(50))
        d = content(prefix(informant, rng.randrange(0, 31)))
        got = to_set_driven(learner(lid)).fn(d, EvalContext())
        replay = prefix(canonical_informant(target), prefix_length(d))
        want = as_full_information(learner(lid)).fn(replay, EvalContext())
        if (got.label, got.extension) != (want.label, want.extension):
            failures.append((i, lid, str(target), len(d)))
    announce("canonical-reduction-identity", failures)


_WITNESS_CASES = (
    ("caut_tar", "cofinite"),
    ("caut_inf", "cofinite"),
    ("caut_fin", "n_or_fin"),
    ("dual_vs_mon", "even_dualmon"),
    ("mon_vs_dual", "stream_mon"),
    ("dual_vs_smon", "segment"),
    ("smon_vs_dual", "fin_pos"),
)


def test_separation_witnesses(announce):
    failures = []
    for adversary_id, opponent_id in _WITNESS_CASES:
        w = run_adversary(adversary_id, learner(opponent_id), DEFAULT_BOUNDS)
        if w.kind != "restriction-violation" or not verify_witness(w):
            failures.append((adversary_id, opponent_id, w.kind, w.note))
            continue
        params = dict(w.params)
        if adversary_id == "caut_tar" and params["n0"] != 0:
            failures.append((adversary_id, "expected the n0=0 instance"))
        if adversary_id == "dual_vs_mon" \
                and w.verdict.element != 2 * params["m"]:
            failures.append((adversary_id, "element is not 2m", w.verdict))
        if adversary_id == "mon_vs_dual" \
                and w.verdict.element != 3 * params["m"] + 4:
            failures.append((adversary_id, "element is not the b past the "
                             "cut", w.verdict))
    empty = run_adversary("caut_tar", learner("fin_pos"), DEFAULT_BOUNDS)
    if empty.kind != "exhausted" or not verify_witness(empty):
        failures.append(("caut_tar vs fin_pos", "false witness", empty.kind))
    announce("separation-witnesses", failures)


def test_mindchange_driver(announce):
    failures = []
    for opponent_id in ("fresh_label", "maxpos"):
        w = run_adversary("mindchange", learner(opponent_id),
                          Bounds(t_bound=50, rounds=10))
        if w.kind != "mindchange-transcript" or len(w.transcript) < 10 \
                or not verify_witness(w):
            failures.append((opponent_id, w.kind, len(w.transcript)))
    split = run_adversary("mindchange", learner("constant_empty"),
                          Bounds(t_bound=50, rounds=10))
    if split.kind != "split-pair" or dict(split.params)["round"] != 0 \
            or not verify_witness(split):
        failures.append(("constant_empty", split.kind, split.params))
    announce("mindchange-driver", failures)


def _lattice_corpus():
    seqs = []
    for lid, family in _HOME.items():
        base = learner(lid)
        variants = [base, with_fresh_labels(base)]
        if base.kind in ("Sd", "G"):
            variants.append(patched_learner(base))
        for target in family_instances(family, 3):
            for informant in _informants(target, (5,)):
                for lrn in variants:
                    seqs.append(run(lrn, informant, 20, EvalContext()))
    seqs.append(run(cons_wmon_wrapper(learner("cofinite")),
                    canonical_informant(parse("10|1")), 20, EvalContext()))
    seqs.append(run(dual_wmon_poison(to_set_driven(learner("segment"))),
                    canonical_informant(parse("111|0")), 20, EvalContext()))
    seqs.append(run(cons_wmon_fourcase(learner("stream_mon")),
                    canonical_informant(parse("|100")), 20, EvalContext()))
    return seqs


_IMPLICATIONS = (
    ("smon", ("mon", "wmon", "caut")),
    ("smon_d", ("mon_d", "wmon_d")),
    ("mon_b", ("mon", "mon_d")),
    ("smon_b", ("smon", "smon_d")),
    ("wmon_b", ("wmon", "wmon_d")),
    ("ex", ("bc",)),
)


def test_restriction_lattice(announce):
    failures = []
    for seq in _lattice_corpus():
        verdicts = check_all(seq)
        v = {rid: verdicts[rid].satisfied for rid in RESTRICTION_IDS}
        where = (seq.learner_name, repr(seq.informant))
        for premise, conclusions in _IMPLICATIONS:
            for conclusion in conclusions:
                if v[premise] and not v[conclusion]:
                    failures.append((*where, f"{premise} without {conclusion}"))
        if v["caut"] != (v["caut_fin"] and v["caut_inf"]):
            failures.append((*where, "caut vs caut_fin+caut_inf"))
        if v["bc"] and v["smon"] and not v["mon_b"]:
            failures.append((*where, "bc+smon without mon_b"))
        if v["bc"] and v["smon_d"] and not v["mon_b"]:
            failures.append((*where, "bc+smon_d without mon_b"))
        if v["bc"] and v["caut"] and not v["caut_tar"]:
            failures.append((*where, "bc+caut without caut_tar"))
    announce("restriction-lattice", failures)


def test_bc_ex_observability(announce):
    from inferlab.restrictions import probe_semantic
    rng = random.Random(1010)
    failures = []
    splits = 0
    for i in range(200):
        lid = rng.choice(LEARNER_IDS)
        target = rng.choice(family_instances(_HOME[lid], 4))
        informant = canonical_informant(target) if rng.random() < 0.5 \
            else Informant(target, (), "shuffled", rng.randrange(40))
        a = run(learner(lid), informant, 12, EvalContext())
        b = run(with_fresh_labels(learner(lid)), informant, 12, EvalContext())
        if not probe_semantic(a, b):
            failures.append((i, lid, "denotations moved under relabelling"))
            continue
        for rid in RESTRICTION_IDS:
            va, vb = check(rid, a), check(rid, b)
            if rid == "ex":
                if vb.satisfied:
                    failures.append((i, lid, "relabelled run settled"))
                if va.satisfied:
                    splits += 1
            elif va != vb:
                failures.append((i, lid, rid, "verdict moved"))
    if not splits:
        failures.append(("no ex-converging base run was sampled",))
    announce("bc-ex-observability", failures)
