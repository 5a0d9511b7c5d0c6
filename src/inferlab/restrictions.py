"""Checkers for behavioral restrictions on hypothesis streams.

Every checker inspects one finite run (a hypothesis per prefix of one
informant) and returns a verdict. Violated verdicts carry a site: the
indices and, where meaningful, the element that witness the violation, so
a verdict can be re-established later against the same run.

A pair restriction is violated by a pair s < t of indices; its site is
the first bad pair in (t, then s) order, the order a full scan with the
later index outside would meet it. A longer run of the same learner then
extends the scan instead of reordering it, so the site is stable under
horizon growth. The scans below only choose candidate sites, in that
order; each candidate is tested by the restriction's site function, as
`evaluate_site` tests a stored one. A scan passes over a pair only when
the pair cannot be the first bad one, so the first candidate with a
witness is the full scan's site, found after far fewer tests:

- Only change points t, where the extension differs from the one at t-1,
  are visited, and at each only the earliest index of each distinct
  earlier extension is offered. A pair of equal extensions is never bad,
  and a pair test depends only on the two extensions (and on t for the
  weakly monotone gate, which only tightens as t grows), so a bad pair
  (s, t) at a repeated extension makes (s, t-1) bad first, and among
  equal earlier extensions the earliest index comes first.
- mon, mon_d, mon_b, smon, smon_d, smon_b: "the pair is fine" is
  reflexive and transitive, so while every step (t-1, t) is fine so is
  every pair up to t. Only steps are tested, with `_pair_bad`, which is
  the whole condition of these six, until the first bad one; at that t
  the earlier extensions are offered, and one of them is bad.
- wmon, wmon_d, wmon_b: an earlier extension counts at t only while it is
  consistent with the data shown before t. Once it is not, it is not at
  any later t either, so it leaves the live set for good. The candidates
  are quadratic in the number of live distinct extensions at worst.
- caut, caut_fin, caut_inf: a change point is skipped outright when its
  extension fails the finiteness condition or when no earlier extension
  strictly contains it, since then no pair ending there is bad. The
  latter is asked only of the maximal earlier extensions (those no other
  earlier one strictly contains), which is one test per change point
  while the extensions form a chain and quadratic in the distinct
  extensions at worst. (The union of the earlier extensions would answer
  the same question in one test, but its period is the lcm of all
  periods seen, which grows without bound.)

Whether an extension agrees with the data shown before t (cons, and the
weakly monotone gate) is answered from the evidence index that the
informant's buffer keeps (`HypSequence.index`), the positive and the
negative values of every prefix as int masks, so a check reads no
example a run has read. The values an extension contradicts among the
first t examples are `evidence.conflicts` of the masks P_t and N_t,
(P_t & ~e) | (N_t & e) for e the extension's mask. A value keeps its
label throughout a run, so the first t examples conflict iff they show
one of the values the whole run contradicts. That only grows with t, so
the first conflict is a binary search over the prefixes, O(log horizon)
mask tests, cached by the index and the run's length.

Every restriction is declared once, in `_DETAIL`, which maps its id, in
report order, to the wording of its violation; `RESTRICTION_IDS` and the
two families are read off it. Its condition is one site function in
`_SITES`, which gives the witnesses of a violation at the given indices:
`_pair_site` for the twelve pair restrictions (`_pair_bad`, behind the
weakly monotone gate), and one function each for cons, caut_tar, bc and
ex. `check` hands its scan's candidates to `verdict_at`, which asks the
site function of each and words a verdict from `_DETAIL` that names the
first witness; the games hand it the one site they built, and
`evaluate_site` calls the same function at a stored site.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, partial

from .evidence import EvidenceIndex, conflicts
from .interaction import HypSequence
from .upset import (
    EMPTY,
    NATURALS,
    Relation,
    UPSet,
    difference,
    intersection,
    mask_elements,
    min_element,
    relate,
    union,
)

# Each restriction, in report order, and the wording of its violation at
# the site (s, t), or (t,), with witness x, whose label in the target is sign.
_DETAIL = {
    "cons": "hypothesis at {t} contradicts the datum {x}:{sign}",
    "mon": "positive {x} covered at {s} but dropped by {t}",
    "mon_d": "negative {x} excluded at {s} but covered by {t}",
    "mon_b": "{x} moves against the target between {s} and {t}",
    "smon": "{x} enumerated at {s} but missing at {t}",
    "smon_d": "{x} new at {t} though extensions may only shrink",
    "smon_b": "extension changes at {t} on element {x}",
    "wmon": "still consistent at {t}, yet {x} was dropped",
    "wmon_d": "still consistent at {t}, yet {x} was added",
    "wmon_b": "still consistent at {t}, yet the extension moved on {x}",
    "caut": "descent from {s} to {t} (loses {x})",
    "caut_tar": "extension at {t} strictly covers the target ({x} extra)",
    "caut_fin": "descent onto a finite set from {s} to {t} (loses {x})",
    "caut_inf": "descent onto an infinite set from {s} to {t} (loses {x})",
    "bc": "extension still wrong at the horizon ({x} misclassified)",
    "ex": "settled label names the wrong set ({x} misclassified)",
}

RESTRICTION_IDS = tuple(_DETAIL)
_MONOTONE = tuple(rid for rid in RESTRICTION_IDS if "mon" in rid)
_CAUTIOUS = tuple(rid for rid in RESTRICTION_IDS if rid.startswith("caut"))


@dataclass(frozen=True)
class Verdict:
    restriction: str
    satisfied: bool
    indices: tuple[int, ...] = ()
    element: int | None = None
    detail: str = ""


@lru_cache(maxsize=1024)
def _first_conflict(ext: UPSet, index: EvidenceIndex, h: int) -> int | None:
    """Least index of the first h examples whose datum contradicts `ext`.

    A prefix that conflicts with the extension stays in conflict as it
    grows, so a binary search over the prefixes' masks finds the first
    one that shows a contradicted value; its last example is the first
    conflict. Bounded: a long sweep keeps its latest indices alive.
    """
    ps, ns = index.positives, index.negatives
    wrong = conflicts((ps[h], ns[h]), ext)
    if not wrong:
        return None
    return bisect_left(range(h + 1), True,
                       key=lambda n: bool((ps[n] | ns[n]) & wrong)) - 1


def _consistent_at(ext: UPSet, index: EvidenceIndex, h: int, t: int) -> bool:
    """Does `ext` agree with the first t examples of a run of length h?"""
    fc = _first_conflict(ext, index, h)
    return fc is None or fc >= t


def _lands(variant: str, wb: UPSet) -> bool:
    """Does the later extension meet the variant's finiteness condition?"""
    return variant == "caut" or wb.is_finite() == (variant == "caut_fin")


def _pair_bad(variant: str, wa: UPSet, wb: UPSet, target: UPSet) -> UPSet:
    """Elements witnessing that the (earlier, later) pair breaks the variant.

    A pair breaks caution when the later extension is a proper subset of
    the earlier one (and, for caut_fin/caut_inf, is finite/infinite); the
    witnesses are the elements the descent loses. Weakly monotone gating
    is `_pair_site`'s business; this is the ungated pair condition.
    """
    if variant in _CAUTIOUS:
        if (not _lands(variant, wb)
                or relate(wb, wa) is not Relation.PROPER_SUBSET):
            return EMPTY
        return difference(wa, wb)
    if variant in ("mon", "mon_b"):
        bad = difference(intersection(wa, target), wb)
        if variant == "mon":
            return bad
        return union(bad, difference(wb, union(wa, target)))
    if variant == "mon_d":
        return difference(wb, union(wa, target))
    if variant in ("smon", "wmon"):
        return difference(wa, wb)
    if variant in ("smon_d", "wmon_d"):
        return difference(wb, wa)
    return union(difference(wa, wb), difference(wb, wa))  # smon_b, wmon_b


def _earliest(exts: list[UPSet], t: int) -> list[tuple[int, int]]:
    """The sites (s, t), s the earliest index of each distinct extension
    before t but exts[t]'s, in index order: the first bad one is the least
    s."""
    firsts: dict[UPSet, int] = {}
    for s in range(t):
        firsts.setdefault(exts[s], s)
    firsts.pop(exts[t], None)
    return [(s, t) for s in firsts.values()]


# The witnesses of a site that names no element: None alone.
_NO_ELEMENT = (None,)


def _cons_bad(seq: HypSequence, indices):
    """Values of the data shown before n that extension n contradicts.

    The site is (n,). The first value is the one shown first, the datum at
    the first conflict. It is new there (had it been shown before, the
    conflict would have come then), so it is the one bit its prefix adds.
    The others are the conflicts of the first n examples, in increasing
    order, read only when asked for.
    """
    if len(indices) != 1:
        return
    (n,) = indices
    w, index = seq[n].extension, seq.index
    fc = _first_conflict(w, index, len(seq) - 1)
    if fc is None or fc >= n:
        return
    ps, ns = index.positives, index.negatives
    yield ((ps[fc + 1] ^ ps[fc]) | (ns[fc + 1] ^ ns[fc])).bit_length() - 1
    yield from mask_elements(conflicts((ps[n], ns[n]), w))


def _caut_tar_bad(seq: HypSequence, indices) -> UPSet:
    """Elements by which extension t strictly covers the target; site (t,)."""
    if len(indices) != 1:
        return EMPTY
    w, target = seq[indices[0]].extension, seq.informant.target
    if relate(w, target) is not Relation.PROPER_SUPERSET:
        return EMPTY
    return difference(w, target)


def _misclassified(w: UPSet, target: UPSet) -> UPSet:
    if w == target:
        return EMPTY
    return union(difference(w, target), difference(target, w))


def _bc_bad(seq: HypSequence, indices) -> UPSet:
    """Elements the extension at the horizon misclassifies; site (horizon,)."""
    if indices != (len(seq) - 1,):
        return EMPTY
    return _misclassified(seq.final.extension, seq.informant.target)


def _ex_bad(seq: HypSequence, indices):
    """Witnesses that ex fails at the indices, for a horizon h.

    A run of length one, site (0,), and a label that changes at the
    horizon, site (h-1, h), cannot show settling; they name no element.
    Otherwise the final label must hold from some index before h on, and a
    site (n,) at or after that index is witnessed by the elements
    extension n misclassifies.
    """
    h = len(seq) - 1
    if h == 0:
        return _NO_ELEMENT if indices == (0,) else EMPTY
    if indices == (h - 1, h):
        return _NO_ELEMENT if seq[h - 1].label != seq[h].label else EMPTY
    if len(indices) != 1:
        return EMPTY
    (n,) = indices
    # the cheap test first: check_ex asks every index after the settling one
    bad = _misclassified(seq[n].extension, seq.informant.target)
    if bad == EMPTY or all(x.label == seq.final.label
                           for x in seq.items[min(n, h - 1):]):
        return bad
    return EMPTY


def _pair_site(variant: str, seq: HypSequence, indices) -> UPSet:
    """Elements witnessing that the pair (s, t) breaks a pair restriction."""
    if len(indices) != 2 or indices[0] >= indices[1]:
        return EMPTY
    s, t = indices
    wa = seq[s].extension
    if variant.startswith("wmon") and not _consistent_at(
            wa, seq.index, len(seq) - 1, t):
        return EMPTY
    return _pair_bad(variant, wa, seq[t].extension, seq.informant.target)


_SITES = {**{rid: partial(_pair_site, rid) for rid in RESTRICTION_IDS},
          "cons": _cons_bad, "caut_tar": _caut_tar_bad, "bc": _bc_bad,
          "ex": _ex_bad}


def _first_site(restriction: str, seq: HypSequence, sites):
    """First candidate site with a witness, as (indices, element): the least
    witness of a set, or the first one yielded, in the order shown."""
    for indices in sites:
        bad = _SITES[restriction](seq, indices)
        if isinstance(bad, UPSet):
            if bad != EMPTY:
                return indices, min_element(bad)
        else:
            for x in bad:
                return indices, x
    return None


def verdict_at(rid: str, seq: HypSequence, sites,
               satisfied: str = "") -> Verdict:
    """The verdict at the first of the candidate `sites` with a witness.

    A violated verdict names that site's first witness and is worded from
    `_DETAIL`; only an ex site names no element: a label still changing
    at the horizon, or a run too short to show settling. With no such
    site the verdict is satisfied, its detail `satisfied`.
    """
    site = _first_site(rid, seq, sites)
    if site is None:
        return Verdict(rid, True, detail=satisfied)
    indices, element = site
    if element is None:
        detail = ("label still changing at the horizon" if len(seq) > 1
                  else "horizon too short to observe settling")
    else:
        sign = "+" if seq.informant.target.member(element) else "-"
        detail = _DETAIL[rid].format(
            s=indices[0], t=indices[-1], x=element, sign=sign)
    return Verdict(rid, False, indices, element, detail)


def check_cons(seq: HypSequence) -> Verdict:
    return verdict_at("cons", seq, ((n,) for n in range(len(seq))))


def _chain_sites(variant: str, seq: HypSequence):
    """Candidate sites of an ungated pair variant, in scan order.

    Fine pairs compose, so the first bad t is the first change point whose
    step (t-1, t) is bad; only there are the earlier extensions offered.
    """
    target = seq.informant.target
    exts = [h.extension for h in seq.items]
    for t in range(1, len(exts)):
        wa, wb = exts[t - 1], exts[t]
        if wa != wb and _pair_bad(variant, wa, wb, target) != EMPTY:
            yield from _earliest(exts, t)


def _gated_sites(variant: str, seq: HypSequence):
    """Candidate sites of a weakly monotone variant, in scan order.

    The gate only tightens as t grows, so an extension leaves the live set
    for good at the first change point where it fails the gate, and one
    that fails it right after its first index never enters (nor re-enters
    when it recurs).
    """
    index, horizon = seq.index, len(seq) - 1
    exts = [h.extension for h in seq.items]
    live: dict[UPSet, int] = {}  # extension -> earliest index, index order
    for t, wb in enumerate(exts):
        if t and wb == exts[t - 1]:
            continue
        for wa, s in list(live.items()):
            if not _consistent_at(wa, index, horizon, t):
                del live[wa]
            elif wa != wb:
                yield s, t
        if (t < horizon and wb not in live
                and _consistent_at(wb, index, horizon, t + 1)):
            live[wb] = t


def check_monotone(variant: str, seq: HypSequence) -> Verdict:
    if variant not in _MONOTONE:
        raise ValueError(f"not a monotonicity variant: {variant!r}")
    scan = _gated_sites if variant.startswith("wmon") else _chain_sites
    return verdict_at(variant, seq, scan(variant, seq))


def _caut_sites(variant: str, seq: HypSequence):
    """Candidate sites of a pair caution variant, in scan order.

    A change point is offered only when its extension meets the
    finiteness condition and some earlier extension strictly contains it.
    `tops` holds the earlier extensions that no other earlier one strictly
    contains; every earlier extension lies inside one of them, so asking
    them is enough.
    """
    exts = [h.extension for h in seq.items]
    tops: list[UPSet] = []
    for t, wb in enumerate(exts):
        if t and wb == exts[t - 1]:
            continue
        rels = [relate(wb, m) for m in tops]
        if Relation.PROPER_SUBSET in rels and _lands(variant, wb):
            yield from _earliest(exts, t)
        if Relation.PROPER_SUBSET not in rels and Relation.EQUAL not in rels:
            tops = [m for m, r in zip(tops, rels)
                    if r is not Relation.PROPER_SUPERSET] + [wb]


def check_cautious(variant: str, seq: HypSequence) -> Verdict:
    if variant not in _CAUTIOUS:
        raise ValueError(f"not a caution variant: {variant!r}")
    sites = (((t,) for t in range(len(seq))) if variant == "caut_tar"
             else _caut_sites(variant, seq))
    return verdict_at(variant, seq, sites)


def check_bc(seq: HypSequence) -> Verdict:
    h = len(seq) - 1
    target = seq.informant.target
    start = next((n + 1 for n in range(h, -1, -1)
                  if seq[n].extension != target), 0)
    return verdict_at("bc", seq, [(h,)], f"correct from {start}")


def check_ex(seq: HypSequence) -> Verdict:
    """Settled label naming the target, witnessed by a tail of length >= 2.

    A lone final label is not yet evidence of settling, so a run must hold
    its last label for at least two indices. Semantic convergence has no
    such grace: see check_bc, which accepts a single correct final index.
    """
    h = len(seq) - 1
    settled = next((t for t in range(h, 0, -1)
                    if seq[t].label != seq[t - 1].label), 0)
    sites = [(h - 1, h) if h else (0,)] + [(n,) for n in range(settled, h + 1)]
    return verdict_at("ex", seq, sites, f"settled at {settled}")


def check(restriction: str, seq: HypSequence) -> Verdict:
    if restriction == "cons":
        return check_cons(seq)
    if restriction in _MONOTONE:
        return check_monotone(restriction, seq)
    if restriction in _CAUTIOUS:
        return check_cautious(restriction, seq)
    if restriction == "bc":
        return check_bc(seq)
    if restriction == "ex":
        return check_ex(seq)
    raise ValueError(f"unknown restriction {restriction!r}")


def check_all(seq: HypSequence) -> dict[str, Verdict]:
    return {rid: check(rid, seq) for rid in RESTRICTION_IDS}


def evaluate_site(
    restriction: str, seq: HypSequence, indices: tuple[int, ...], element
) -> bool:
    """Does the claimed violation site really violate the restriction?

    Used to re-establish stored or transmitted verdicts against a freshly
    recomputed run; any mismatch in indices or witness element fails.
    """
    if restriction not in _SITES:
        raise ValueError(f"unknown restriction {restriction!r}")
    indices = tuple(indices)
    if not all(0 <= i < len(seq) for i in indices):
        return False
    bad = _SITES[restriction](seq, indices)
    if element is None:
        return bad is _NO_ELEMENT
    # cons yields its witnesses as ints, and True == 1: ask NATURALS first
    return element in NATURALS and element in bad


def revalidate(verdict: Verdict, seq: HypSequence) -> bool:
    """Re-establish a verdict against a run; tampering comes back False."""
    if verdict.satisfied:
        return check(verdict.restriction, seq).satisfied
    return evaluate_site(verdict.restriction, seq, verdict.indices, verdict.element)


def probe_semantic(a: HypSequence, b: HypSequence) -> bool:
    """Pointwise same denotations; labels free to differ."""
    if len(a) != len(b):
        raise ValueError("runs of different length are not comparable")
    return all(
        x.extension == y.extension for x, y in zip(a.items, b.items)
    )
