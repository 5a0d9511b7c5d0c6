"""Independent brute-force oracles the tests freeze expected values against.

Everything here works on raw prefix/period bit strings or plain Python sets
and never calls into the package's algebra, so agreement is meaningful.
The exception is the three wrapper oracles at the end: they rebuild every
prefix of the evidence from scratch on the package's algebra, so agreeing
with them shows that the incremental wrappers answer as a full rebuild
does, not that the algebra is right. So do the two three-tier reference
learners after them, which read the positives value by value where the
catalog reads bit patterns of the positives mask, and list the members
of their finite conjectures one by one.
"""

from __future__ import annotations

import math
import random

from inferlab.catalog import EVEN_X, STREAM_X, _lang_stream_y
from inferlab.evidence import DataSequence, Example, content, neg, pos
from inferlab.hypothesis import Hypothesis, hypothesis_for, stage_enumerate
from inferlab.interaction import Learner, as_full_information
from inferlab.upset import (EMPTY, Relation, UPSet, complement, difference,
                            from_elements, intersection, relate, union)


def raw_member(prefix: str, period: str, x: int) -> bool:
    """Membership by the defining rule, no normalization involved."""
    if x < len(prefix):
        return prefix[x] == "1"
    return period[(x - len(prefix)) % len(period)] == "1"


def raw_presentation(target: tuple[str, str], head, order: str, seed: int,
                     n: int) -> list[tuple[int, int]]:
    """The first n (value, label) pairs an informant shows, from the order
    definitions alone and never through `example_at`.

    `target` is a raw (prefix, period) pair, and every label is its raw
    membership bit. The head is shown first as it is given, a bare natural
    with its label. Then the naturals follow in blocks of eight, 8b to
    8b + 7: in canonical order; in canonical order without the values the
    head showed (fresh); or each block shuffled by a `random.Random`
    seeded with seed * 1_000_003 + b (shuffled).
    """
    p, q = target
    label = lambda v: int(raw_member(p, q, v))
    shown = [tuple(x) if isinstance(x, tuple) else (x, label(x))
             for x in head]
    head_values = {v for v, _ in shown}
    block = 0
    while len(shown) < n:
        cells = list(range(8 * block, 8 * block + 8))
        if order == "shuffled":
            random.Random(seed * 1_000_003 + block).shuffle(cells)
        elif order == "fresh":
            cells = [v for v in cells if v not in head_values]
        shown += [(v, label(v)) for v in cells]
        block += 1
    return shown[:n]


def raw_masks(shown) -> tuple[int, int]:
    """The (positives, negatives) masks of the (value, label) pairs shown,
    bit v for value v, added up value by value."""
    pos_values = {v for v, b in shown if b}
    neg_values = {v for v, b in shown if not b}
    return sum(1 << v for v in pos_values), sum(1 << v for v in neg_values)


def raw_bound(pa: str, qa: str, pb: str = "", qb: str = "1") -> int:
    """Range on which two raw descriptions are compared exactly.

    One common cycle past the longer prefix decides everything; use two for
    slack as the acceptance criterion demands.
    """
    return max(len(pa), len(pb)) + 2 * math.lcm(len(qa), len(qb))


def raw_elements(prefix: str, period: str, bound: int) -> set[int]:
    return {x for x in range(bound + 1) if raw_member(prefix, period, x)}


def raw_relation(pa: str, qa: str, pb: str, qb: str) -> str:
    bound = raw_bound(pa, qa, pb, qb)
    a = raw_elements(pa, qa, bound)
    b = raw_elements(pb, qb, bound)
    if a == b:
        return "equal"
    if a < b:
        return "proper_subset"
    if a > b:
        return "proper_superset"
    return "incomparable"


def all_descriptions(max_prefix: int, max_period: int):
    """Every raw (prefix, period) pair within the size bounds."""
    def bitstrings(n):
        return ("".join(bits) for bits in _products("01", n))

    for qlen in range(1, max_period + 1):
        for q in bitstrings(qlen):
            for plen in range(max_prefix + 1):
                for p in bitstrings(plen):
                    yield p, q


def _products(alphabet, n):
    if n == 0:
        yield ()
        return
    for rest in _products(alphabet, n - 1):
        for ch in alphabet:
            yield (ch, *rest)


def _pair_witness(variant: str, a: bool, b: bool, t: bool) -> bool:
    """Does an element witness a bad (earlier, later) pair?

    a, b and t say whether it lies in the earlier extension, the later one
    and the target.
    """
    if variant == "mon":
        return a and t and not b
    if variant == "mon_d":
        return b and not a and not t
    if variant == "mon_b":
        return (a and t and not b) or (b and not a and not t)
    if variant in ("smon", "wmon", "caut", "caut_fin", "caut_inf"):
        return a and not b
    if variant in ("smon_d", "wmon_d"):
        return b and not a
    if variant in ("smon_b", "wmon_b"):
        return a != b
    raise ValueError(f"not a pair variant: {variant!r}")


def raw_pair_bad(variant: str, wa: UPSet, wb: UPSet, target: UPSet) -> UPSet:
    """The witnesses of a bad (earlier, later) pair, from the set algebra:
    `union`, `intersection`, `difference` and `relate`, one canonical set
    per step. A caution variant needs a descent, wb strictly inside wa,
    onto a set of its finiteness; the others are fixed formulas."""
    if wa is wb:
        return EMPTY
    if variant.startswith("caut"):
        if (relate(wb, wa) is not Relation.PROPER_SUBSET
                or variant != "caut"
                and wb.is_finite() != (variant == "caut_fin")):
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
    if variant in ("smon_b", "wmon_b"):
        return union(difference(wa, wb), difference(wb, wa))
    raise ValueError(f"not a pair variant: {variant!r}")


def raw_first_site(variant: str, exts, target, conflicts):
    """The first violation site of a pair restriction, by the full scan.

    `exts` holds one raw (prefix, period) extension per index, `target` is
    a raw (prefix, period) pair, and `conflicts[s]` is the least
    presentation index whose datum contradicts exts[s] (None if there is
    none); a weakly monotone pair (s, t) counts only if conflicts[s] is
    None or at least t.
    Every pair is visited, later index outer, earlier inner, and its
    witnesses are read element by element. Returns (satisfied, indices,
    element) as `check` reports them.
    """
    tp, tq = target
    for t in range(1, len(exts)):
        bp, bq = exts[t]
        for s in range(t):
            ap, aq = exts[s]
            if (variant.startswith("wmon") and conflicts[s] is not None
                    and conflicts[s] < t):
                continue
            bound = max(len(ap), len(bp), len(tp)) + math.lcm(
                len(aq), len(bq), len(tq))
            xs = range(bound)
            if variant.startswith("caut"):
                gained = any(raw_member(bp, bq, x)
                             and not raw_member(ap, aq, x) for x in xs)
                finite = "1" not in bq
                if gained or (variant == "caut_fin" and not finite) or (
                        variant == "caut_inf" and finite):
                    continue
            for x in xs:
                if _pair_witness(variant, raw_member(ap, aq, x),
                                 raw_member(bp, bq, x),
                                 raw_member(tp, tq, x)):
                    return False, (s, t), x
    return True, (), None


def raw_first_conflict(ext, informant, horizon: int) -> int | None:
    """Least index below `horizon` whose datum contradicts the raw
    (prefix, period) extension, by walking the informant one example at a
    time."""
    p, q = ext
    for i in range(horizon):
        ex = informant.example_at(i)
        if raw_member(p, q, ex.value) != bool(ex.label):
            return i
    return None


def raw_site(rid: str, exts, labels, target, data, indices, element) -> bool:
    """Is (indices, element) a violation site of the restriction?

    `exts` holds one raw (prefix, period) extension per index and `labels`
    one label, `target` is a raw (prefix, period) pair, and `data` holds
    the informant's first h examples, where h = len(exts) - 1 is the
    horizon. Each restriction is decided by its definition, element by
    element:

    - cons: (n, x) when a datum with value x shown before n contradicts
      extension n.
    - caut_tar: (t, x) when extension t strictly covers the target and x
      lies in the difference.
    - bc: (h, x) when x lies in the symmetric difference of extension h
      and the target.
    - ex: (h-1, h) with no element when the label changes at h, or (0,)
      with no element when h == 0. Otherwise (n, x), where the final label
      holds from some settled < h on, n >= settled, and extension n
      misclassifies x.
    - the pair variants: (s, t, x) when s < t and x witnesses the pair by
      `_pair_witness`; a weakly monotone pair counts only while extension
      s is consistent with the data shown before t, and a caution pair
      only when extension t is a proper subset of extension s that meets
      the variant's finiteness condition.
    """
    h = len(exts) - 1
    if not all(0 <= i <= h for i in indices):
        return False
    if rid == "ex" and (h == 0 or labels[h] != labels[h - 1]):
        return element is None and indices == ((h - 1, h) if h else (0,))
    if element is None:
        return False
    tp, tq = target
    if len(indices) == 1:
        (n,) = indices
        p, q = exts[n]
        wrong = raw_member(p, q, element) != raw_member(tp, tq, element)
        if rid == "cons":
            return any(ex.value == element
                       and raw_member(p, q, ex.value) != bool(ex.label)
                       for ex in data[:n])
        if rid == "caut_tar":
            xs = range(max(len(p), len(tp)) + math.lcm(len(q), len(tq)))
            return (all(raw_member(p, q, x) for x in xs
                        if raw_member(tp, tq, x))
                    and any(not raw_member(tp, tq, x) for x in xs
                            if raw_member(p, q, x))
                    and raw_member(p, q, element) and wrong)
        if rid == "bc":
            return n == h and wrong
        if rid == "ex":
            settled = [s for s in range(h) if len(set(labels[s:])) == 1]
            return wrong and any(s <= n for s in settled)
        return False
    if (rid in ("cons", "caut_tar", "bc", "ex") or len(indices) != 2
            or indices[0] >= indices[1]):
        return False
    s, t = indices
    (ap, aq), (bp, bq) = exts[s], exts[t]
    if rid.startswith("wmon") and any(
            raw_member(ap, aq, ex.value) != bool(ex.label) for ex in data[:t]):
        return False
    if rid.startswith("caut"):
        xs = range(max(len(ap), len(bp)) + math.lcm(len(aq), len(bq)))
        finite = "1" not in bq
        if (any(raw_member(bp, bq, x) and not raw_member(ap, aq, x)
                for x in xs)
                or (rid == "caut_fin" and not finite)
                or (rid == "caut_inf" and finite)):
            return False
    return _pair_witness(rid, raw_member(ap, aq, element),
                         raw_member(bp, bq, element),
                         raw_member(tp, tq, element))


def raw_first_single_site(rid: str, exts, labels, target, data):
    """The site `check` reports for cons, caut_tar, bc or ex, by brute force.

    Arguments as for `raw_site`. Indices are tried in increasing order,
    each first without an element, then with cons's data in the order
    shown or with every element up to a bound past which the extension
    and the target only repeat. Returns (satisfied, indices, element).
    """
    h = len(exts) - 1
    tp, tq = target
    for indices in [(h - 1, h)] + [(n,) for n in range(h + 1)]:
        if raw_site(rid, exts, labels, target, data, indices, None):
            return False, indices, None
        if len(indices) == 2:
            continue
        p, q = exts[indices[0]]
        xs = ([ex.value for ex in data[:indices[0]]] if rid == "cons"
              else range(max(len(p), len(tp)) + math.lcm(len(q), len(tq))))
        for x in xs:
            if raw_site(rid, exts, labels, target, data, indices, x):
                return False, indices, x
    return True, (), None


def raw_canonical(prefix: str, period: str) -> tuple[str, str]:
    """Canonical (prefix, period) by shrinking one step at a time.

    The period shrinks to its shortest repeating block; then, while the
    last prefix bit equals the last period bit, that bit is dropped and the
    period is rotated right by one.
    """
    n = len(period)
    q = next(period[:d] for d in range(1, n + 1)
             if n % d == 0 and period == period[:d] * (n // d))
    p = prefix
    while p and p[-1] == q[-1]:
        p, q = p[:-1], q[-1] + q[:-1]
    return p, q


def raw_content(shown) -> frozenset[tuple[int, int]]:
    """The content of the (value, label) pairs `shown`: the set of them as
    plain tuples, repeats and order forgotten. A value shown with both
    labels is refused."""
    out = frozenset((v, b) for v, b in shown)
    if len({v for v, _ in out}) < len(out):
        raise ValueError("a value shown with both labels")
    return out


def raw_consistent(e, d) -> bool:
    """Does every example of the evidence d agree with e, a `Hypothesis`
    or a `UPSet`? Asked of each example in turn."""
    ext = e.extension if isinstance(e, Hypothesis) else e
    return all(ext.member(ex.value) == bool(ex.label) for ex in d.items)


def raw_stage_union(e: Hypothesis, d: DataSequence) -> UPSet:
    """`combinators._stage_union` by testing each example of d in turn.

    A stage of e counts once every positive of d is visible in it and no
    negative of d is; the union of those stages is e's extension when d
    agrees with it, empty when a positive is missed, and otherwise the
    stage just before the earliest conflict is scheduled, if every
    positive is visible by then.
    """
    wrong = [ex for ex in d.items
             if e.extension.member(ex.value) != bool(ex.label)]
    if not wrong:
        return e.extension
    if any(ex.label for ex in wrong):
        return EMPTY
    t_bad = min(e.delay.of(ex.value) for ex in wrong)
    t_pos = max((e.delay.of(ex.value) for ex in d.items if ex.label),
                default=0)
    if t_bad == 0 or t_pos > t_bad - 1:
        return EMPTY
    return from_elements(stage_enumerate(e, t_bad - 1))


def raw_cons_wmon(learner: Learner) -> Learner:
    """`cons_wmon_wrapper` by rebuilding every prefix and every window."""
    h = as_full_information(learner)

    def fn(d: DataSequence, ctx):
        tag = ("cons_wmon", id(learner))
        for k in range(len(d) + 1):
            key = (*tag, d.items[:k])
            if key in ctx.memo:
                continue
            tau = DataSequence(d.items[:k])
            ext = union(
                from_elements(pos(tau)), raw_stage_union(h.fn(tau, ctx), tau)
            )
            for j in range(k):
                prev = ctx.memo[(*tag, d.items[:j])]
                ext = union(ext, raw_stage_union(prev, tau))
            ctx.memo[key] = Hypothesis(ctx.fresh_label(), ext)
        return ctx.memo[(*tag, d.items)]

    return Learner(f"{learner.name}[cons+wmon]", "G", fn)


def raw_dual_poison(learner: Learner) -> Learner:
    """`dual_wmon_poison` by asking the base again on every prefix."""
    if learner.kind != "Sd":
        raise ValueError("poisoning is defined for set-driven learners")

    def fn(d: DataSequence, ctx):
        key = ("dual_wmon", id(learner), d.items)
        if key in ctx.memo:
            return ctx.memo[key]
        p = pos(d)
        poisoned = False
        for k in range(len(d) + 1):
            tau = DataSequence(d.items[:k])
            if pos(tau) == p:
                guess = learner.fn(content(tau), ctx)
                if not all(guess.extension.member(x) for x in p):
                    poisoned = True
                    break
        if poisoned:
            ext = from_elements(p)
        else:
            base = learner.fn(content(d), ctx)
            if raw_consistent(base, d):
                ext = base.extension
            else:
                ext = complement(from_elements(neg(d)))
        out = Hypothesis(ctx.fresh_label(), ext)
        ctx.memo[key] = out
        return out

    return Learner(f"{learner.name}[dual-poison]", "G", fn)


def _shortest_same_content(items: tuple[Example, ...]) -> int:
    first: dict[Example, int] = {}
    for i, ex in enumerate(items):
        first.setdefault(ex, i)
    return 1 + max(first.values()) if first else 0


def raw_fourcase(learner: Learner) -> Learner:
    """`cons_wmon_fourcase` by rebuilding each shortest same-content prefix."""
    h = as_full_information(learner)

    def fn(d: DataSequence, ctx):
        tag = ("fourcase", id(learner))
        for k in range(len(d) + 1):
            key = (*tag, d.items[:k])
            if key in ctx.memo:
                continue
            m = _shortest_same_content(d.items[:k])
            red_key = (*tag, "reduced", d.items[:m])
            if red_key not in ctx.memo:
                red = DataSequence(d.items[:m])
                blow = complement(from_elements(neg(red)))
                fired = any(
                    neg(DataSequence(d.items[:j])) == neg(red)
                    and ctx.memo[(*tag, d.items[:j])].extension == blow
                    for j in range(m)
                )
                p = pos(red)
                base = h.fn(red, ctx)
                if fired:
                    ext = blow
                elif not all(base.extension.member(x) for x in p):
                    ext = from_elements(p)
                elif raw_consistent(base, red):
                    ext = base.extension
                else:
                    ext = blow
                ctx.memo[red_key] = Hypothesis(ctx.fresh_label(), ext)
            ctx.memo[key] = ctx.memo[red_key]
        return ctx.memo[(*tag, d.items)]

    return Learner(f"{learner.name}[cons+wmon*]", "G", fn)


def _raw_stream_z(n: int, m: int) -> UPSet:
    xs = [3 * i for i in range(n + 1)]
    xs += [3 * i + 1 for i in range(n + 1, m + 1)]
    xs.append(3 * m + 2)
    return from_elements(xs)


def _raw_even_y(n: int) -> UPSet:
    return from_elements([2 * i for i in range(n + 1)] + [2 * n + 1])


def _raw_even_z(n: int, m: int) -> UPSet:
    return from_elements([2 * i for i in range(n + 1)] + [2 * n + 1, 2 * m])


def raw_stream_mon(sigma, ctx) -> Hypothesis:
    """`stream_mon` by sorting the positives: the boundary is the least n
    with a_n and b_{n+1} shown, the end the least later m with c_m."""
    ps = pos(sigma)
    boundary = None
    for n in sorted(x // 3 for x in ps if x % 3 == 0):
        if 3 * n + 4 in ps:  # a_n and b_{n+1} both witnessed
            boundary = n
            break
    if boundary is None:
        return hypothesis_for(STREAM_X)
    ends = sorted(x // 3 for x in ps if x % 3 == 2 and x // 3 > boundary)
    if not ends:
        return hypothesis_for(_lang_stream_y(boundary))
    return hypothesis_for(_raw_stream_z(boundary, ends[0]))


def raw_even_dualmon(sigma, ctx) -> Hypothesis:
    """`even_dualmon` by sorting the positives: the boundary is the least
    n with 2n and 2n + 1 shown, the end the least later m with 2m."""
    ps = pos(sigma)
    boundary = None
    for n in sorted(x // 2 for x in ps if x % 2 == 1):
        if 2 * n in ps:  # the odd marker and its even partner
            boundary = n
            break
    if boundary is None:
        return hypothesis_for(EVEN_X)
    tails = sorted(x // 2 for x in ps if x % 2 == 0 and x // 2 > boundary)
    if not tails:
        return hypothesis_for(_raw_even_y(boundary))
    return hypothesis_for(_raw_even_z(boundary, tails[0]))
