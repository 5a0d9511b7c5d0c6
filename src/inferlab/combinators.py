"""Learner transformations that trade interaction modes and add guarantees.

The constructions here rebuild a learner around its weaknesses: forcing
consistency by patching the conjecture against the data, simulating full
information from an unordered data set via canonical prefixes, and the
two wrap-and-poison schemes that keep a run weakly monotonic (classic or
dual) while making it globally consistent.

All outputs carry fresh odd labels and the default delay schedule.

The three memoizing wrappers (`cons_wmon_wrapper`, `cons_wmon_fourcase`,
`dual_wmon_poison`) answer from a prefix trie kept in `ctx.memo` under a
key of their own, so a run sees a stable hypothesis per evidence state.
A node stands for one evidence state and its children are keyed by the
next example. The root remembers the node of the last call's evidence
and where it ended in its informant's buffer, so the next prefix of the
same run takes one child step. Any other evidence is walked from the root.
Either way only the missing nodes are built, each from its parent plus
one example, so a run takes one trie step and asks the base learner
about once per prefix. A node keeps no copy of its evidence, whose
positives and negatives are read off the prefix's masks while the node
is built, so a run's trie takes memory linear in its length. Whether a
base answer agrees with the data is one mask test, `evidence.conflicts`,
whatever the prefix's length. Besides its answer, a node carries what
its wrapper needs next:

- `cons_wmon_wrapper`: for each distinct earlier answer whose window is
  not yet empty, that window (the least shown negative inside the answer
  and its members below it). Only the new example updates a window, and
  an emptied one is dropped for good.
- `cons_wmon_fourcase`: whether the blow-up has been conjectured since
  the last new negative. A repeated example reuses the parent's answer.
- `dual_wmon_poison`: whether a base answer since the last new positive
  missed a shown positive. The answer and its fresh label are made only
  when a call returns the node.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .evidence import (DataSequence, Example, _shown, _view, canonical,
                       conflicts, content)
from .hypothesis import Hypothesis, stage_enumerate
from .interaction import Learner, as_full_information
from .upset import (
    EMPTY,
    UPSet,
    complement,
    difference,
    from_elements,
    from_mask,
    to_mask,
    union,
)


def prefix_length(d) -> int:
    """Length of the initial segment the evidence covers without gaps: the
    trailing one bits of its values' mask."""
    p, n = d.masks
    shown = p | n
    return (~shown & (shown + 1)).bit_length() - 1


def canonical_prefix(d) -> DataSequence:
    """The evidence rearranged as a canonical presentation, cut at a gap:
    an O(1) view (`evidence.canonical`)."""
    return canonical(d.masks[0], prefix_length(d))


def to_set_driven(learner: Learner) -> Learner:
    """Forget order and multiplicity; answer as if canonically presented."""
    g = as_full_information(learner)

    def fn(dset, ctx):
        return g.fn(canonical_prefix(dset), ctx)

    return Learner(f"{learner.name}[sd]", "Sd", fn)


def patch(e: Hypothesis, d, ctx) -> Hypothesis:
    """Overwrite a conjecture with the data: add positives, drop negatives."""
    ps, ns = d.masks
    ext = difference(union(e.extension, from_mask(ps)), from_mask(ns))
    return Hypothesis(ctx.fresh_label(), ext)


def patched_learner(learner: Learner) -> Learner:
    """Consistency by force; denotations untouched wherever already consistent."""
    if learner.kind not in ("G", "Sd"):
        raise ValueError(
            "patching works on G or Sd learners; lift others first"
        )
    fn = lambda d, ctx: patch(learner.fn(d, ctx), d, ctx)
    return Learner(f"{learner.name}[patched]", learner.kind, fn)


def _delay_range(delay, m: int) -> tuple[int, int]:
    """The least and the largest delay of the values in the nonzero mask m.

    The default delay grows with the value, so among the values of m
    without an override only the least and the largest one can give
    either; the overrides inside m are read as they are.
    """
    inside = [(v, t) for v, t in delay.overrides if m >> v & 1]
    free = m & ~sum(1 << v for v, _ in inside)
    ts = [t for _, t in inside]
    if free:
        ts += (delay.of((free & -free).bit_length() - 1),
               delay.of(free.bit_length() - 1))
    return min(ts), max(ts)


def _stage_union(e: Hypothesis, d: DataSequence) -> UPSet:
    """Union of all enumeration stages of e that are consistent with d.

    A stage counts only once every positive of d is visible in it and no
    negative of d is. Whether that window is empty, cut short by the first
    visible conflict, or unbounded is decided by the delay schedule alone,
    which is asked only when e contradicts a negative of d, and then for
    at most four values (`_delay_range`), however many d shows.
    """
    ps = d.masks[0]
    wrong = conflicts(d.masks, e.extension)
    if not wrong:
        return e.extension
    if wrong & ps:
        return EMPTY
    t_bad = _delay_range(e.delay, wrong)[0]
    t_pos = _delay_range(e.delay, ps)[1] if ps else 0
    if t_bad == 0 or t_pos > t_bad - 1:
        return EMPTY
    return from_elements(stage_enumerate(e, t_bad - 1))


@dataclass
class _Node:
    """One evidence state of a wrapper's prefix trie.

    Compared field by field, so two tries grown by the same calls are
    equal. `hyp` is the wrapper's answer once made and `carry` whatever
    the wrapper hands on to the next state. `last` is set at the root
    only: the examples viewed, length, node and masks of the last call.
    It is not compared, so what a trie holds does not depend on whether
    its calls came along one run.
    """

    hyp: Hypothesis | None
    carry: object
    children: dict[Example, "_Node"] = field(default_factory=dict)
    last: tuple | None = field(default=None, compare=False, repr=False)


def _stored(node: _Node, ctx) -> Hypothesis:
    return node.hyp


def _trie_learner(name: str, grow, answer=_stored) -> Learner:
    """A G learner that answers from a prefix trie kept in `ctx.memo`.

    `grow(parent, tau, new, ctx)` builds the node for the prefix `tau`
    from the node of `tau` minus its last example (None at the root);
    `new` says whether that example appears in `tau` first. `answer(node,
    ctx)` gives the hypothesis for the evidence that ends there. A call
    on a later prefix of the buffer the last call read (see
    `evidence.prefixes`) goes on from the last call's node, so a run
    takes one step per prefix; any other call walks its evidence from the
    root. Either way it grows only the missing nodes.
    """
    tag = object()

    def fn(d: DataSequence, ctx):
        root = ctx.memo.get(tag)
        if root is None:
            root = ctx.memo[tag] = grow(
                None, _view((), 0, (0, 0)), False, ctx)
        run, n, last = d._run, len(d), root.last
        if last is not None and last[0] is run and last[1] <= n:
            _, k, node, masks = last
        else:
            k, node, masks = 0, root, (0, 0)
        while k < n:
            ex = d[k]
            k += 1
            before, masks = masks, _shown(masks, ex)
            child = node.children.get(ex)
            if child is None:
                # the whole evidence is d itself, whose items may be unread
                tau = d if k == n else _view(d, k, masks)
                child = grow(node, tau, masks != before, ctx)
                node.children[ex] = child
            node = child
        root.last = (run, n, node, masks)
        return answer(node, ctx)

    return Learner(name, "G", fn)


def _narrow(live: dict, ex: Example, top: int) -> dict:
    """The windows of earlier answers once `ex` is shown.

    `live` maps an extension to `(t_bad, window)`: its least shown
    negative (None if it has none) and its members below that. Wrapper
    answers carry the identity delay, so a window empties once a positive
    falls outside the extension or reaches `t_bad` (`top` is the largest
    positive shown, 0 if none). It stays empty, because positives only
    grow and `t_bad` only shrinks, so it leaves the map for good.
    """
    out = {}
    for ext, (t_bad, window) in live.items():
        if ext.member(ex.value):
            if not ex.label and (t_bad is None or ex.value < t_bad):
                t_bad = ex.value
                window = from_mask(to_mask(ext, t_bad))
        elif ex.label:
            continue
        if t_bad is None or top < t_bad:
            out[ext] = (t_bad, window)
    return out


def cons_wmon_wrapper(learner: Learner) -> Learner:
    """Keep every guess alive exactly as long as the data allows it.

    The wrapped learner conjectures the positive data, the current answer
    of the base learner, and every one of its own previous answers, each
    contributing only the stages still consistent with the present
    evidence. Runs are globally consistent and weakly monotonic, and the
    wrapper identifies whatever the base learner identified.
    """
    h = as_full_information(learner)

    def grow(parent, tau, new, ctx):
        # carry: the windows of earlier answers, see _narrow
        ps, live = tau.masks[0], {}
        if parent is not None:
            ext = parent.hyp.extension
            live = {**parent.carry, ext: parent.carry.get(ext, (None, ext))}
            live = _narrow(live, tau[-1], max(ps.bit_length() - 1, 0))
        ext = union(from_mask(ps), _stage_union(h.fn(tau, ctx), tau))
        for _, window in live.values():
            ext = union(ext, window)
        return _Node(Hypothesis(ctx.fresh_label(), ext), live)

    return _trie_learner(f"{learner.name}[cons+wmon]", grow)


def dual_wmon_poison(learner: Learner) -> Learner:
    """Pass the base learner through, poisoning provably wrong answers.

    A conjecture that misses shown positives is replaced by exactly those
    positives; one that covers shown negatives is blown up to everything
    but the negatives. Either poison stays consistent until genuinely new
    information arrives, which preserves dual weak monotonicity of the
    set-driven base learner while adding global consistency.
    """
    if learner.kind != "Sd":
        raise ValueError("poisoning is defined for set-driven learners")

    def grow(parent, tau, new, ctx):
        # carry: whether some base answer since the last new positive
        # missed a shown positive, and the answer's extension
        guess = learner.fn(content(tau), ctx).extension
        ps, ns = tau.masks
        wrong = conflicts(tau.masks, guess)
        poisoned = bool(wrong & ps) or (
            parent is not None and parent.carry[0]
            and not (tau[-1].label and new)
        )
        if poisoned:
            ext = from_mask(ps)
        elif wrong:
            ext = complement(from_mask(ns))
        else:
            ext = guess
        return _Node(None, (poisoned, ext))

    def answer(node, ctx):
        if node.hyp is None:
            node.hyp = Hypothesis(ctx.fresh_label(), node.carry[1])
        return node.hyp

    return _trie_learner(f"{learner.name}[dual-poison]", grow, answer)


def cons_wmon_fourcase(learner: Learner) -> Learner:
    """The four-way rebuild: blow up, fall back to positives, or pass through.

    Evaluated on the shortest prefix carrying the same evidence, so
    repeated data cannot move the answer. Once the run has conjectured
    everything-but-the-negatives and the negatives have not grown, it
    repeats that conjecture; a base answer missing shown positives is
    demoted to exactly those positives; an inconsistent one is blown up.
    Preserves weak monotonicity of the base learner and adds consistency.
    """
    h = as_full_information(learner)

    def grow(parent, tau, new, ctx):
        # carry: whether the blow-up was conjectured since the last new
        # negative
        if parent is None:
            fired = False
        elif not new:
            return _Node(parent.hyp, parent.carry)
        else:
            fired = parent.carry and tau[-1].label == 1
        ps, ns = tau.masks
        blow = complement(from_mask(ns))
        base = h.fn(tau, ctx).extension
        wrong = conflicts(tau.masks, base)
        if fired:
            ext = blow
        elif wrong & ps:
            ext = from_mask(ps)
        elif wrong:
            ext = blow
        else:
            ext = base
        return _Node(Hypothesis(ctx.fresh_label(), ext), ext == blow)

    return _trie_learner(f"{learner.name}[cons+wmon*]", grow)


COMBINATORS = {
    "to_sd": to_set_driven,
    "patch": patched_learner,
    "cons_wmon": cons_wmon_wrapper,
    "dual_wmon_poison": dual_wmon_poison,
    "cons_wmon_fourcase": cons_wmon_fourcase,
}


def combinator(name: str):
    try:
        return COMBINATORS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unknown combinator {name!r}") from None
