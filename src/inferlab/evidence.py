"""Labelled examples, finite evidence states, and informants.

An informant presents, over time, every natural paired with its membership
bit for a target set. Finite prefixes of that presentation are the only
evidence a learner ever sees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple

from .upset import NATURALS, UPSet, mask_elements, to_mask


class Example(NamedTuple):
    value: int
    label: int  # 1 = positive, 0 = negative


def _as_examples(items) -> tuple[Example, ...]:
    """The items as examples: (value, label) pairs, value a natural and
    label the int 0 or 1. Nothing is coerced; a bool is neither."""
    out = []
    for item in items:
        try:
            value, label = item
        except (TypeError, ValueError):
            raise ValueError(f"an example is a (value, label) pair,"
                             f" got {item!r}") from None
        if label not in NATURALS or label > 1:
            raise ValueError(f"label must be 0 or 1, got {label!r}")
        if value not in NATURALS:
            raise ValueError(f"example values are naturals, got {value!r}")
        out.append(Example(value, label))
    return tuple(out)


def _shown(masks: tuple[int, int], ex: Example) -> tuple[int, int]:
    """The masks once `ex` is shown too: the very same pair if it was shown
    before. A value already shown with the other label is refused."""
    p, n = masks
    bit = 1 << ex.value
    if (n if ex.label else p) & bit:
        raise ValueError(f"contradictory labels for {ex.value}")
    if (p if ex.label else n) & bit:
        return masks
    return (p | bit, n) if ex.label else (p, n | bit)


def _masks_of(items: Iterable[Example]) -> tuple[int, int]:
    """The positive and the negative values as int masks, bit v for v; no
    value may carry two labels."""
    masks = (0, 0)
    for ex in items:
        masks = _shown(masks, ex)
    return masks


def conflicts(masks: tuple[int, int], u: UPSet) -> int:
    """The shown values that the set `u` contradicts, as an int mask: the
    positives outside `u` and the negatives inside it. `masks` are the
    (positives, negatives) of some evidence, so this is 0 iff `u` agrees
    with all of it."""
    p, n = masks
    e = to_mask(u, (p | n).bit_length())
    return (p & ~e) | (n & e)


class _Evidence:
    """What both kinds of evidence share: the items, validated once into
    the container `_container`, and their masks."""

    def __post_init__(self):
        items = self._container(_as_examples(self.items))
        object.__setattr__(self, "masks", _masks_of(items))
        object.__setattr__(self, "items", items)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.items)

    @cached_property
    def masks(self) -> tuple[int, int]:
        """(positives, negatives) as int masks, bit v for value v.

        Made while the items are validated, or, for evidence built over
        items already validated, on first read; then kept. Not a field, so
        equality and hashing see `items` alone.
        """
        return _masks_of(self.items)


@dataclass(frozen=True)
class DataSequence(_Evidence):
    """Finite ordered evidence; never assigns two labels to one value."""

    items: tuple[Example, ...] = ()
    _container = tuple

    def __getitem__(self, i):
        return self.items[i]


@dataclass(frozen=True)
class DataSet(_Evidence):
    """Finite unordered evidence; same consistency invariant."""

    items: frozenset[Example] = frozenset()
    _container = frozenset

    def __contains__(self, ex) -> bool:
        return ex in self.items

    def sorted(self) -> tuple[Example, ...]:
        return tuple(sorted(self.items))


Evidence = DataSequence | DataSet


def _trusted(cls, items, masks=None):
    """Evidence of `cls` over items the caller has already validated.

    Skips `__post_init__`: the items must already be `Example`s in the
    container type `cls` stores, with no value carrying two labels. Given
    `masks`, they must be the items' masks.
    """
    d = object.__new__(cls)
    object.__setattr__(d, "items", items)
    if masks is not None:
        object.__setattr__(d, "masks", masks)
    return d


def pos(d: Evidence) -> frozenset[int]:
    return frozenset(mask_elements(d.masks[0]))


def neg(d: Evidence) -> frozenset[int]:
    return frozenset(mask_elements(d.masks[1]))


def outline(d: Evidence) -> frozenset[int]:
    p, n = d.masks
    return frozenset(mask_elements(p | n))


def content(d: Evidence) -> DataSet:
    if isinstance(d, DataSet):
        return d
    return _trusted(DataSet, frozenset(d.items), d.masks)


def parse_sequence(text: str) -> DataSequence:
    """Parse '0:+,1:-,3:+' notation; empty text is the empty sequence."""
    text = text.strip()
    if not text:
        return DataSequence()
    items = []
    for chunk in text.split(","):
        value_text, _, sign = chunk.strip().partition(":")
        if sign not in ("+", "-") or not value_text.isdigit():
            raise ValueError(f"malformed example {chunk!r}")
        items.append(Example(int(value_text), 1 if sign == "+" else 0))
    return DataSequence(tuple(items))


def format_sequence(d: Evidence) -> str:
    items = d.sorted() if isinstance(d, DataSet) else d.items
    return ",".join(f"{ex.value}:{'+' if ex.label else '-'}" for ex in items)


ORDERS = ("canonical", "fresh", "shuffled")
_BLOCK = 8


@lru_cache(maxsize=1024)
def _block_perm(seed: int, block: int) -> tuple[int, ...]:
    """The values of one shuffled block, in presentation order."""
    cells = list(range(block * _BLOCK, (block + 1) * _BLOCK))
    random.Random(seed * 1_000_003 + block).shuffle(cells)
    return tuple(cells)


@dataclass(frozen=True)
class Informant:
    """Deterministic complete presentation of a target set.

    The finite head is shown verbatim; afterwards values are enumerated
    either in canonical order, in canonical order skipping values the head
    already covered (fresh), or block-shuffled by the seed. Every natural
    occurs at some index regardless of the order.

    A head entry is a bare natural, which the target labels, or a
    (value, label) pair that must agree with the target.
    """

    target: UPSet
    head: tuple[Example, ...] = ()
    order: str = "canonical"
    seed: int = 0

    def __post_init__(self):
        head = _as_examples(
            (x, int(self.target.member(x))) if x in NATURALS else x
            for x in self.head)
        # each label's values are asked apart: a value shown with both
        # labels contradicts the target under one, and that one is named
        wrong = [conflicts(_masks_of(ex for ex in head if ex.label == b),
                           self.target) for b in (0, 1)]
        for ex in head:
            if wrong[ex.label] >> ex.value & 1:
                raise ValueError(
                    f"head example {ex} contradicts target {self.target}"
                )
        if self.order not in ORDERS:
            raise ValueError(f"unknown order {self.order!r}")
        object.__setattr__(self, "head", head)

    def example_at(self, i: int) -> Example:
        if i < 0:
            raise ValueError("index must be a natural")
        if i < len(self.head):
            return self.head[i]
        j = i - len(self.head)
        if self.order == "canonical":
            value = j
        elif self.order == "shuffled":
            block, offset = divmod(j, _BLOCK)
            value = _block_perm(self.seed, block)[offset]
        else:  # fresh: canonical order over values the head did not show
            shown = sorted({ex.value for ex in self.head})
            value = j
            for v in shown:
                if v <= value:
                    value += 1
                else:
                    break
        return Example(value, 1 if self.target.member(value) else 0)


def canonical_informant(target: UPSet) -> Informant:
    return Informant(target)


def prefix(informant: Informant, n: int) -> DataSequence:
    return DataSequence(tuple(informant.example_at(i) for i in range(n)))


class EvidenceIndex:
    """The masks of every prefix of one presentation, n = 0..horizon.

    `positives[n]` and `negatives[n]` are the masks of the first n
    examples; a prefix that repeats an example shares its parent's ints.
    The examples themselves are not kept: an example that is new at
    index i is the one bit that prefix i + 1 adds. Compared and hashed by
    identity, since an index stands for the one presentation it was read
    from.
    """

    __slots__ = ("positives", "negatives", "__weakref__")

    def __init__(self, masks: Iterable[tuple[int, int]]):
        self.positives, self.negatives = map(tuple, zip(*masks))


def prefixes(
    informant: Informant, horizon: int
) -> Iterator[tuple[DataSequence, DataSet]]:
    """Yield `(prefix(informant, n), content(prefix(informant, n)))`, n = 0..horizon.

    Each index is enumerated once and each new example is validated once,
    against the running masks, so every yielded prefix keeps the evidence
    invariant without being checked again in full. Each prefix and its
    content come with their `masks` set: the parent's plus one OR, and the
    very same pair when the example was shown before. Each step copies the
    items into a new immutable prefix, and into a new content when the
    example is new, so a pass is quadratic in `horizon`.
    """
    d = _trusted(DataSequence, (), (0, 0))
    dset = _trusted(DataSet, frozenset(), d.masks)
    yield d, dset
    for i in range(horizon):
        (ex,) = _as_examples((informant.example_at(i),))
        masks = _shown(d.masks, ex)
        if masks is not d.masks:  # a new example: the content grows
            dset = _trusted(DataSet, dset.items | {ex}, masks)
        d = _trusted(DataSequence, d.items + (ex,), masks)
        yield d, dset
