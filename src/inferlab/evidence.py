"""Labelled examples, finite evidence states, and informants.

An informant presents, over time, every natural paired with its membership
bit for a target set. Finite prefixes of that presentation are the only
evidence a learner ever sees: a prefix as a `DataSequence`, an O(1) view
of the informant's buffer (`prefixes`), and its content as a `DataSet`,
the prefix's two masks and nothing else (`contents`, with no view).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress, islice, repeat
from operator import or_
from typing import Iterable, Iterator, NamedTuple

from .upset import NATURALS, UPSet, mask_elements, to_mask


class Example(NamedTuple):
    value: int
    label: int  # 1 = positive, 0 = negative


def _as_example(item) -> Example:
    """The item as an example, checked: a (value, label) pair, value a
    natural and label the int 0 or 1. Nothing is coerced; a bool is
    neither."""
    if (type(item) is Example and type(item[0]) is int
            and type(item[1]) is int and item[0] >= 0 and 0 <= item[1] <= 1):
        return item  # the common case, taken as it is
    try:
        value, label = item
    except (TypeError, ValueError):
        raise ValueError(f"an example is a (value, label) pair,"
                         f" got {item!r}") from None
    if label not in NATURALS or label > 1:
        raise ValueError(f"label must be 0 or 1, got {label!r}")
    if value not in NATURALS:
        raise ValueError(f"example values are naturals, got {value!r}")
    return Example(value, label)


def _shown(masks: tuple[int, int], ex: Example) -> tuple[int, int]:
    """The masks once `ex` is shown too: the very same pair if it was shown
    before. A value already shown with the other label is refused.

    Each test shifts the value's bit down rather than building it, so it
    reads only the bits above the value.
    """
    p, n = masks
    value, label = ex
    same, other = (p, n) if label else (n, p)
    if same >> value & 1:
        return masks
    if other >> value & 1:
        raise ValueError(f"contradictory labels for {value}")
    same |= 1 << value
    return (same, other) if label else (other, same)


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


class _Items:
    """The `items` field of a sequence, read lazily for a view of a run.

    Every sequence is a view of a run `_run`: its items are the run's
    first `_n` examples. A sequence built from its items is a view of them
    and keeps them in its instance dict, which hides this descriptor. A
    view made by `_view` builds its items on first read and then keeps
    them the same way. Read on the class, this is the field's default,
    which is what the dataclass takes it for.
    """

    def __get__(self, d, cls=None):
        if d is None:
            return ()
        items = tuple(islice(d._run, d._n))
        d.__dict__["items"] = items
        return items


@dataclass(frozen=True)
class DataSequence:
    """Finite ordered evidence; never assigns two labels to one value.

    `masks` is (positives, negatives) as int masks, bit v for value v. It
    is made while the items are validated, or handed to a view. Not a
    field, so equality and hashing see `items` alone; nor are `_run` and
    `_n`, which a sequence built from its items sets to those items.
    """

    items: tuple[Example, ...] = _Items()

    def __post_init__(self):
        items = tuple(map(_as_example, self.items))
        self.__dict__.update(items=items, _run=items, _n=len(items),
                             masks=_masks_of(items))

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Example]:
        return islice(self._run, self._n)

    def __getitem__(self, i):
        if type(i) is int and -self._n <= i < self._n:
            return self._run[i % self._n]
        return self.items[i]


@dataclass(frozen=True, init=False)
class DataSet:
    """Finite unordered evidence: its masks, (positives, negatives) as int
    masks, bit v for value v, and nothing else. No value carries two
    labels, so equal masks are equal examples; the examples are read off
    the masks, in the order of their values."""

    masks: tuple[int, int]

    def __init__(self, items: Iterable = ()):
        # every item's shape is checked before any two labels are
        object.__setattr__(self, "masks",
                           _masks_of(tuple(map(_as_example, items))))

    @property
    def items(self) -> frozenset[Example]:
        return frozenset(self.sorted())

    def __len__(self) -> int:
        """The values shown: no value carries two labels."""
        p, n = self.masks
        return (p | n).bit_count()

    def __iter__(self) -> Iterator[Example]:
        return iter(self.sorted())

    def sorted(self) -> tuple[Example, ...]:
        p, n = self.masks
        return tuple(Example(v, p >> v & 1) for v in mask_elements(p | n))


Evidence = DataSequence | DataSet


def _view(run, n: int, masks: tuple[int, int]) -> DataSequence:
    """The sequence of the first `n` examples of `run`.

    O(1): the items are built on first read (see `_Items`). `run` is
    anything that iterates and indexes examples, and its first `n` must
    stay as they are; `masks` must be theirs. Nothing is validated: the
    examples must be valid and no value may carry two labels. A view
    compares and hashes as the sequence built from the same items.
    """
    d = object.__new__(DataSequence)
    d.__dict__.update(_run=run, _n=n, masks=masks)
    return d


def pos(d: Evidence) -> frozenset[int]:
    return frozenset(mask_elements(d.masks[0]))


def neg(d: Evidence) -> frozenset[int]:
    return frozenset(mask_elements(d.masks[1]))


def outline(d: Evidence) -> frozenset[int]:
    p, n = d.masks
    return frozenset(mask_elements(p | n))


def content(d: Evidence) -> DataSet:
    """The evidence as a set: O(1), its masks alone, holding nothing of
    the examples or of the run they came from."""
    return d if isinstance(d, DataSet) else _set(d.masks)


def _set(masks: tuple[int, int]) -> DataSet:
    """The `DataSet` of these masks, unchecked: they come from evidence."""
    s = object.__new__(DataSet)
    object.__setattr__(s, "masks", masks)
    return s


def parse_sequence(text: str) -> DataSequence:
    """Parse '0:+,1:-,3:+' notation; empty text is the empty sequence."""
    text = text.strip()
    if not text:
        return DataSequence()
    items = []
    for chunk in text.split(","):
        value_text, _, sign = chunk.strip().partition(":")
        if sign not in ("+", "-") or not (value_text.isascii()
                                          and value_text.isdigit()):
            raise ValueError(f"malformed example {chunk!r}")
        items.append(Example(int(value_text), 1 if sign == "+" else 0))
    return DataSequence(tuple(items))


def format_sequence(d: Evidence) -> str:
    return ",".join(f"{ex.value}:{'+' if ex.label else '-'}" for ex in d)


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
    already covered (fresh), or block-shuffled by the seed, an int (not
    a bool) in every order. Every natural occurs at some index regardless
    of the order.

    A head entry is a bare natural, which the target labels, or a
    (value, label) pair that must agree with the target.
    Runs, checks and games read it through its one `buffer`, in bulk
    (`_values`), so each index is read once whatever reads it.
    """

    target: UPSet
    head: tuple[Example, ...] = ()
    order: str = "canonical"
    seed: int = 0
    # fresh order: the i-th distinct head value, sorted, minus i, counts the
    # values outside the head below it; not a field, so == and hash skip it
    _gaps = ()

    def __post_init__(self):
        head = tuple(_as_example(
            (x, int(self.target.member(x))) if x in NATURALS else x)
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
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "_gaps", tuple(
            v - i for i, v in enumerate(sorted({ex.value for ex in head}))))

    def _values(self, i: int, n: int) -> list[int]:
        """The values shown at indices i..n-1, the head's first."""
        k, out = len(self.head), [ex.value for ex in self.head[i:n]]
        j, m = max(i - k, 0), max(n - k, 0)  # indices into the tail
        if self.order == "canonical":
            out += range(j, m)
        elif self.order == "shuffled":
            first, skip = divmod(j, _BLOCK)
            out += [v for b in range(first, (m - 1) // _BLOCK + 1)
                    for v in _block_perm(self.seed, b)][skip:skip + m - j]
        else:  # fresh: canonical order over values the head did not show,
            # so the j-th is j plus the head values below it
            out += [v + bisect_right(self._gaps, v) for v in range(j, m)]
        return out

    def example_at(self, i: int) -> Example:
        if i < 0:
            raise ValueError("index must be a natural")
        (value,) = self._values(i, i + 1)
        return Example(value, 1 if self.target.member(value) else 0)


def canonical_informant(target: UPSet) -> Informant:
    return Informant(target)


def prefix(informant: Informant, n: int) -> DataSequence:
    """The first n examples, read and validated from scratch, never through
    the informant's buffer: the reference `prefixes` is tested against."""
    return DataSequence(tuple(informant.example_at(i) for i in range(n)))


class EvidenceIndex:
    """The masks of each prefix of one presentation read so far:
    `positives[n]` and `negatives[n]` are those of the first n examples.
    It keeps no example, so a cache keyed by it keeps only masks alive.
    Compared and hashed by identity: it stands for one presentation."""

    __slots__ = ("positives", "negatives", "__weakref__")

    def __init__(self):
        self.positives, self.negatives = [0], [0]


def buffer(informant, n: int) -> tuple[list[Example], EvidenceIndex]:
    """The informant's buffer, read on to hold at least n examples: the
    examples shown and their evidence index. It lives in the instance dict,
    unseen by equality, hashing and repr; only appended to, so views of it
    stay valid; holding no reference back, so a dropped informant frees it.
    An `Informant` is read in bulk and labelled by its target's mask, any
    other one `example_at` at a time, each example checked before kept."""
    buf = vars(informant).get("_buffer")
    if buf is None:
        buf = ([], EvidenceIndex())
        object.__setattr__(informant, "_buffer", buf)
    examples, index = buf
    ps, ns, i = index.positives, index.negatives, len(examples)
    if i < n and isinstance(informant, Informant):
        values = informant._values(i, n)
        t = to_mask(informant.target, max(values) + 1)
        labels, bits = [t >> v & 1 for v in values], [1 << v for v in values]
        examples += map(tuple.__new__, repeat(Example), zip(values, labels))
        # one int per distinct mask: a step keeps the int of a mask it leaves
        for masks, shown in (ps, labels), (ns, [b ^ 1 for b in labels]):
            ms = list(accumulate(compress(bits, shown), or_, initial=masks[i]))
            masks[i:] = map(ms.__getitem__, accumulate(shown, initial=0))
    for i in range(len(examples), n):
        ex = _as_example(informant.example_at(i))
        p, q = _shown((ps[i], ns[i]), ex)
        examples.append(ex)
        ps.append(p)
        ns.append(q)
    return buf


class _Canonical:
    """The canonical presentation of the finite set whose members are the
    bits of `positives`: example i is (i, bit i). Endless; read by index."""

    __slots__ = ("positives",)

    def __init__(self, positives: int):
        self.positives = positives

    def __getitem__(self, i: int) -> Example:
        return Example(i, self.positives >> i & 1)


def canonical(positives: int, n: int) -> DataSequence:
    """The first n examples of the canonical informant of the finite set
    whose members are the bits of `positives`, as an O(1) view."""
    cut = (1 << n) - 1
    p = positives & cut
    return _view(_Canonical(p), n, (p, cut & ~p))


def prefixes(informant: Informant, horizon: int) -> Iterator[DataSequence]:
    """Yield `prefix(informant, n)`, n = 0..horizon.

    The informant's `buffer` is read on to `horizon` first. Each prefix is
    then an O(1) view of it (see `_view`), and its `content` is O(1) too,
    so a pass is linear in `horizon`, up to the masks."""
    examples, index = buffer(informant, horizon)
    ps, ns = index.positives, index.negatives
    for n in range(horizon + 1):
        yield _view(examples, n, (ps[n], ns[n]))


def contents(informant, horizon: int) -> Iterator[DataSet]:
    """`content(prefix(informant, n))` for n = 0..horizon, no view made."""
    index = buffer(informant, horizon)[1]
    return map(_set, zip(index.positives[:horizon + 1], index.negatives))
