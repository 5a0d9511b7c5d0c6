"""Exact algebra of ultimately periodic subsets of the naturals.

A set is described by a finite prefix bit string P and a nonempty period bit
string Q: membership of x is P[x] for x < |P| and Q[(x - |P|) mod |Q|]
otherwise. A set holds its canonical form (shortest period, then shortest
prefix) as four ints, (P's bits, |P|, Q's bits, |Q|) with bit i for position
i, and is interned: a weak table maps each form to its one live set.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Iterable
from weakref import KeyedRef


class Relation(Enum):
    EQUAL = "equal"
    PROPER_SUBSET = "proper_subset"
    PROPER_SUPERSET = "proper_superset"
    INCOMPARABLE = "incomparable"


def _repunit(d: int, k: int) -> int:
    """The multiplier that repeats a d-bit block k times."""
    return ((1 << d * k) - 1) // ((1 << d) - 1)


class UPSet:
    """Canonical ultimately periodic subset of the naturals, interned, so
    shared and immutable. Its hash, that of its four ints, is stored once
    and does not depend on PYTHONHASHSEED."""

    __slots__ = ("_key", "_hash", "_str", "__weakref__")

    def __new__(cls, prefix: str, period: str) -> UPSet:
        if not isinstance(prefix, str) or not isinstance(period, str):
            raise ValueError("prefix and period must be bit strings")
        if not period:
            raise ValueError("period must be nonempty")
        if not set(prefix + period) <= {"0", "1"}:
            raise ValueError("bit strings over 0/1 expected, got "
                             f"{prefix!r}|{period!r}")
        return _normalize(int(prefix[::-1] or "0", 2), len(prefix),
                          int(period[::-1], 2), len(period))

    def __setattr__(self, name, value):
        raise AttributeError(f"UPSet is immutable; cannot set {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return UPSet, (self.prefix, self.period)

    prefix = property(lambda self: str(self).partition("|")[0])
    period = property(lambda self: str(self).partition("|")[2])

    def member(self, x: int) -> bool:
        if x < 0:
            raise ValueError("naturals only")
        p, np, q, nq = self._key
        return (p >> x if x < np else q >> (x - np) % nq) & 1 == 1

    def __contains__(self, x) -> bool:
        """Like `member`, but anything not a natural int (bools are not) is
        simply outside."""
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            return False
        return self.member(x)

    def is_finite(self) -> bool:
        return self._key[2] == 0

    def __str__(self) -> str:
        try:  # kept once made: catalog learners label short-lived sets by it
            return self._str
        except AttributeError:
            p, np, q, nq = self._key  # bit 0 first; no prefix when np is 0
            _set_str(self, f"{p:0{np}b}"[::-1][:np] + "|" + f"{q:0{nq}b}"[::-1])
            return self._str

    def __repr__(self) -> str:
        return f"UPSet({str(self)!r})"


_new, _set_key = object.__new__, UPSet._key.__set__
_set_hash, _set_str = UPSet._hash.__set__, UPSet._str.__set__
_LIVE: dict[tuple[int, int, int, int], KeyedRef] = {}  # canonical ints -> set


def _forget(ref: KeyedRef, live=_LIVE) -> None:
    """Drop a freed set's entry, unless a new set holds it already."""
    if live.get(ref.key) is ref:
        del live[ref.key]


def _canonical(p: int, np: int, q: int, nq: int) -> UPSet:
    """The interned set for ints already in canonical form."""
    key = (p, np, q, nq)
    ref = _LIVE.get(key)
    u = ref and ref()
    if u is None:
        u = _new(UPSet)
        _set_key(u, key)
        _set_hash(u, hash(key))
        _LIVE[key] = KeyedRef(u, _forget, key)
    return u


def _normalize(p: int, np: int, q: int, nq: int) -> UPSet:
    """The interned set for any prefix and period bits."""
    # The period lengths of a purely periodic infinite word are closed under
    # gcd, so the minimal one divides nq; scan divisors in increasing order.
    for d in range(1, nq):
        if nq % d == 0 and (q & ((1 << d) - 1)) * _repunit(d, nq // d) == q:
            q, nq = q & ((1 << d) - 1), d
            break
    # The period extended backwards from the prefix's end matches the
    # prefix above their highest differing bit: that whole tail goes, and
    # the period rotates left as far, to start where the prefix now ends.
    shift = -np % nq
    back = q * _repunit(nq, (np + shift) // nq) >> shift
    k = np - (p ^ back).bit_length()
    if k:
        np, r = np - k, k % nq
        p &= (1 << np) - 1
        q = (q << r | q >> (nq - r)) & ((1 << nq) - 1)
    return _canonical(p, np, q, nq)


EMPTY = UPSet("", "0")
NATURALS = UPSet("", "1")


def parse(text: str) -> UPSet:
    """Parse the P|Q notation, e.g. '|10' (evens) or '10|1' (all but 1)."""
    if not isinstance(text, str):
        raise ValueError("P|Q notation must be a string")
    if text.count("|") != 1:
        raise ValueError(f"expected exactly one '|' in {text!r}")
    prefix, period = text.split("|")
    return UPSet(prefix, period)


def bounded_elements(u: UPSet, bound: int) -> tuple[int, ...]:
    """All members x <= bound, increasing. The width bound + 1 is a
    natural, so a bound of -1 has no members and one below it is refused."""
    return tuple(mask_elements(to_mask(u, bound + 1)))


def min_element(u: UPSet) -> int | None:
    """Smallest member, or None for the empty set."""
    p, np, q, _ = u._key
    if p:
        return (p & -p).bit_length() - 1
    return np + (q & -q).bit_length() - 1 if q else None


def from_elements(xs: Iterable[int]) -> UPSet:
    """The finite set with exactly the given elements."""
    m = 0
    for x in xs:
        if x < 0:
            raise ValueError("naturals only")
        m |= 1 << x
    return from_mask(m)


def from_mask(m: int) -> UPSet:
    """The finite set whose elements are the set bits of m (bit x for x).

    Canonical as it stands: the period 0 is minimal and the prefix ends in
    the top bit, a 1, which the period does not continue.
    """
    if m < 0:
        raise ValueError("naturals only")
    return _canonical(m, m.bit_length(), 0, 1) if m else EMPTY


def to_mask(u: UPSet, width: int) -> int:
    """The members of u below `width` as an int mask, bit x for x; the
    inverse of `from_mask` on a finite set whose members lie below it.
    A repunit product repeats the period, so no string is built."""
    if width < 0:
        raise ValueError("naturals only")
    p, np, q, nq = u._key
    if width > np and q:
        p |= q * _repunit(nq, (width - np + nq - 1) // nq) << np
    return p & ((1 << width) - 1)


def mask_elements(m: int) -> list[int]:
    """The set bits of m, increasing: the elements of `from_mask(m)`, read
    off its bit string in time linear in its width."""
    if m < 0:
        raise ValueError("naturals only")
    return [x for x, bit in enumerate(format(m, "b")[::-1]) if bit == "1"]


def cycle(*sets: UPSet) -> tuple[int, int, tuple[int, ...]]:
    """(n, length, masks): the sets over one common cycle, 0..length-1.

    n is the longest prefix and length - n the lcm of the periods, so past
    n every set repeats with period length - n, and each mask, bit x for
    x < length, describes its set with prefix n and that period. A
    pointwise formula of the masks describes the formula's set the same
    way; `from_cycle` reads it back.
    """
    n = max(u._key[1] for u in sets)
    length = n + math.lcm(*(u._key[3] for u in sets))
    return n, length, tuple(to_mask(u, length) for u in sets)


def from_cycle(bits: int, n: int, length: int) -> UPSet:
    """The set whose membership on 0..length-1 is the bits, a mask over a
    `cycle` (n, length): prefix n bits, then period length - n."""
    return _normalize(bits & ((1 << n) - 1), n, bits >> n, length - n)


# Entries each operation cache below keeps: above what one pass of any
# benchmark workload uses, so such a pass evicts nothing, while a long
# sweep in one process stays within a fixed size.
_CACHE_SIZE = 8192


@lru_cache(maxsize=_CACHE_SIZE)
def relate(a: UPSet, b: UPSet) -> Relation:
    """Exact subset relation between two sets.

    After the longer prefix both membership sequences are periodic with the
    lcm of the periods, so one full common cycle decides the comparison.
    """
    _, _, (ma, mb) = cycle(a, b)
    a_extra, b_extra = ma & ~mb, mb & ~ma
    if a_extra and b_extra:
        return Relation.INCOMPARABLE
    if a_extra:
        return Relation.PROPER_SUPERSET
    if b_extra:
        return Relation.PROPER_SUBSET
    return Relation.EQUAL


def is_subset(a: UPSet, b: UPSet) -> bool:
    return relate(a, b) in (Relation.EQUAL, Relation.PROPER_SUBSET)


def _pointwise(a: UPSet, b: UPSet, op) -> UPSet:
    n, length, (ma, mb) = cycle(a, b)
    return from_cycle(op(ma, mb), n, length)


@lru_cache(maxsize=_CACHE_SIZE)
def union(a: UPSet, b: UPSet) -> UPSet:
    return _pointwise(a, b, lambda x, y: x | y)


@lru_cache(maxsize=_CACHE_SIZE)
def intersection(a: UPSet, b: UPSet) -> UPSet:
    return _pointwise(a, b, lambda x, y: x & y)


@lru_cache(maxsize=_CACHE_SIZE)
def difference(a: UPSet, b: UPSet) -> UPSet:
    return _pointwise(a, b, lambda x, y: x & ~y)


@lru_cache(maxsize=_CACHE_SIZE)
def complement(a: UPSet) -> UPSet:
    """Every bit flipped. Flipping keeps a period minimal and keeps the
    last prefix bit apart from the period, so the result is canonical as
    it stands."""
    p, np, q, nq = a._key
    return _canonical(p ^ ((1 << np) - 1), np, q ^ ((1 << nq) - 1), nq)


_COMBINE_OPS = {"union": union, "intersection": intersection, "difference": difference}


def combine(kind: str, a: UPSet, b: UPSet) -> UPSet:
    try:
        op = _COMBINE_OPS[kind]
    except KeyError:
        raise ValueError(f"unknown combine kind {kind!r}") from None
    return op(a, b)
