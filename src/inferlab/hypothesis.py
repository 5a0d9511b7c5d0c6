"""Hypotheses: a label, an extension, and an enumeration-delay schedule.

The label is the name a learner outputs; the extension is what the name
denotes. The delay schedule makes the denotation observable in stages:
value x is visible in the stage at time t only once t has reached the
scheduled delay of x. Stage enumeration is what consistency checks and
finite-horizon constructions actually look at.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import evidence
from .upset import NATURALS, UPSet


@dataclass(frozen=True)
class DelaySchedule:
    """Affine default delay max(x, mult*x + add), plus finite overrides.

    Overrides must not be earlier than the value itself: a value cannot be
    enumerated before time x, which keeps stages finite by construction.
    """

    overrides: tuple[tuple[int, int], ...] = ()
    mult: int = 1
    add: int = 0

    def __post_init__(self):
        if self.mult not in NATURALS or self.add not in NATURALS \
                or self.mult < 1:
            raise ValueError("delay must dominate the identity")
        seen = {}
        for x, t in self.overrides:
            if x not in NATURALS or t not in NATURALS or t < x:
                raise ValueError(f"override {x}->{t} enumerates too early")
            if seen.setdefault(x, t) != t:
                raise ValueError(f"conflicting overrides for {x}")
        object.__setattr__(
            self, "overrides", tuple(sorted(seen.items()))
        )

    def of(self, x: int) -> int:
        for v, t in self.overrides:
            if v == x:
                return t
        return max(x, self.mult * x + self.add)


DEFAULT_DELAY = DelaySchedule()


@dataclass(frozen=True)
class Hypothesis:
    label: int
    extension: UPSet
    delay: DelaySchedule = DEFAULT_DELAY

    def __post_init__(self):
        label = self.label
        if not isinstance(label, int) or isinstance(label, bool) or label < 0:
            raise ValueError("labels are naturals")
        for x, _ in self.delay.overrides:
            if not self.extension.member(x):
                raise ValueError(f"delay override for non-member {x}")

    def __str__(self) -> str:
        return format_hypothesis(self)


def stage_enumerate(h: Hypothesis, t: int) -> frozenset[int]:
    """Members of the extension enumerated by time t.

    A value appears once both the value itself and its scheduled delay are
    within t, so every stage is finite and stages grow to the extension.
    """
    if t < 0:
        raise ValueError("stage time must be a natural")
    return frozenset(
        x
        for x in range(t + 1)
        if h.extension.member(x) and h.delay.of(x) <= t
    )


def consistent(e, d: evidence.Evidence) -> bool:
    """Every example of the evidence d agrees with e, a `Hypothesis` or a
    `UPSet`: e contradicts none of d's values (`evidence.conflicts`)."""
    ext = e.extension if isinstance(e, Hypothesis) else e
    if not isinstance(ext, UPSet):
        raise TypeError(f"no extension for {e!r}")
    return not evidence.conflicts(d.masks, ext)


_DIGITS = str.maketrans("01|", "123")


def extension_label(u: UPSet) -> int:
    """Even label read off the extension's description; injective.

    The description is read as a base-4 numeral over the digits 1-3, so no
    leading digit is 0 and distinct descriptions give distinct numbers.
    """
    return 2 * int(str(u).translate(_DIGITS), 4)


def hypothesis_for(u: UPSet) -> Hypothesis:
    """`Hypothesis(extension_label(u), u)`, minus checks that cannot fail."""
    h = object.__new__(Hypothesis)
    object.__setattr__(h, "label", extension_label(u))
    object.__setattr__(h, "extension", u)
    object.__setattr__(h, "delay", DEFAULT_DELAY)
    return h


def format_hypothesis(h: Hypothesis) -> str:
    text = f"label={h.label} ext={h.extension} delay={h.delay.mult},{h.delay.add}"
    if h.delay.overrides:
        text += ";" + ",".join(f"{x}->{t}" for x, t in h.delay.overrides)
    return text
