"""Named language families and the reference learners that work them.

Every separation argument in this package plays out on a small zoo of
language families: finite sets, cofinite sets, initial segments next to
the full set of naturals, and two three-tier "stream" families whose
members interpolate between an infinite base language and finite or
shifted variants.  This module materializes those families as upper
sets, together with one total learner per family tuned to exhibit a
particular behaviour (strong monotonicity, its dual, cautiousness
failures, and so on).

Everything here is deterministic and purely combinatorial.  Each family
and each learner is declared once, as a row of `_FAMILY_ROWS` or
`_LEARNER_ROWS`: the row carries the family's instance generator or the
learner's function and mode beside its metadata, and `FAMILY_IDS`,
`LEARNER_IDS`, `family_instances` and `learner` are read off the rows.
Experiment configs and the command line refer to them by id;
`list_catalog` exposes the pairing between each learner, its home
family, and the behaviours it is known to satisfy or break there.  The
satisfied/violated claims are not decorative: the test suite replays
each of them against the checkers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

from .hypothesis import Hypothesis, hypothesis_for
from .interaction import Learner
from .upset import (EMPTY, NATURALS, UPSet, complement, from_elements,
                    from_mask, parse, to_mask)

__all__ = [
    "FAMILY_IDS",
    "LANGUAGE_IDS",
    "LEARNER_IDS",
    "FamilyEntry",
    "LearnerEntry",
    "constant_learner",
    "family_instances",
    "language",
    "learner",
    "list_catalog",
]

# stream family alphabet: a_i = 3i, b_i = 3i + 1, c_i = 3i + 2
STREAM_X = parse("|100")
EVEN_X = parse("|10")


def _natural(name: str, value) -> int:
    if value not in NATURALS:
        raise ValueError(f"{name} must be a natural number, got {value!r}")
    return value


def _pair(n, m) -> tuple[int, int]:
    n = _natural("n", n)
    m = _natural("m", m)
    if not n < m:
        raise ValueError(f"need n < m, got n={n}, m={m}")
    return n, m


def _lang_finite(elements=()) -> UPSet:
    return from_elements(_natural("elements", x) for x in elements)


def _lang_cofinite(remove=()) -> UPSet:
    return complement(from_elements(_natural("remove", x) for x in remove))


def _lang_segment(n) -> UPSet:
    # the segment {0, ..., n}; the family has no empty member
    return from_mask((2 << _natural("n", n)) - 1)


def _lang_stream_y(n) -> UPSet:
    # a_0 .. a_n, then every b_i past the boundary
    return UPSet("100" * (_natural("n", n) + 1), "010")


def _lang_stream_z(n, m) -> UPSet:
    # a_0 .. a_n, then b_{n+1} .. b_m, then c_m
    n, m = _pair(n, m)
    return UPSet("100" * (n + 1) + "010" * (m - n - 1) + "011", "0")


def _lang_even_y(n) -> UPSet:
    # the evens up to 2n, then the odd marker 2n + 1
    return UPSet("10" * _natural("n", n) + "11", "0")


def _lang_even_z(n, m) -> UPSet:
    # Y_n, then the later even 2m
    n, m = _pair(n, m)
    return UPSet("10" * n + "11" + "00" * (m - n - 1) + "1", "0")


_LANGUAGES = {
    "finite": _lang_finite,
    "cofinite": _lang_cofinite,
    "segment": _lang_segment,
    "naturals": lambda: NATURALS,
    "streamX": lambda: STREAM_X,
    "streamY": _lang_stream_y,
    "streamZ": _lang_stream_z,
    "evenX": lambda: EVEN_X,
    "evenY": _lang_even_y,
    "evenZ": _lang_even_z,
}

LANGUAGE_IDS = tuple(sorted(_LANGUAGES))


def language(lang_id: str, **params) -> UPSet:
    """Build a named language; rejects unknown ids and bad parameters."""
    try:
        build = _LANGUAGES[lang_id]
    except KeyError:
        raise ValueError(
            f"unknown language {lang_id!r}; known: {', '.join(LANGUAGE_IDS)}"
        ) from None
    try:
        return build(**params)
    except TypeError:
        raise ValueError(f"bad parameters for {lang_id!r}: {params!r}") from None


# ---------------------------------------------------------------------------
# families as infinite instance sweeps, small members first

def _finite_enum(k: int) -> UPSet:
    # k-th finite set via binary digits; enumerates all of them
    return from_mask(k)


def _finite_sets() -> Iterator[UPSet]:
    return map(_finite_enum, itertools.count())


def _tiers(base: UPSet, mid, top):
    yield base
    m = 1
    while True:
        yield mid(m - 1)
        for n in range(m):
            yield top(n, m)
        m += 1


# ---------------------------------------------------------------------------
# learners

def _fin_pos(d, ctx) -> Hypothesis:
    return hypothesis_for(from_mask(d.masks[0]))


def _cofinite(d, ctx) -> Hypothesis:
    return hypothesis_for(complement(from_mask(d.masks[1])))


def _maxpos(d, ctx) -> Hypothesis:
    # reference opponent: the label is just max(pos), so distinct
    # contents can share a label while the extension keeps growing
    ps = d.masks[0]
    if not ps:
        return hypothesis_for(EMPTY)
    return Hypothesis(ps.bit_length() - 1, from_mask(ps))


def _segment(sigma, ctx) -> Hypothesis:
    ns = sigma.masks[1]
    if not ns:
        return hypothesis_for(NATURALS)
    # the segment below the least negative: the bits under its lowest one
    return hypothesis_for(from_mask((ns & -ns) - 1))


def _n_or_fin(sigma, ctx) -> Hypothesis:
    ps, ns = sigma.masks
    if not ns:
        return hypothesis_for(NATURALS)
    return hypothesis_for(from_mask(ps))


_row_starts = lru_cache(maxsize=64)(to_mask)


def _tier_reader(x: UPSet, y, z, pair: int, end: int):
    """The learner that climbs a family's tiers X, Y_n, Z_{n,m}. X's
    members start the rows of its alphabet, X's period length is the row
    width. The boundary n is the least row whose start and the value
    `pair` past it are positive, the end m the least later row whose value
    `end` past its start is: bit patterns of the positives mask."""
    width = len(x.period)

    def fn(d, ctx) -> Hypothesis:
        ps = d.masks[0]
        # the row starts up to a power of two: made once per such width
        starts = _row_starts(x, 1 << ps.bit_length().bit_length())
        pairs = starts & ps & (ps >> pair)
        if not pairs:
            return hypothesis_for(x)
        r = (pairs & -pairs).bit_length() - 1
        ends = starts & (ps >> end) & (-2 << r)  # rows after the boundary
        if not ends:
            return hypothesis_for(y(r // width))
        return hypothesis_for(z(r // width,
                                ((ends & -ends).bit_length() - 1) // width))

    return fn


# markers: a_n with b_{n+1} = 3n + 4, then c_m = 3m + 2
_stream_mon = _tier_reader(STREAM_X, _lang_stream_y, _lang_stream_z, 4, 2)
# markers: 2n with the odd 2n + 1, then the even 2m
_even_dualmon = _tier_reader(EVEN_X, _lang_even_y, _lang_even_z, 1, 0)


def _fresh_label(d, ctx) -> Hypothesis:
    # memorizer: one odd label per distinct content, stable across runs,
    # from the Cantor pairing of the two masks
    p, n = d.masks
    return Hypothesis((p + n) * (p + n + 1) + 2 * n + 1, from_mask(p))


def _constant_empty(d, ctx) -> Hypothesis:
    return hypothesis_for(EMPTY)


def constant_learner(target: UPSet, name: str | None = None) -> Learner:
    """Learner that ignores all data and conjectures `target` forever."""
    h = hypothesis_for(target)
    return Learner(name or f"constant[{target}]", "Sd", lambda d, ctx: h)


# ---------------------------------------------------------------------------
# catalog metadata

@dataclass(frozen=True)
class FamilyEntry:
    family: str
    languages: tuple[str, ...]
    params: str
    learner: str
    note: str
    instances: Callable[[], Iterator[UPSet]] = field(compare=False, repr=False)


@dataclass(frozen=True)
class LearnerEntry:
    learner: str
    kind: str
    family: str
    satisfies: tuple[str, ...]
    violates: tuple[str, ...]
    note: str
    fn: Callable = field(compare=False, repr=False)


_FAMILY_ROWS = (
    FamilyEntry("finite", ("finite",), "elements: finite set", "fin_pos",
                "all finite languages", _finite_sets),
    FamilyEntry("cofinite", ("cofinite",), "remove: finite set", "cofinite",
                "complements of finite sets",
                lambda: map(complement, _finite_sets())),
    FamilyEntry("segments_or_N", ("naturals", "segment"), "n >= 0", "segment",
                "initial segments {0..n} plus the naturals",
                lambda: itertools.chain((NATURALS,), map(_lang_segment,
                                                         itertools.count()))),
    FamilyEntry("N_or_finite", ("naturals", "finite"), "elements: finite set",
                "n_or_fin", "the naturals plus all finite languages",
                lambda: itertools.chain((NATURALS,), _finite_sets())),
    FamilyEntry("streamXYZ", ("streamX", "streamY", "streamZ"), "n; n < m",
                "stream_mon",
                "streams over a_i=3i, b_i=3i+1, c_i=3i+2: all a; switch to b at n;"
                " stop with c_m",
                lambda: _tiers(STREAM_X, _lang_stream_y, _lang_stream_z)),
    FamilyEntry("evenXYZ", ("evenX", "evenY", "evenZ"), "n; n < m",
                "even_dualmon",
                "all evens; evens up to 2n plus odd marker 2n+1; plus one later"
                " even 2m",
                lambda: _tiers(EVEN_X, _lang_even_y, _lang_even_z)),
)

_LEARNER_ROWS = (
    LearnerEntry("fin_pos", "Sd", "finite",
                 ("cons", "smon", "mon_b", "caut", "bc", "ex"),
                 ("smon_d",),
                 "conjectures exactly the positive data", _fin_pos),
    LearnerEntry("cofinite", "Sd", "cofinite",
                 ("cons", "mon", "smon_d", "mon_b", "caut_fin", "bc", "ex"),
                 ("smon", "caut", "caut_inf", "caut_tar"),
                 "conjectures everything not yet denied", _cofinite),
    LearnerEntry("maxpos", "Sd", "finite",
                 ("cons", "smon", "bc"),
                 ("ex",),
                 "label max(pos) over extension pos; labels repeat across"
                 " growing contents", _maxpos),
    LearnerEntry("segment", "G", "segments_or_N",
                 ("cons", "smon_d", "bc", "ex"),
                 ("smon", "caut_fin", "caut_tar"),
                 "naturals until denied, then the segment below min(neg)",
                 _segment),
    LearnerEntry("n_or_fin", "G", "N_or_finite",
                 ("cons", "caut_inf", "bc", "ex"),
                 ("caut", "caut_fin"),
                 "naturals until denied, then the positive data", _n_or_fin),
    LearnerEntry("stream_mon", "G", "streamXYZ",
                 ("mon", "wmon", "bc", "ex"),
                 ("cons", "mon_d", "mon_b"),
                 "climbs X -> Y_n -> Z_{n,m} as markers appear", _stream_mon),
    LearnerEntry("even_dualmon", "G", "evenXYZ",
                 ("mon_d", "wmon_d", "bc", "ex"),
                 ("cons", "mon", "mon_b"),
                 "climbs X -> Y_n -> Z_{n,m}; dual-monotone but drops evens",
                 _even_dualmon),
    LearnerEntry("fresh_label", "Sd", "finite",
                 ("cons", "bc"),
                 ("ex",),
                 "memorizer: every new content gets a new label", _fresh_label),
    LearnerEntry("constant_empty", "Sd", "finite",
                 ("smon_b", "caut"),
                 ("bc",),
                 "never revises; learns only the empty language",
                 _constant_empty),
)

FAMILY_IDS = tuple(row.family for row in _FAMILY_ROWS)
LEARNER_IDS = tuple(sorted(row.learner for row in _LEARNER_ROWS))


def _row(rows, what: str, key, known):
    """The row of `rows` whose `what` field is `key`."""
    for row in rows:
        if getattr(row, what) == key:
            return row
    raise ValueError(f"unknown {what} {key!r}; known: {', '.join(known)}")


def family_instances(family: str, count: int = 8) -> tuple[UPSet, ...]:
    """Deterministic sample of `count` members of the family, small first."""
    count = _natural("count", count)
    instances = _row(_FAMILY_ROWS, "family", family, FAMILY_IDS).instances
    return tuple(itertools.islice(instances(), count))


def learner(learner_id: str) -> Learner:
    row = _row(_LEARNER_ROWS, "learner", learner_id, LEARNER_IDS)
    return Learner(learner_id, row.kind, row.fn)


def list_catalog(kind: str):
    """Rows describing the registered families or learners."""
    if kind == "families":
        return _FAMILY_ROWS
    if kind == "learners":
        return _LEARNER_ROWS
    raise ValueError(f"unknown catalog kind {kind!r}; use families or learners")
