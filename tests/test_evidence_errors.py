"""Every error the evidence layer raises on bad input, pinned in text.

Each row builds one piece of bad evidence and names the exact
`ValueError` text it must raise. Rows with two faults pin which one wins.
A row changes only when the wording or the order of the checks is
changed on purpose.
"""

import pytest

from inferlab.evidence import (
    DataSequence,
    DataSet,
    Example,
    Informant,
    parse_sequence,
)
from inferlab.hypothesis import hypothesis_for
from inferlab.interaction import KINDS, Learner, run
from inferlab.upset import EMPTY, NATURALS, parse

EVENS = parse("|10")


class _Listed:
    """An informant that shows the listed items as they are."""

    def __init__(self, *items):
        self.items = items

    def example_at(self, i):
        return self.items[i]


def _run(kind, *items):
    if kind == "It":
        fn = lambda h, ex, ctx: h
    elif kind == "Psd":
        fn = lambda d, n, ctx: hypothesis_for(EMPTY)
    else:
        fn = lambda d, ctx: hypothesis_for(EMPTY)
    return lambda: run(Learner("bad", kind, fn), _Listed(*items), len(items))


ROWS = [
    # DataSequence: every item's shape first, then one label per value
    ("seq-not-pair", lambda: DataSequence((5,)),
     "an example is a (value, label) pair, got 5"),
    ("seq-triple", lambda: DataSequence(((1, 1, 1),)),
     "an example is a (value, label) pair, got (1, 1, 1)"),
    ("seq-label-two", lambda: DataSequence(((3, 2),)),
     "label must be 0 or 1, got 2"),
    ("seq-label-bool", lambda: DataSequence(((3, True),)),
     "label must be 0 or 1, got True"),
    ("seq-label-float", lambda: DataSequence(((3, 1.0),)),
     "label must be 0 or 1, got 1.0"),
    ("seq-value-negative", lambda: DataSequence(((-1, 1),)),
     "example values are naturals, got -1"),
    ("seq-value-bool", lambda: DataSequence(((True, 1),)),
     "example values are naturals, got True"),
    ("seq-value-string", lambda: DataSequence((("3", 0),)),
     "example values are naturals, got '3'"),
    ("seq-label-before-value", lambda: DataSequence(((-1, 2),)),
     "label must be 0 or 1, got 2"),
    ("seq-two-labels", lambda: DataSequence(((4, 1), (4, 0))),
     "contradictory labels for 4"),
    ("seq-shape-before-labels",
     lambda: DataSequence(((4, 1), (4, 0), (5, 7))),
     "label must be 0 or 1, got 7"),
    # the value whose second label comes first, not the first value shown
    ("seq-first-second-label",
     lambda: DataSequence(((2, 0), (4, 1), (4, 0), (2, 1))),
     "contradictory labels for 4"),
    ("seq-repeat-is-fine-then-two-labels",
     lambda: DataSequence((Example(6, 1), Example(6, 1), Example(6, 0))),
     "contradictory labels for 6"),
    # DataSet: the same checks over the set
    ("set-not-pair", lambda: DataSet({7}),
     "an example is a (value, label) pair, got 7"),
    ("set-label-two", lambda: DataSet({(3, 2)}),
     "label must be 0 or 1, got 2"),
    ("set-two-labels", lambda: DataSet({(4, 1), (4, 0)}),
     "contradictory labels for 4"),
    ("set-shape-before-labels", lambda: DataSet({(4, 1), (4, 0), (-2, 0)}),
     "example values are naturals, got -2"),
    # Informant: head shape, then agreement with the target, then order
    ("head-not-pair", lambda: Informant(NATURALS, ((1,),)),
     "an example is a (value, label) pair, got (1,)"),
    ("head-negative", lambda: Informant(NATURALS, (-1,)),
     "an example is a (value, label) pair, got -1"),
    ("head-bool", lambda: Informant(NATURALS, (True,)),
     "an example is a (value, label) pair, got True"),
    ("head-label-two", lambda: Informant(NATURALS, ((3, 2),)),
     "label must be 0 or 1, got 2"),
    ("head-contradicts", lambda: Informant(NATURALS, ((4, 0),)),
     "head example Example(value=4, label=0) contradicts target |1"),
    ("head-positive-outside", lambda: Informant(EMPTY, (Example(0, 1),)),
     "head example Example(value=0, label=1) contradicts target |0"),
    # two labels for one value: the target test names the wrong one
    ("head-two-labels", lambda: Informant(NATURALS, ((4, 1), (4, 0))),
     "head example Example(value=4, label=0) contradicts target |1"),
    ("head-two-labels-wrong-first",
     lambda: Informant(NATURALS, ((4, 0), (4, 1))),
     "head example Example(value=4, label=0) contradicts target |1"),
    ("head-first-wrong-named", lambda: Informant(EVENS, ((5, 1), (3, 1))),
     "head example Example(value=5, label=1) contradicts target |10"),
    ("head-first-wrong-named-reversed",
     lambda: Informant(EVENS, ((3, 1), (5, 1))),
     "head example Example(value=3, label=1) contradicts target |10"),
    ("head-wrong-after-right",
     lambda: Informant(EVENS, (2, (3, 0), (2, 0), (1, 1))),
     "head example Example(value=2, label=0) contradicts target |10"),
    ("head-shape-before-target",
     lambda: Informant(NATURALS, ((4, 0), (5, 2))),
     "label must be 0 or 1, got 2"),
    ("order-unknown", lambda: Informant(NATURALS, (), "sorted"),
     "unknown order 'sorted'"),
    ("head-before-order",
     lambda: Informant(NATURALS, ((4, 0),), "sorted"),
     "head example Example(value=4, label=0) contradicts target |1"),
    # parse_sequence: every chunk's syntax first, then the evidence checks
    ("parse-bad-sign", lambda: parse_sequence("1:*"),
     "malformed example '1:*'"),
    ("parse-bad-value", lambda: parse_sequence("x:+"),
     "malformed example 'x:+'"),
    ("parse-negative", lambda: parse_sequence("-1:+"),
     "malformed example '-1:+'"),
    ("parse-no-sign", lambda: parse_sequence("1:+, 2"),
     "malformed example ' 2'"),
    # digits are ASCII only, as `format_sequence` writes them
    ("parse-superscript-digit", lambda: parse_sequence("\u00b2:+"),
     "malformed example '\u00b2:+'"),
    ("parse-arabic-indic-digit", lambda: parse_sequence("\u0661:+"),
     "malformed example '\u0661:+'"),
    ("parse-two-labels", lambda: parse_sequence("4:+,4:-"),
     "contradictory labels for 4"),
    ("parse-syntax-before-labels", lambda: parse_sequence("4:+,4:-,x"),
     "malformed example 'x'"),
]

# run: every mode reads the informant through one check, and the first
# bad example shown wins
for _kind in KINDS:
    ROWS += [
        (f"run-{_kind}-two-labels",
         _run(_kind, Example(4, 1), Example(4, 0)),
         "contradictory labels for 4"),
        (f"run-{_kind}-label-two", _run(_kind, (3, 2)),
         "label must be 0 or 1, got 2"),
        (f"run-{_kind}-not-pair", _run(_kind, 5),
         "an example is a (value, label) pair, got 5"),
        (f"run-{_kind}-negative", _run(_kind, (-1, 0)),
         "example values are naturals, got -1"),
        (f"run-{_kind}-labels-before-shape",
         _run(_kind, Example(4, 1), Example(4, 0), (3, 2)),
         "contradictory labels for 4"),
        (f"run-{_kind}-shape-before-labels",
         _run(_kind, (3, 2), Example(4, 1), Example(4, 0)),
         "label must be 0 or 1, got 2"),
    ]


@pytest.mark.parametrize("thunk, message", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_evidence_error_text(thunk, message):
    with pytest.raises(ValueError) as info:
        thunk()
    assert str(info.value) == message


def test_rows_have_distinct_ids():
    ids = [row[0] for row in ROWS]
    assert len(ids) == len(set(ids))
