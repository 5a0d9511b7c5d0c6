"""No module reaches into another's private names unless it is listed.

Every `from .module import _name` inside `src/inferlab` is read with
`ast` and compared with `ALLOWED`. A new reach-in across modules must be
added there, with the reason it cannot use a public name. A set's private
fields, whatever they are named, are read only inside `upset`, and an
evidence view's only inside `evidence`, but for `VIEW_FIELDS_ALLOWED`.
"""

import ast
from pathlib import Path

from inferlab.evidence import DataSequence
from inferlab.upset import UPSet

SRC = Path(__file__).resolve().parent.parent / "src" / "inferlab"

# (importing module, source module, private name)
ALLOWED = {
    # a memo tree walks evidence one example at a time, growing the masks
    # and handing each prefix on as an O(1) view, as `prefixes` does
    ("combinators", "evidence", "_shown"),
    ("combinators", "evidence", "_view"),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_imports() -> set[tuple[str, str, str]]:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found.update((path.stem, node.module, alias.name)
                             for alias in node.names if _private(alias.name))
    return found


def test_private_imports_are_the_allowed_ones():
    assert private_imports() == ALLOWED


def _named_outside(owner: str, fields: set[str]) -> set[tuple[str, str]]:
    """(module, field) for each of `fields` that a module other than
    `owner` names, as an attribute or a string."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in fields:
                found.add((path.stem, node.attr))
            if isinstance(node, ast.Constant) and node.value in fields:
                found.add((path.stem, node.value))
    return found


def test_only_upset_reads_the_private_fields_of_a_set():
    """The int representation of a set stays behind `upset`: no other
    module names one of its private slots, as an attribute or a string."""
    fields = {name for name in UPSet.__slots__ if _private(name)}
    assert fields
    assert _named_outside("upset", fields) == set()


# (reading module, private field of an evidence view)
VIEW_FIELDS_ALLOWED = {
    # a memo tree goes on from the last call's node only for a later prefix
    # of the same run, which it tells by the run the view reads
    ("combinators", "_run"),
}


def test_only_evidence_reads_the_private_fields_of_a_view():
    """What a sequence views, its run and its length, stays behind
    `evidence` but for the listed reads."""
    fields = {name for name in vars(DataSequence()) if _private(name)}
    assert fields == {"_run", "_n"}
    assert _named_outside("evidence", fields) == VIEW_FIELDS_ALLOWED
