"""No module reaches into another's private names unless it is listed.

Every `from .module import _name` inside `src/inferlab` is read with
`ast` and compared with `ALLOWED`. A new reach-in across modules must be
added there, with the reason it cannot use a public name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "inferlab"

# (importing module, source module, private name)
ALLOWED = {
    # a run reads the informant's buffer to its horizon before stepping
    ("interaction", "evidence", "_read"),
    # a memo tree walks evidence one example at a time, growing the masks
    # and handing each prefix on as an O(1) view, as `prefixes` does
    ("combinators", "evidence", "_shown"),
    ("combinators", "evidence", "_view"),
    # the CLI prints one adversary row as the report would
    ("cli", "harness", "_adversary_row"),
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
