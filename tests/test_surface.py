"""Nothing in the package exists for the tests alone.

Every function and class defined under src/vietphon (methods included,
dunder methods excepted: the language calls those) must appear as a NAME
token in src/, tools/ or perfbench/ somewhere other than its own
definition.  The check reads names, not types: an attribute that nothing
reads, such as a dataclass field or an enum value member, is out of its
reach.
"""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vietphon"
READERS = ("src", "tools", "perfbench")

#: defined but reached only from tests, on purpose
ALLOWED = {
    "load_vocab",  # the one reader of the `vocab -o` table, kept so the format has a documented inverse
}


def _definitions():
    """(name, path, line) of every function and class defined in the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    yield node.name, path, node.lineno


def _name_tokens():
    """(name, path, line) of every NAME token in the reading directories."""
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            with open(path, "rb") as fh:
                for token in tokenize.tokenize(fh.readline):
                    if token.type == tokenize.NAME:
                        yield token.string, path, token.start[0]


def test_every_definition_is_reached_outside_the_tests():
    uses: dict[str, set] = {}
    for name, path, line in _name_tokens():
        uses.setdefault(name, set()).add((path, line))
    definitions = list(_definitions())
    unreached = sorted(
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, path, line in definitions
        if name not in ALLOWED and not uses.get(name, set()) - {(path, line)}
    )
    assert unreached == []
    assert ALLOWED <= {name for name, _, _ in definitions}  # no stale exception
