"""Nothing in the package exists for the tests alone, and no module reads another's private names.

Every function and class defined under src/vietphon (methods included,
dunder methods excepted: the language calls those) must appear as a NAME
token in src/, tools/ or perfbench/ somewhere other than its own
definition.  The check reads names, not types: an attribute that nothing
reads, such as a dataclass field or an enum value member, is out of its
reach.

A "_"-prefixed name is private to the module that defines it: no package
module may import one from another package module, or read one as an
attribute of a package module it imported.
"""

import ast
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vietphon"
READERS = ("src", "tools", "perfbench")


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
        if not uses.get(name, set()) - {(path, line)}
    )
    assert unreached == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _package_import(node):
    """Whether an ImportFrom node imports from the package: relative, or from vietphon by name."""
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name


def test_no_module_reads_another_modules_private_names():
    reads = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        modules = set()  # local names bound to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _package_import(node):
                for alias in node.names:
                    if _is_private(alias.name):
                        reads.append(f"{path.relative_to(ROOT)}:{node.lineno}: {alias.name}")
                    if node.module is None or node.module == PACKAGE.name:  # from . import module
                        modules.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == PACKAGE.name:
                        modules.add(alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and _is_private(node.attr)):
                reads.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.value.id}.{node.attr}")
    assert reads == []
