"""Nothing in the package exists for the tests alone, and no module reads another's private names.

Three checks look for uses, in src/, tools/ or perfbench/ (the readers),
of what src/vietphon defines; a use under tests/ does not count.

- Functions and classes.  Each one defined in the package (methods
  included, dunder methods excepted: the language calls those) must appear
  as a NAME token in the readers somewhere other than its own definition.
  The package's __init__.py is not a reader here: a re-export is not a use.
- Parameters with a default.  Each one of a package function must be
  passed by some call in the readers: by keyword, through a ``**``
  argument, or by position (a method's self or cls not counted).  A
  positional parameter is passed only by an argument at its position with
  no ``*`` argument at or before that position; what a starred sequence
  holds is unknown, so ``f(*a, b)`` passes no parameter by position.  Calls
  are matched by the called name alone (a method by its attribute name,
  ``__init__`` by its class name), so functions of one name share their
  calls; other dunder methods are exempt.  Nor may every call pass it the
  same constant: one value in use is a constant, not a parameter.  A call
  that passes it anything but an ``ast.Constant``, passes it only through
  ``**``, or does not pass it, counts as a second value.
- Dataclass fields and ``property``/``cached_property`` members.  Each one
  of a package class must be read by some attribute load in the readers,
  matched by attribute name alone.  A write, ``+=`` included, is not a
  read, and neither is a read through ``dataclasses.fields`` or ``getattr``.

All three read names, not types, so a use of another definition with the
same name counts.  Enum value members and attributes set in ``__init__``
are out of their reach.

ALLOWED names the definitions and hooks that only the acceptance tests
call, pass or read, each with the criterion of tests/test_acceptance.py
that needs it.  An entry the checks no longer find fails too, so the list
cannot go stale.

A "_"-prefixed name is private to the module that defines it: no package
module may import one from another package module, or read one as an
attribute of a package module it imported.
"""

import ast
import functools
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vietphon"
READERS = ("src", "tools", "perfbench")

ALLOWED = {
    "edit_distance": "criterion 4 compares its S/D/I split with the brute-force oracle",
    "parse_syllable(stats=)": "criterion 9 counts each lexicon word's rule comparisons through it",
    "ParseResult.graphemes": "criterion 2 compares each golden word's matched written forms",
}


def _trees(*tops):
    """(path, module AST) of every Python file under the given directories."""
    for top in tops:
        for path in sorted(top.rglob("*.py")):
            yield path, ast.parse(path.read_text("utf-8"))


def _package_nodes():
    """(path, node) of every AST node of the package."""
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            yield path, node


def _definitions():
    """(name, path, line) of every function and class defined in the package."""
    for path, node in _package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, path, node.lineno


def _name_tokens():
    """(name, path, line) of every NAME token in the reading directories, the package's __init__.py left out."""
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == PACKAGE / "__init__.py":
                continue
            with open(path, "rb") as fh:
                for token in tokenize.tokenize(fh.readline):
                    if token.type == tokenize.NAME:
                        yield token.string, path, token.start[0]


def _unreached():
    """(name, place) of every function and class that no NAME token in the readers names but its definition."""
    uses: dict[str, set] = {}
    for name, path, line in _name_tokens():
        uses.setdefault(name, set()).add((path, line))
    for name, path, line in _definitions():
        if not uses.get(name, set()) - {(path, line)}:
            yield name, f"{path.relative_to(ROOT)}:{line}"


def test_every_definition_is_reached_outside_the_tests():
    assert sorted(f"{place}: {name}" for name, place in _unreached() if name not in ALLOWED) == []


@functools.cache
def _reader_nodes() -> tuple:
    """Every AST node of the reading directories."""
    return tuple(node for _, tree in _trees(*(ROOT / top for top in READERS)) for node in ast.walk(tree))


def _decorator_names(node):
    return {d.id if isinstance(d, ast.Name) else d.attr
            for d in (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
            if isinstance(d, (ast.Name, ast.Attribute))}


def _defaulted_parameters():
    """(call name, parameter, position or None, path, line) of every parameter with a default.

    The position counts the arguments a call writes, so a method's first
    parameter (self or cls) is not counted; a keyword-only parameter has none.
    """
    nodes = list(_package_nodes())
    methods = {id(member): cls for _, cls in nodes if isinstance(cls, ast.ClassDef) for member in cls.body}
    for path, node in nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        cls = methods.get(id(node))
        if name == "__init__" and cls is not None:
            name = cls.name
        elif name.startswith("__") and name.endswith("__"):
            continue
        positional = node.args.posonlyargs + node.args.args
        if cls is not None:
            positional = positional[1:]
        first = len(positional) - len(node.args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, index, path, arg.lineno
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, path, arg.lineno


def _positional_argument(call: ast.Call, position: int | None):
    """The argument a call writes at a position; None past its arguments or behind a * argument."""
    if (position is None or len(call.args) <= position
            or any(isinstance(arg, ast.Starred) for arg in call.args[:position + 1])):
        return None
    return call.args[position]


def _passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether a call passes a parameter: by keyword, through **, or by an argument at its position."""
    return (any(kw.arg in (None, parameter) for kw in call.keywords)
            or _positional_argument(call, position) is not None)


def _called_name(call: ast.Call):
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


@functools.cache
def _reader_calls() -> dict[str, list]:
    """Called name -> every call in the readers by that name."""
    calls: dict[str, list] = {}
    for node in _reader_nodes():
        if isinstance(node, ast.Call):
            calls.setdefault(_called_name(node), []).append(node)
    return calls


def _never_passed():
    """(key, place) of every defaulted parameter that no call in the readers passes."""
    for name, parameter, position, path, line in _defaulted_parameters():
        if not any(_passes(call, parameter, position) for call in _reader_calls().get(name, ())):
            yield f"{name}({parameter}=)", f"{path.relative_to(ROOT)}:{line}"


def _passed_constant(call: ast.Call, parameter: str, position: int | None):
    """(type, value) of the constant a call passes for a parameter; None for any other argument, or none."""
    argument = next((kw.value for kw in call.keywords if kw.arg == parameter), None)
    if argument is None:
        argument = _positional_argument(call, position)
    return (type(argument.value), argument.value) if isinstance(argument, ast.Constant) else None


def _one_valued():
    """(key, place) of every defaulted parameter that every call in the readers passes, each the same constant."""
    for name, parameter, position, path, line in _defaulted_parameters():
        values = {_passed_constant(call, parameter, position) for call in _reader_calls().get(name, ())}
        if len(values) == 1 and None not in values:
            yield f"{name}({parameter}=)", f"{path.relative_to(ROOT)}:{line}"


def test_passes_reads_star_and_double_star_arguments():
    def call(source):
        return ast.parse(source, mode="eval").body

    assert not _passes(call("f(*a, b)"), "x", 4)
    assert not _passes(call("f(*a, b)"), "x", 1)
    assert _passes(call("f(a, b)"), "x", 1)
    assert _passes(call("f(a, *b)"), "x", 0)
    assert _passes(call("f(**k)"), "x", None)
    assert _passes(call("f(x=1)"), "x", None)
    assert _passes(call("f(**k)"), "x", 0) and _passes(call("f(x=1)"), "x", 0)
    assert not _passes(call("f(y=1)"), "x", None)


def _unread_attributes():
    """(key, place) of every dataclass field or property that no attribute load in the readers reads."""
    reads = {node.attr for node in _reader_nodes()
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for path, cls in _package_nodes():
        if not isinstance(cls, ast.ClassDef):
            continue
        dataclass = "dataclass" in _decorator_names(cls)
        for node in cls.body:
            if dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            elif (isinstance(node, ast.FunctionDef)
                    and _decorator_names(node) & {"property", "cached_property"}):
                name = node.name
            else:
                continue
            if name not in reads:
                yield f"{cls.name}.{name}", f"{path.relative_to(ROOT)}:{node.lineno}"


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    assert sorted(f"{place}: {key}" for key, place in _never_passed() if key not in ALLOWED) == []


def test_no_defaulted_parameter_takes_one_constant_outside_the_tests():
    assert sorted(f"{place}: {key}" for key, place in _one_valued() if key not in ALLOWED) == []


def test_every_field_and_property_is_read_outside_the_tests():
    assert sorted(f"{place}: {key}" for key, place in _unread_attributes() if key not in ALLOWED) == []


def test_every_allowed_hook_is_still_unused_outside_the_tests():
    found = {key for key, _ in (*_unreached(), *_never_passed(), *_one_valued(), *_unread_attributes())}
    assert sorted(set(ALLOWED) - found) == []


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _package_import(node):
    """Whether an ImportFrom node imports from the package: relative, or from vietphon by name."""
    return node.level > 0 or (node.module or "").split(".")[0] == PACKAGE.name


def test_no_module_reads_another_modules_private_names():
    reads = []
    for path, tree in _trees(PACKAGE):
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
