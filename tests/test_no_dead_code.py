"""Every function and class defined in ``symfact`` has a caller, and every import a user.

An AST scan: a name defined by ``def`` or ``class`` anywhere in
``src/symfact`` must be named somewhere in ``src/symfact`` or ``bench/``,
as a name, an attribute, or a string constant that is a (dotted) name,
because ``bench/tracer.py`` names its targets in strings.  Dunder methods
are called by Python itself and are not scanned.  Tests do not count as
callers: a definition only tests read is listed in ``ORACLES``, with the
reason it stays.  Since any attribute counts, a definition named like a
builtin method would count as used wherever that method is called, so no
definition may take such a name.  A module-level import must be named in
its own module (``from __future__`` aside) or listed in the module's
``__all__``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symfact"

ORACLES: dict[str, str] = {}

# every method name of these builtin types; a call like ``list.extend`` names one
BUILTIN_METHODS = {name for t in (list, dict, str, tuple, set, int, bytes) for name in dir(t)}

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _trees(*dirs: Path):
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions() -> dict[str, str]:
    """module.qualname -> bare name, for every def and class in the package."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = f"{prefix}{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[f"{module}.{qualname}"] = child.name
                walk(child, module, f"{qualname}.")
            else:
                walk(child, module, prefix)

    for path, tree in _trees(PACKAGE):
        walk(tree, path.stem, "")
    return found


def _references() -> set[str]:
    names = set()
    for _path, tree in _trees(PACKAGE, ROOT / "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if _DOTTED.fullmatch(node.value):
                    names.update(node.value.split("."))
    return names


def test_every_definition_is_named_outside_the_tests():
    refs = _references()
    unused = sorted(q for q, name in _definitions().items() if name not in refs)
    assert unused == sorted(ORACLES)


def test_no_definition_is_named_like_a_builtin_method():
    clashes = sorted(q for q, name in _definitions().items() if name in BUILTIN_METHODS)
    assert clashes == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names a module imports at its top level and never uses or exports."""
    imported = []
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | exported]


def test_every_import_is_used_or_exported():
    unused = {path.stem: names for path, tree in _trees(PACKAGE) if (names := _unused_imports(tree))}
    assert unused == {}
