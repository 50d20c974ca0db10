"""Every function and class defined in ``symfact`` has a caller, and every import a user.

An AST scan of ``src/symfact`` and ``bench/`` that resolves names by
module.  These count as uses of the definition ``name`` in module M:

- M naming it, where the name is not a parameter or local of an enclosing
  scope (a nested definition is named through the scope that defines it);
- ``from .M import name`` (or ``from symfact.M import name``);
- ``alias.name``, where ``alias`` is bound to module M by an import;
- an entry of ``bench/tracer.py``'s ``SPANS`` or ``COUNTS``, read as its
  (module, attribute) pair.

An attribute on any other receiver counts for every definition of that
name in every module, because the operator modules are dispatched as
values (``verify.BASES``, ``cli._ops``) and methods are reached through
their instances; an attribute of a module outside the package counts for
none.  No use inside a definition's own body counts for it.  Dunder
methods are called by Python itself and are not scanned, and a method
overriding one of a base class from outside the package (``cli._Parser.error``
overrides ``argparse.ArgumentParser.error``) is called by that base.  Tests do not
count as callers: a definition only tests read is listed in ``ORACLES``,
with the reason it stays.  Since any attribute counts, a definition named
like a builtin method would count as used wherever that method is called,
so no definition may take such a name.  A module-level import must be
named in its own module (``from __future__`` aside) or listed in the
module's ``__all__``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "symfact"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

ORACLES: dict[str, str] = {}

# every method name of these builtin types; a call like ``list.extend`` names one
BUILTIN_METHODS = {name for t in (list, dict, str, tuple, set, int, bytes) for name in dir(t)}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _trees(*dirs: Path):
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions() -> dict[str, str]:
    """module.qualname -> bare name, for every def and class in the package."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                qualname = f"{prefix}{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[f"{module}.{qualname}"] = child.name
                walk(child, module, f"{qualname}.")
            else:
                walk(child, module, prefix)

    for path, tree in _trees(PACKAGE):
        walk(tree, path.stem, "")
    return found


def _package_module(dotted: str | None) -> str | None:
    """The package module a dotted module name is, if it is one."""
    head, _, stem = (dotted or "").partition(".")
    return stem if head == "symfact" and stem in MODULES else None


def _imported_from(node: ast.ImportFrom, module: str | None) -> str | None:
    """The dotted module an ImportFrom reads, with a relative one resolved inside the package."""
    if not node.level:
        return node.module
    return "symfact" + (f".{node.module}" if node.module else "") if module else None


def _aliases(tree: ast.Module, module: str | None) -> dict[str, str]:
    """Each name that every import in the file binding it binds to the same module: name -> dotted module."""
    bound: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, set()).add(alias.name if alias.asname else name)
        elif isinstance(node, ast.ImportFrom) and (source := _imported_from(node, module)):
            for alias in node.names:
                dotted = f"{source}.{alias.name}"
                if _package_module(dotted):
                    bound.setdefault(alias.asname or alias.name, set()).add(dotted)
    return {name: dotted for name, (dotted, *more) in bound.items() if not more}


def _bindings(scope: ast.AST) -> tuple[set[str], set[str]]:
    """The names a function, lambda, comprehension or class binds in its own scope, and those bound by a def or class."""
    if isinstance(scope, COMPREHENSIONS):
        targets = [g.target for g in scope.generators]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}, set()
    names, defs = set(), set()
    if not isinstance(scope, ast.ClassDef):
        args = scope.args
        names |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
            defs.add(node.name)
            continue
        if isinstance(node, (ast.Lambda, *COMPREHENSIONS)):
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return names, defs


class _Uses(ast.NodeVisitor):
    """The uses one file makes of package definitions.

    ``exact`` holds the module.qualname of each definition a use resolves
    to; ``named`` maps an attribute on any other receiver to the (module,
    enclosing definitions) of each place it is read, a use of every
    definition of that name outside those bodies.
    """

    def __init__(self, tree: ast.Module, module: str | None):
        self.module = module  # the package module scanned, or None for a bench file
        self.aliases = _aliases(tree, module)
        self.top = {node.name for node in tree.body if isinstance(node, DEFINITIONS)}
        self.scopes: list[tuple[ast.AST, str, set[str], set[str]]] = []  # node, qualname prefix, names, defs
        self.enclosing: tuple[str, ...] = ()
        self.exact: set[str] = set()
        self.named: dict[str, set[tuple[str | None, tuple[str, ...]]]] = {}
        self.visit(tree)

    def _use(self, module: str, qualname: str):
        if not (module == self.module and qualname in self.enclosing):
            self.exact.add(f"{module}.{qualname}")

    def _definition(self, node):
        for field, value in ast.iter_fields(node):
            if field != "body":
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        self.visit(child)
        qualname = f"{self.scopes[-1][1] if self.scopes else ''}{node.name}"
        outer, self.enclosing = self.enclosing, self.enclosing + (qualname,)
        self.scopes.append((node, f"{qualname}.", *_bindings(node)))
        for child in node.body:
            self.visit(child)
        self.scopes.pop()
        self.enclosing = outer

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def visit_Lambda(self, node):
        self.scopes.append((node, self.scopes[-1][1] if self.scopes else "", *_bindings(node)))
        self.generic_visit(node)
        self.scopes.pop()

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = visit_Lambda

    def visit_ImportFrom(self, node):
        if source := _package_module(_imported_from(node, self.module)):
            for alias in node.names:
                self._use(source, alias.name)

    def visit_Name(self, node):
        if not isinstance(node.ctx, ast.Load) or self.module is None:
            return
        for i in range(len(self.scopes) - 1, -1, -1):
            scope, prefix, names, defs = self.scopes[i]
            if isinstance(scope, ast.ClassDef) and i != len(self.scopes) - 1:
                continue  # a class body's names are not seen from the scopes inside it
            if node.id in names:
                if node.id in defs:
                    self._use(self.module, f"{prefix}{node.id}")
                return
        if node.id in self.top:
            self._use(self.module, node.id)

    def _dotted(self, node) -> str | None:
        """The dotted module an expression names through the file's import aliases, if it names one."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute) and (base := self._dotted(node.value)):
            return f"{base}.{node.attr}"
        return None

    def visit_Attribute(self, node):
        self.visit(node.value)
        if not isinstance(node.ctx, ast.Load):
            return
        receiver = self._dotted(node.value)
        if receiver is None:
            self.named.setdefault(node.attr, set()).add((self.module, self.enclosing))
        elif module := _package_module(receiver):
            self._use(module, node.attr)


def _tracer_targets() -> set[str]:
    """module.attribute of each ``bench/tracer.py`` span and count; the tracer is loaded, not installed."""
    spec = importlib.util.spec_from_file_location("_symfact_bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {f"{_package_module(modname)}.{attr}" for _, modname, attr in tracer.SPANS + tracer.COUNTS}


def _unused_definitions() -> list[str]:
    """The package definitions no use in ``src/symfact``, ``bench/`` or the tracer's targets resolves to."""
    used = _tracer_targets()
    named: dict[str, set] = {}
    for path, tree in _trees(PACKAGE, ROOT / "bench"):
        uses = _Uses(tree, path.stem if path.parent == PACKAGE else None)
        used |= uses.exact
        for attr, sites in uses.named.items():
            named.setdefault(attr, set()).update(sites)

    def read_as_attribute(q: str, name: str) -> bool:
        module, qualname = q.split(".", 1)
        return any(not (site == module and qualname in enclosing) for site, enclosing in named.get(name, ()))

    return sorted(
        q
        for q, name in _definitions().items()
        if q not in used and not read_as_attribute(q, name) and not _overrides_outside(q)
    )


def _overrides_outside(q: str) -> bool:
    """Whether module.Class.method overrides a method of a base class from outside the package, which calls it."""
    module, *classes, name = q.split(".")
    if len(classes) != 1:
        return False
    cls = getattr(importlib.import_module(f"symfact.{module}"), classes[0], None)
    return isinstance(cls, type) and any(
        name in vars(base) for base in cls.__mro__[1:] if base.__module__.split(".")[0] != "symfact"
    )


def test_every_definition_is_named_outside_the_tests():
    assert _unused_definitions() == sorted(ORACLES)


def test_names_resolve_by_scope_and_module():
    # a call inside its own body, a same-named parameter and another module's
    # attribute are not uses of this module's definitions; a nested def is
    # named through the scope that defines it
    source = """
from . import qops_schur as qs

def recursive(k):
    return recursive(k - 1)

def shadowed():
    pass

def caller(shadowed):
    return shadowed(), qs.recursive

def outer():
    def inner():
        pass
    return inner()
"""
    assert _Uses(ast.parse(source), "spectral").exact == {"qops_schur.recursive", "spectral.outer.inner"}


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
