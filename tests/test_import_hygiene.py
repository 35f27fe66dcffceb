"""Import hygiene of the package modules.

Every name a package module imports is used in that module: a deletion
can remove the last use of an import, and this catches the leftover
without a linter dependency.  ``__init__.py`` imports nothing from the
package: names are imported from the module that defines them, so the
package root is no second place a name must be kept alive.

No package module imports an underscore name from another package
module: a name two modules share is not private.

Every name a module lists in ``__all__`` is defined there: a deletion
can leave a stale export behind.

Every top-level function and class of a package module is reached from
the program or the benchmark: some package module (``__init__.py`` aside)
or ``perfbench`` script names it, reads it as an attribute, imports it, or
holds it as a dotted component of a string (the tracer's targets).  Its
own definition and its module's ``__all__`` do not count, so code that
only tests use belongs in ``tests/``.  A method or property (dunder
methods aside) is reached only when a package module (``__init__.py``
aside) or a ``perfbench`` script reads it as an attribute, or a
``perfbench`` string names it.
"""
import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gapextremes"
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))
FILES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in FILES if p.name != "__init__.py"]


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported_names(tree)) - used) == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_private_import_across_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "gapextremes")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _defined_names(tree: ast.Module):
    """Names bound at the top level of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _imported_names(ast.Module(body=[node], type_ignores=[]))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined(path):
    tree = _tree(path)
    exported = [
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    ]
    assert sorted(set(exported) - set(_defined_names(tree))) == []


def test_init_imports_nothing():
    imports = [
        ast.unparse(node)
        for node in ast.walk(_tree(PACKAGE / "__init__.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports == []


@functools.cache
def _reached() -> tuple[frozenset, frozenset]:
    """(names, attributes) the package modules and the benchmark scripts
    refer to: every name, and those read as an attribute or held as a
    dotted component of a benchmark string."""
    names, attributes = set(), set()
    for path in [*MODULES, *PERFBENCH]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif path in PERFBENCH and isinstance(node, ast.Constant) and isinstance(node.value, str):
                attributes.update(node.value.split("."))
    return frozenset(names | attributes), frozenset(attributes)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_reached(path):
    defined = [
        node.name
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    assert sorted(set(defined) - _reached()[0]) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_method_is_reached(path):
    methods = [
        (node.name, item.name)
        for node in _tree(path).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("__")
    ]
    assert [f"{cls}.{name}" for cls, name in methods if name not in _reached()[1]] == []
