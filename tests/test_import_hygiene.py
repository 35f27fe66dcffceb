"""Import hygiene of the package modules.

Every name a package module imports is used in that module: a deletion
can remove the last use of an import, and this catches the leftover
without a linter dependency.  ``__init__.py`` is skipped there: its
imports are the package's re-exports.

No package module imports an underscore name from another package
module: a name two modules share is not private.

Every name a module lists in ``__all__`` is defined there, and every name
``__init__.py`` imports from a package module is defined in it: a
deletion can leave a stale export behind.
"""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "gapextremes"
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


def test_init_imports_resolve():
    missing = [
        f"{node.module}.{alias.name}"
        for node in _tree(PACKAGE / "__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in set(_defined_names(_tree(PACKAGE / f"{node.module}.py")))
    ]
    assert missing == []
