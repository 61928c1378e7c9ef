"""Every top-level import of the library, the tests, the demos and the
benchmark is read, every private helper of the library is read, and
every name the package exports exists."""

import ast
from pathlib import Path

import pytest

import afsimplex

ROOT = Path(__file__).parent.parent
LIBRARY = sorted((ROOT / "src/afsimplex").glob("*.py"))
SOURCES = [
    path
    for folder in ("src/afsimplex", "tests", "demos", "perfbench")
    for path in sorted((ROOT / folder).glob("*.py"))
]


def unread_imports(path):
    """Names bound by the module's top-level imports that it never reads.

    `from __future__` imports are skipped, and a package's __init__ reads
    the names it lists in __all__ (its re-exports).
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    if path.name == "__init__.py":
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read |= set(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def private_definitions(tree):
    """Names of the module-level functions, classes and assigned names,
    and of the methods, that start with one underscore (no dunders)."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unread_private_names(paths):
    """Private definitions in `paths` that no module among them reads as a
    name or an attribute."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths]
    read = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    defined = {name for tree in trees for name in private_definitions(tree)}
    return defined, sorted(defined - read)


def test_every_private_helper_of_the_library_is_read():
    defined, unread = unread_private_names(LIBRARY)
    assert len(defined) >= 40  # the walk found the helpers
    assert unread == []


def test_sources_were_found():
    assert len(SOURCES) >= 30


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unread_imports(path) == []


def test_every_export_resolves_once():
    assert len(set(afsimplex.__all__)) == len(afsimplex.__all__)
    assert [name for name in afsimplex.__all__ if not hasattr(afsimplex, name)] == []
