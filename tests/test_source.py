"""Static checks on the package source, with the standard library's ast."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "stablext"
# __init__.py is left out: every name it imports is re-exported
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _all_entries(tree):
    """The names listed in a module's ``__all__``."""
    return [e.value for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for e in node.value.elts]


def _unused_imports(tree):
    """Names a module imports but never reads and does not list in
    ``__all__`` (``from __future__`` imports are directives, not names)."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_all_entries(tree))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _unused_imports(tree) == []


def _top_level_names(tree):
    """Names a module binds at its top level: definitions, assignments and
    imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_are_defined(path):
    # a name deleted from a module must leave its __all__ too
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defined = _top_level_names(tree)
    assert [e for e in _all_entries(tree) if e not in defined] == []
