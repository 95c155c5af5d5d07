"""Every module of the package uses each name it imports, and every private
module-level function and class is used somewhere in the package."""
import ast
from pathlib import Path

import pytest

import dfmlcorr

MODULES = sorted(p for p in Path(dfmlcorr.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def _names_used(tree: ast.AST) -> list[str]:
    """Every name ``tree`` reads, as a variable, an attribute or an import."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
    return names


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level functions and classes of ``sources`` (module
    name -> source) that no module names outside their own definition."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = [n for tree in trees.values() for n in _names_used(tree)]
    orphans = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                if used.count(node.name) == _names_used(node).count(node.name):
                    orphans.append(f"{module}: {node.name} (line {node.lineno})")
    return orphans


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os.path\nfrom x import a, b as c\nc()\n"
    assert unused_imports(source) == ["a (line 3)", "os (line 2)"]
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unreferenced_private_functions_or_classes():
    sources = {p.name: p.read_text() for p in Path(dfmlcorr.__file__).parent.glob("*.py")}
    assert unreferenced_privates(sources) == []


def test_unreferenced_private_is_reported():
    a = ("def _called(): pass\n"
         "def _recursive(n): return _recursive(n - 1)\n"
         "class _Imported: pass\n"
         "def _by_attribute(): pass\n"
         "class _Unused:\n    def _method(self): return _Unused\n"
         "def __dunder__(): pass\n"
         "_called()\n")
    b = "from a import _Imported\nimport a\na._by_attribute()\n"
    assert unreferenced_privates({"a.py": a, "b.py": b}) == [
        "a.py: _recursive (line 2)", "a.py: _Unused (line 5)"]
