"""Every name a library module imports is used in that module, and every
module-level private name is used somewhere in the package.

Stdlib ast checks standing in for a linter.  The package __init__ is left
out of the import check: its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "jointspec"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source):
    """Names bound by import statements of source that nothing else mentions."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "import math\nfrom os import path, sep\nprint(path)\n"
    assert unused_imports(source) == [(1, "math"), (2, "sep")]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unused_private_names(sources):
    """(module, name) of each module-level _private function, class or
    constant of sources ({module: source}) that no source mentions outside
    its own definition."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    mentions = {}  # name -> ids of the Name and Attribute nodes that read it
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
                name = n.id if isinstance(n, ast.Name) else n.attr
                mentions.setdefault(name, set()).add(id(n))
    unused = []
    for mod, tree in trees.items():
        for node in tree.body:
            inside = {id(n) for n in ast.walk(node)}
            for name in _defined_names(node):
                if (name.startswith("_") and not name.startswith("__")
                        and not mentions.get(name, set()) - inside):
                    unused.append((mod, name))
    return sorted(unused)


def test_the_check_finds_an_unused_private_name():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _unused():\n    return _unused()\n\n\n"
             "_CONST = 1\n_TYPED: int = 2\n\n\nclass _K:\n    pass\n\n\nx = _used()\n",
        "b": "import a\nfrom a import _K\n\nprint(_K, a._TYPED)\n",
    }
    assert unused_private_names(sources) == [("a", "_CONST"), ("a", "_unused")]


def test_no_unused_private_names():
    assert unused_private_names({p.stem: p.read_text() for p in SOURCES}) == []
