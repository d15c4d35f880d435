"""Every name a library module imports is used in that module, every
module-level private name is used somewhere in the package, and every
error class of errors.py is raised somewhere in the package.

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


def unraised_errors(errors_source, sources):
    """Classes of errors_source derived from JointSpecError, directly or not,
    that no raise statement of sources names."""
    family = {"JointSpecError"}
    for node in ast.parse(errors_source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in family for b in node.bases):
            family.add(node.name)
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return sorted(family - {"JointSpecError"} - raised)


def test_the_check_finds_an_unraised_error():
    errors = ("class JointSpecError(Exception):\n    pass\n\n\n"
              "class A(JointSpecError):\n    pass\n\n\nclass B(A):\n    pass\n\n\n"
              "class C(JointSpecError):\n    pass\n\n\nclass D(ValueError):\n    pass\n")
    sources = ["raise A('x')\n", "import errors\nfrom errors import C\n\n\n"
               "def f():\n    raise errors.B\n"]
    assert unraised_errors(errors, sources) == ["C"]


def test_every_error_class_is_raised():
    assert unraised_errors((PACKAGE / "errors.py").read_text(),
                           [p.read_text() for p in SOURCES]) == []


def json_encoder_calls(source):
    """Line numbers of the json.dump and json.dumps calls of source, also
    under an alias or a from-import."""
    tree = ast.parse(source)
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions |= {a.asname or a.name for a in node.names if a.name in ("dump", "dumps")}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            if ((isinstance(f, ast.Attribute) and f.attr in ("dump", "dumps")
                 and isinstance(f.value, ast.Name) and f.value.id in modules)
                    or (isinstance(f, ast.Name) and f.id in functions)):
                lines.append(node.lineno)
    return sorted(lines)


def test_the_check_finds_a_json_encoder_call():
    source = ("import json\nimport json as j\nfrom json import dumps as d\n\n"
              "json.dumps(1)\nj.dump(1, f)\nd(1)\njson.loads('1')\nx.dumps(1)\n")
    assert json_encoder_calls(source) == [5, 6, 7]


@pytest.mark.parametrize("module", SOURCES, ids=lambda p: p.name)
def test_reports_have_one_encoder(module):
    # serialize._report_text writes every report; the stdlib encoder is its
    # test oracle (tests/oracles.py report_text)
    assert json_encoder_calls(module.read_text()) == []
