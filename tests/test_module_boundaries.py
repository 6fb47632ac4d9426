"""Modules of the package reach one another through public names only, and
no module imports a name it never uses.

A module that imports another module's private name (``from .x import _y``)
couples itself to a detail that module may change; a public function that
does the same job is the one to call.  An import nothing references is dead
code that no linter in the test suite would otherwise catch.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hilb2"
TESTS = ROOT / "tests"


def private_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):  # function-local imports too
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "hilb2":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                where = "." * node.level + (node.module or "")
                yield f"{path.name}:{node.lineno}: from {where} import {alias.name}"


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    assert [line for path in modules for line in private_imports(path)] == []


def unused_imports(path):
    """``file:line: name`` for each name a module imports and never references;
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, lineno in sorted(imported.items(), key=lambda item: item[1]):
        if name not in used:
            yield f"{path.name}:{lineno}: {name}"


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(modules) >= 25
    assert [line for path in modules for line in unused_imports(path)] == []


def test_the_unused_import_scan_sees_an_unused_name(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as read\n"
        "print(os.sep, read)\n"
    )
    assert list(unused_imports(module)) == ["sample.py:3: dumps"]
