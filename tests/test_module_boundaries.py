"""Modules of the package reach one another through public names only.

A module that imports another module's private name (``from .x import _y``)
couples itself to a detail that module may change; a public function that
does the same job is the one to call.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hilb2"


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
