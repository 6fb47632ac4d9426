"""Modules of the package reach one another through public names only, no
module imports a name it never uses or keeps a private name it never reads,
one helper checks integer arguments, each error message has one writer,
each ``try`` translates an error of outside input, every error type has a
use, and annotations are written one way.

A module that imports another module's private name (``from .x import _y``)
couples itself to a detail that module may change; a public function that
does the same job is the one to call.  An import nothing references is dead
code that no linter in the test suite would otherwise catch.  An integer
check written out by hand beside ``chow.require_int`` is a second copy of
the rule and its message, free to drift from the first; so is any message
that two functions raise.  A ``try`` that steers ordinary input between two
paths is control flow by exception; each site that stays is listed, with
the error it turns into the package's own.  An error type that no module
raises, passes to a check or catches, and that no type derives from, is a
public name for a refusal the package no longer makes.  The CLI's foils,
``--dprime-diag`` and ``--variant intro``, are named nowhere in the library.
The package needs Python 3.10, which reads ``int | None`` at run time, so no
module imports ``typing`` for ``Union`` or ``Optional``.
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


def _templates(node):
    """The message texts an expression can make, each field written as ``{}``:
    both arms of a conditional, every pairing of a concatenation's parts."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        return ["".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)]
    if isinstance(node, ast.IfExp):
        return _templates(node.body) + _templates(node.orelse)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return [a + b for a in _templates(node.left) for b in _templates(node.right)]
    return ["{}"]


def scoped_nodes(path):
    """``(scope, node)`` for each node of a module, in source order; the scope
    names the enclosing function, a method as ``Class.method``."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
            else:
                yield from visit(child, scope)

    yield from visit(ast.parse(path.read_text(), filename=str(path)), "")


def raised_messages(path):
    """``(function, message, line)`` for each message a function raises: the
    first argument of the raised exception, as :func:`_templates` writes it."""
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
            for text in _templates(node.exc.args[0]):
                yield scope, text, node.lineno


def shared_messages(paths):
    """Each message that more than one function raises, mapped to the sorted
    ``file:function`` names of its writers."""
    writers = {}
    for path in paths:
        for func, text, _ in raised_messages(path):
            writers.setdefault(text, set()).add(f"{path.name}:{func}")
    return {text: sorted(names) for text, names in writers.items() if len(names) > 1}


def test_each_error_message_has_one_writer():
    # A message two functions write is one rule stated twice: route both through one helper.
    modules = sorted(SRC.glob("*.py"))
    # Not vacuous: the scan reads a message at every raise statement of the package.
    raises = {(path.name, node.lineno) for path in modules
              for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Raise)}
    assert raises and {(path.name, line) for path in modules
                       for _, _, line in raised_messages(path)} == raises
    assert shared_messages(modules) == {}


def test_the_shared_message_scan_sees_a_second_writer(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def one(k):\n"
        "    raise ValueError(f'k {k!r} is odd')\n"
        "def two(j):\n"
        "    if j:\n"
        "        raise KeyError(f'k {j} is odd')\n"
        "    raise ValueError(f'k {j} is even' if j else 'none' + f' at {j}')\n"
        "class Parser:\n"
        "    def one(self, error):\n"
        "        if error:\n"
        "            raise error\n"
        "        raise ValueError(f'{error}: {self}')\n"
        "    def two(self):\n"
        "        raise ValueError('none at ' + str(self))\n"
    )
    assert shared_messages([module]) == {
        "k {} is odd": ["sample.py:one", "sample.py:two"],
        "none at {}": ["sample.py:Parser.two", "sample.py:two"],
    }


# The constant text of ``chow.require_int``'s two messages,
# "<noun> must be an integer >= <lo>, got <value>" and "<noun> <value> outside [<lo>, <hi>]",
# and of a minimum written out by hand, "<noun> must be >= <lo>".
INTEGER_MESSAGES = (" must be an integer >= ", " must be >= ", " outside [")


def integer_messages(path):
    """``(file, function, line)`` for each message a function raises that
    writes one of ``require_int``'s two messages."""
    for func, text, lineno in raised_messages(path):
        if any(shape in text for shape in INTEGER_MESSAGES):
            yield path.name, func, lineno


def test_only_require_int_writes_the_integer_messages():
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in integer_messages(path)]
    assert [(name, func) for name, func, _ in found] == [("chow.py", "require_int")] * 2


def test_the_integer_message_scan_sees_a_hand_written_check(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "def check(k, n):\n"
        "    if not 1 <= k <= n:\n"
        "        raise ValueError(f'exponent {k!r} outside [1, {n}]')\n"
        "    if k < 2:\n"
        "        raise ValueError(f'k must be an integer >= 2, got {k!r}')\n"
        "    if n < 1:\n"
        "        raise ValueError(f'n must be >= 1, got {n!r}')\n"
        "    return f'{k} outside [1, {n}]'\n"
    )
    assert list(integer_messages(module)) == [
        ("sample.py", "check", 3), ("sample.py", "check", 5), ("sample.py", "check", 7)]


def family_member_reads(path):
    """``file:line`` for each read of a ``Family`` member as an attribute, ``Family.A``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "Family" and node.attr in ("A", "AP", "B", "BP", "C")):
            yield f"{path.name}:{node.lineno}"


def test_the_family_members_are_read_through_one_binding():
    # chow binds the five members once as plain names, which every module imports;
    # a second copy, or an attribute read in a rule, states the binding again.
    found = [line for path in sorted(SRC.glob("*.py")) for line in family_member_reads(path)]
    assert len(found) == 5 and len(set(found)) == 1 and found[0].startswith("chow.py:")


def test_the_family_member_scan_sees_each_read(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "_A, _C = Family.A, Family.C\n"
        "def rule(f):\n"
        "    return f is Family.BP or f.AP or Family.name\n"
    )
    assert list(family_member_reads(module)) == ["sample.py:1", "sample.py:1", "sample.py:3"]


def private_bindings(path):
    """``(name, read)`` for each private name (``_x``, not a dunder) a module
    binds at its top level, and whether the module reads it anywhere."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(name, name in read) for name in bound
            if name.startswith("_") and not name.endswith("__")]


def test_every_private_module_name_is_read_in_its_module():
    # A private helper that nothing in its module reads is one a removal left behind.
    bindings = [(path.name, name, read) for path in sorted(SRC.glob("*.py"))
                for name, read in private_bindings(path)]
    assert len(bindings) >= 40
    assert [(module, name) for module, name, read in bindings if not read] == []


def test_the_unread_private_name_scan_sees_a_left_over_helper(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "_USED, _LEFT = 1, 2\n"
        "__version__ = '0'\n"
        "_typed: int = 3\n"
        "def _helper():\n"
        "    return _USED\n"
        "def public():\n"
        "    _local = 4\n"
        "    return _local\n"
        "class _Gone:\n"
        "    pass\n"
    )
    assert private_bindings(module) == [
        ("_USED", True), ("_LEFT", False), ("_typed", False), ("_helper", False),
        ("_Gone", False)]


def try_sites(path):
    """``(file:function, caught)`` for each ``try`` statement of a module, where
    ``caught`` lists its handlers' exception types as written (a bare
    ``except`` as ``BaseException``)."""
    for scope, node in scoped_nodes(path):
        if isinstance(node, ast.Try):
            caught = []
            for handler in node.handlers:
                kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
                caught += [ast.unparse(k) if k else "BaseException" for k in kinds]
            yield f"{path.name}:{scope}", tuple(caught)


# Each ``try`` of the package: the function, and the error from outside it translates.
TRY_SITES = {
    "cli.py:_int_or_text": ("ValueError",),  # a non-integer flag, refused by the library
    "cli.py:run_command": ("SystemExit", "ValidationError", "UnsupportedError"),  # exit codes
    "cli.py:main": ("BrokenPipeError",),  # the reader of stdout left
    # malformed JSON, or a JSON integer over Python's digit limit
    "serialize.py:_load_json": ("json.JSONDecodeError", "RecursionError", "ValueError"),
    "chow.py:GradedClass.__init__": ("TypeError", "ValueError"),  # terms that are not pairs
}


def test_every_try_translates_an_outside_input_error():
    found = [site for path in sorted(SRC.glob("*.py")) for site in try_sites(path)]
    assert sorted(found) == sorted(TRY_SITES.items())


def test_the_try_scan_names_each_site_and_what_it_catches(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import json\n"
        "def load(text):\n"
        "    try:\n"
        "        return json.loads(text)\n"
        "    except (json.JSONDecodeError, RecursionError):\n"
        "        return None\n"
        "class Reader:\n"
        "    def read(self):\n"
        "        try:\n"
        "            return int(self)\n"
        "        except ValueError:\n"
        "            pass\n"
        "        except:\n"
        "            raise\n"
    )
    assert list(try_sites(module)) == [
        ("sample.py:load", ("json.JSONDecodeError", "RecursionError")),
        ("sample.py:Reader.read", ("ValueError", "BaseException")),
    ]


def dead_error_types(src):
    """The classes of ``src/errors.py`` that no other module of ``src`` names where an
    error is raised, passed to a call (a check's ``error``) or caught, and that no
    class of ``errors.py`` derives from."""
    tree = ast.parse((src / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    used = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    for path in sorted(src.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise):
                spots = [node.exc]
            elif isinstance(node, ast.Call):
                spots = node.args + [keyword.value for keyword in node.keywords]
            elif isinstance(node, ast.ExceptHandler):
                spots = [node.type]
            else:
                continue
            used |= {name.id for spot in spots if spot for name in ast.walk(spot)
                     if isinstance(name, ast.Name)}
    return [node.name for node in classes if node.name not in used]


def test_every_error_type_is_used():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert sum(isinstance(node, ast.ClassDef) for node in tree.body) >= 10  # not vacuous
    assert dead_error_types(SRC) == []


def test_the_dead_error_type_scan_sees_an_unused_class(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class Base(Exception):\n    pass\n"
        "class Raised(Base):\n    pass\n"
        "class Passed(Base):\n    pass\n"
        "class Caught(Base):\n    pass\n"
        "class Imported(Base):\n    pass\n"
        "class Dead(Base):\n    pass\n"
    )
    (tmp_path / "module.py").write_text(
        "from .errors import Caught, Imported, Passed, Raised\n"
        "def f(x, check):\n"
        "    try:\n"
        "        check(x, error=Passed)\n"
        "    except (Caught, KeyError):\n"
        "        raise Raised(f'{x}')\n"
        "    return Imported.__doc__\n"
    )
    assert dead_error_types(tmp_path) == ["Imported", "Dead"]


# The CLI's foils, each a number known to differ from the paper's: ``--dprime-diag N``
# scales every A'.A value and ``secant --variant intro`` shifts the closed sum.
FOILS = frozenset(("ap_a_diagonal", "dprime_diag", "variant"))


def foil_names(path):
    """``file:line: name`` for each identifier named after a foil that a module binds or
    reads: a name, an attribute, a parameter, a keyword argument, a definition or an
    import.  Text, docstrings too, is not an identifier."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        else:
            continue
        if name in FOILS:
            yield f"{path.name}:{node.lineno}: {name}"


def test_only_the_cli_names_a_foil():
    # The library states A'.A = 1 and the paper's exponent; the foils live in the CLI alone.
    library = [path for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"]
    assert len(library) >= 8
    assert [hit for path in library for hit in foil_names(path)] == []
    # Not vacuous: the scan sees the CLI read both of its foils.
    assert {hit.split(": ")[1] for hit in foil_names(SRC / "cli.py")} == {"dprime_diag", "variant"}


def test_the_foil_scan_sees_each_binding_and_read(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        '"""A docstring may name ap_a_diagonal and variant."""\n'
        "from .pairing import variant\n"
        "import json as dprime_diag\n"
        "def pair(x, ap_a_diagonal=1):\n"
        "    return x.dprime_diag, f(x, variant=2), 'dprime_diag'\n"
        "class variant:\n"
        "    pass\n"
    )
    assert sorted(foil_names(module)) == [
        "sample.py:2: variant", "sample.py:3: dprime_diag", "sample.py:4: ap_a_diagonal",
        "sample.py:5: dprime_diag", "sample.py:5: variant", "sample.py:6: variant"]


def typing_imports(path):
    """``file:line`` for each import of ``typing`` in a module, function-local ones too."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        if any(module.split(".")[0] == "typing" for module in modules):
            yield f"{path.name}:{node.lineno}"


def test_no_module_imports_typing():
    # One annotation style: ``X | Y``, as the rest of the package writes it.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    assert [line for path in modules for line in typing_imports(path)] == []


def test_the_typing_scan_sees_each_import_form(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from typing import Union\n"
        "import json, typing\n"
        "from .typing import local\n"
        "def f():\n"
        "    import typing as t\n"
        "    from typing_extensions import Self\n"
        "    return t, Self, local, json\n"
    )
    assert sorted(typing_imports(module)) == ["sample.py:1", "sample.py:2", "sample.py:5"]
