"""The README's Library example runs against the current API, and two of the
values its comments state are the values it computes.  Its table of removed
names agrees with ``hilb2.__all__``: a removed name is not public and the rest
of the README does not name it as current, and each type a replacement names
is public."""

import re
from pathlib import Path

import hilb2

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def library_block() -> str:
    section = README.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block in the Library section"
    return match.group(1)


def commented_line(block: str, code: str) -> str:
    """The comment on the one line of ``block`` that starts with ``code``."""
    (line,) = [line for line in block.splitlines() if line.startswith(code)]
    return line.split("#", 1)[1].strip()


def test_library_example_runs_and_computes_its_comments():
    block = library_block()
    namespace: dict = {}
    exec(block, namespace)
    assert namespace["chow_rank"](2, 2) == 3 == int(commented_line(block, "chow_rank(2, 2)"))
    assert str(namespace["X"]) == commented_line(block, "X = to_ms(") == "2*B'_{1,1} - 4*C_{1,1}"


def removed_name_rows(readme: str) -> list[tuple[str, str, str]]:
    """``(row, removed cell, replacement cell)`` for each row of the removed-names table."""
    table = readme.split("\n| removed | replacement |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    rows = []
    for row in table.splitlines():
        removed, replacement = row.strip("|").split(" | ", 1)
        rows.append((row, removed, replacement))
    return rows


def bare_names(cell: str) -> list[str]:
    """The code spans of ``cell`` that are a bare identifier of two or more characters;
    a one-letter span is a placeholder, such as the ``d`` of a call."""
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]+)`", cell)


# A remark in parentheses after a removed name, such as the call that raised it.
PARENTHETICAL = r" \((?:[^()`]|`[^`]*`)*\)"


def readme_drift(readme: str, public) -> list[str]:
    """Each removed bare name that is public or that the README names outside its own
    row, bare or in prose, and each CamelCase name of a replacement that is not public."""
    found = []
    for row, removed, replacement in removed_name_rows(readme):
        rest = readme.replace(row, "")
        prose = re.sub(r"`[^`]*`", "", rest)
        for name in bare_names(re.sub(PARENTHETICAL, "", removed)):
            if name in public:
                found.append(f"{name} is removed and public")
            if f"`{name}`" in rest or re.search(rf"\b{name}\b", prose):
                found.append(f"{name} is removed and named outside its row")
        for name in bare_names(replacement):
            if re.fullmatch(r"[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*", name) and name not in public:
                found.append(f"{name} replaces a removed name and is not public")
    return found


def test_the_removed_names_table_agrees_with_the_api():
    assert len(removed_name_rows(README)) >= 20
    assert readme_drift(README, set(hilb2.__all__)) == []


def test_the_drift_check_sees_each_kind_of_drift():
    readme = (
        "Uses `Kept` and `Gone` and Stale.\n\n"
        "| removed | replacement |\n|---|---|\n"
        "| `Gone` (raised by `Kept(x)` and `helper`) | `Kept` |\n"
        "| `Stale`, `old(d)` | `Missing`, `helper(x)` |\n"
        "| `Public` | `d` |\n\n"
        "After the table, `Stale(1)` is a call, not the bare name.\n"
    )
    assert readme_drift(readme, {"Kept", "Public"}) == [
        "Gone is removed and named outside its row",
        "Stale is removed and named outside its row",
        "Missing replaces a removed name and is not public",
        "Public is removed and public",
    ]
