"""The README's Library example runs against the current API, and two of the
values its comments state are the values it computes."""

import re
from pathlib import Path

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
