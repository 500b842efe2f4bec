"""The README's Library section runs as written, prints what its comments
say, and imports from ``orbitres`` exactly the names the package exports."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path
from types import ModuleType

import orbitres

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks() -> list[str]:
    text = README.read_text()
    section = text[text.index("## Library\n"):]
    section = section[: section.index("\n## ", 1)]
    return re.findall(r"```python\n(.*?)```", section, re.DOTALL)


def expected_prints(block: str) -> list[str]:
    """The comment after each one-line print call, in order."""
    return [
        line.split("  # ", 1)[1].strip()
        for line in block.splitlines()
        if line.strip().startswith("print(") and "  # " in line
    ]


def test_library_blocks_run_and_print_their_comments():
    blocks = library_blocks()
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == expected_prints(block), block


def test_exports_are_exactly_the_documented_names():
    documented = set()
    for block in library_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "orbitres" and node.level == 0:
                documented.update(alias.name for alias in node.names)
    assert len(documented) == 16
    assert sorted(documented) == orbitres.__all__
    public = {
        name
        for name, value in vars(orbitres).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == documented
