"""What the package source may import, checked on its syntax tree.

The runtime is pure standard library, and the two resolution routes stay
independent: the Hesselink search reads neither the closed form nor the
report, and the closed form reads nothing of the Hesselink module.  Start-up
stays light: importing the CLI pulls in neither ``dataclasses`` nor the
``inspect`` machinery it imports.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "orbitres"
CLOSED_FORM = ("closed_form_verdict",)


def tree(name: str) -> ast.Module:
    return ast.parse((SRC / f"{name}.py").read_text())


def imports(module: ast.Module):
    """(level, dotted module, imported name) for every import statement."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name, None
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.level, node.module or "", alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_runtime_imports_only_the_standard_library(path):
    outside = [
        dotted
        for level, dotted, _ in imports(ast.parse(path.read_text()))
        if level == 0 and dotted.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert "dataclasses" not in {
        dotted.split(".")[0] for level, dotted, _ in imports(ast.parse(path.read_text())) if not level
    }


def test_cli_start_up_imports_neither_dataclasses_nor_inspect():
    """A fresh interpreter, without the site hooks (-S) whose .pth files
    could import either, imports the CLI and builds its parser."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import orbitres.cli; "
        "orbitres.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_hesselink_reads_neither_resolution_nor_report():
    read = set()
    for level, dotted, name in imports(tree("hesselink")):
        read.update(dotted.split("."))
        if level and not dotted:  # from . import name
            read.add(name)
    assert not read & {"resolution", "report"}


def test_closed_form_reads_nothing_from_hesselink():
    """The closed-form functions, and every module function they reach,
    name nothing that resolution.py imports from the Hesselink module."""
    module = tree("resolution")
    from_hesselink = set()
    for level, dotted, name in imports(module):
        if dotted.split(".")[-1] == "hesselink":
            from_hesselink.add(name)
        elif level and not dotted and name == "hesselink":
            from_hesselink.add("hesselink")
    assert from_hesselink  # the dispatcher does read the search
    functions = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), list(CLOSED_FORM)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names = {n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)}
        assert not names & from_hesselink, name
        todo.extend(names & functions.keys())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_name_crosses_modules(path):
    """A name with a leading underscore stays in its module: no module
    imports one from a sibling."""
    private = [
        f"{dotted}.{name}"
        for level, dotted, name in imports(ast.parse(path.read_text()))
        if level and name and name.startswith("_")
    ]
    assert private == []
