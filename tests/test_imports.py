"""What the package source may import and define, checked on its syntax tree.

The runtime is pure standard library, and the two resolution routes stay
independent: the Hesselink search reads neither the closed form nor the
report, and the closed form reads nothing of the Hesselink module.  Start-up
stays light: importing the CLI and building its parser pulls in none of
``dataclasses``, the ``inspect`` machinery it imports, ``typing`` and
``shutil``, and only the ``exceptional`` command loads the exceptional
table, whose rules neither the report module nor the CLI restates.  An
exception class exists only where some code handles it apart from the
others.  Only the partition gate itself and enumeration, whose
runs are valid by construction, reach the unchecked Partition constructor.
In the Hesselink module the image test and the degree exponent each have
one home, and each input rule is raised by one gate: the parsers check
syntax alone.  A value built positionally with ``tuple.__new__`` is built past
no gate, no module reads the expanded parts or defines the dual partition,
and every module parses under the oldest Python the package declares; the
command line prints the same under every local interpreter from 3.10 up.
"""

from __future__ import annotations

import ast
import builtins
import os
import shutil
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
    could import any of them, imports the CLI and builds its parser, and
    loads neither ``typing`` nor the ``shutil`` that argparse's help
    formatter imports to read the terminal width when given none."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import orbitres.cli; "
        "orbitres.cli.build_parser(); "
        "print(sorted({'dataclasses', 'inspect', 'typing', 'shutil'} & sys.modules.keys()))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_only_the_exceptional_command_loads_the_exceptional_table():
    """Without the site hooks, the parser, a report and a selfcheck leave
    ``orbitres.exceptional`` unloaded; the ``exceptional`` command loads it."""
    code = "\n".join([
        "import contextlib, io, sys",
        "sys.path.insert(0, sys.argv[1])",
        "import orbitres.cli as cli",
        "cli.build_parser()",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [cli.main(['report', 'so8', '3,2,2,1']), cli.main(['selfcheck', '4'])]",
        "    before = 'orbitres.exceptional' in sys.modules",
        "    codes.append(cli.main(['exceptional', 'E6', 'A3']))",
        "print(codes, before, 'orbitres.exceptional' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-S", "-c", code, str(SRC.parent)],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[0, 0, 0] False True"


def test_hesselink_reads_neither_resolution_nor_report():
    read = set()
    for level, dotted, name in imports(tree("hesselink")):
        read.update(dotted.split("."))
        if level and not dotted:  # from . import name
            read.add(name)
    assert not read & {"resolution", "report"}


def test_report_never_reads_the_odd_part_count():
    """The degree exponent u is half of +-(n_odd - q), computed in
    hesselink.py alone: report.py names no ``n_odd``, as an attribute, a
    name or a string."""
    named = {
        getattr(node, key, None)
        for node in ast.walk(tree("report"))
        for key in ("attr", "id", "value", "arg")
    }
    assert "n_odd" not in named


def test_report_names_nothing_of_the_exceptional_table():
    """report.py renders classical orbits only: no import, name, attribute,
    argument or string in it names the exceptional table."""
    named = {
        getattr(node, key, None)
        for node in ast.walk(tree("report"))
        for key in ("attr", "id", "value", "arg", "name", "module")
    }
    assert [n for n in named if isinstance(n, str) and "exceptional" in n.lower()] == []


def test_cli_restates_no_rule_of_the_table_or_the_sweep():
    """The exceptional command's algebra rule and its miss text live in
    orbitres.exceptional, the sweep's algebras in enumerate_lie_types and
    the labels in VeryEvenLabel: cli.py holds no ``.upper()``, no miss
    text, no sweep of its own and no list of labels."""
    source = (SRC / "cli.py").read_text()
    assert [text for text in (".upper()", "not in database", "_selfcheck_lie_types", '"II"')
            if text in source] == []


def functions_holding(module: ast.Module, hit) -> set:
    """The names of the functions of ``module`` holding a node for which
    ``hit(node, parent)`` holds (None for module level)."""
    found = set()

    def visit(node, parent, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if hit(node, parent):
            found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, node, function)

    visit(module, None, None)
    return found


def test_hesselink_reads_the_image_test_in_one_function():
    """In hesselink.py only ``polarizable`` reads j1, j0 and pairing_ok,
    the fields of the image test: the image bounds have one home."""
    module = tree("hesselink")
    readers = {field: functions_holding(module, lambda node, _: getattr(node, "attr", None) == field)
               for field in ("j1", "j0", "pairing_ok")}
    assert readers == dict.fromkeys(readers, {"polarizable"}), readers


def test_hesselink_computes_the_exponent_in_one_function():
    """In hesselink.py the odd-part count enters arithmetic only in
    ``admissible_runs``, as 2u = +-(n_odd - q): the degree exponent has one
    home."""
    arithmetic = (ast.BinOp, ast.UnaryOp, ast.AugAssign)
    found = functions_holding(tree("hesselink"), lambda node, parent: getattr(node, "attr", None)
                              == "n_odd" and isinstance(parent, arithmetic))
    assert found == {"admissible_runs"}, found


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
def test_no_module_regroups_the_parts(path):
    """A partition stores its runs, so no module groups parts into runs."""
    assert "groupby" not in {name for _, _, name in imports(ast.parse(path.read_text()))}


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


def test_only_from_runs_and_enumeration_skip_the_partition_gate():
    """``Partition._unchecked`` stores runs without checking them, so only
    ``from_runs`` (the gate, once its checks pass) and ``enumerate_orbits``
    (whose runs are valid by construction) name it, as an attribute, a
    name or a string: the parser, the CLI and the report cannot go round
    the gate."""
    found = set()

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if "_unchecked" in (getattr(node, "attr", None), getattr(node, "id", None),
                            getattr(node, "value", None), getattr(node, "arg", None)):
            found.add((module, function))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    assert found == {("orbits.py", "from_runs"), ("enumeration.py", "enumerate_orbits")}


def test_every_exception_class_is_caught_somewhere():
    """errors.py holds classes alone, exactly the ones that some except
    clause in the package names, and no other module subclasses an
    exception: a class no code handles apart from its base tells the caller
    nothing its message does not."""
    module = tree("errors")
    body = [node for node in module.body if not isinstance(node, ast.Expr)]  # the docstring
    assert all(isinstance(node, ast.ClassDef) for node in body)
    defined = {node.name for node in body}
    exceptions = defined | {name for name, value in vars(builtins).items()
                            if isinstance(value, type) and issubclass(value, BaseException)}
    caught = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(n.id for n in names if isinstance(n, ast.Name))
            elif isinstance(node, ast.ClassDef) and path.name != "errors.py":
                bases = {base.id for base in node.bases if isinstance(base, ast.Name)}
                assert not bases & exceptions, f"{path.name}: {node.name}"
    assert defined == caught - set(dir(builtins))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parses_under_the_oldest_supported_python(path):
    """``requires-python`` in pyproject.toml promises 3.10: every module
    parses with the 3.10 grammar."""
    ast.parse(path.read_text(), filename=path.name, feature_version=(3, 10))


PROBE = "import sys; print(sys.version_info >= (3, 10), '%d.%d' % sys.version_info[:2])"


def other_interpreters() -> dict[str, str]:
    """One interpreter per minor version from 3.10 up that starts, the
    running interpreter's version left out: the ``python3.N`` on PATH and
    pyenv's installed versions.  A pyenv shim for a version not selected
    refuses to run, so it is passed by."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which(f"python3.{minor}") for minor in range(10, 20)]
    candidates += sorted(map(str, pyenv.glob("versions/*/bin/python3")))
    running = "%d.%d" % sys.version_info[:2]
    found: dict[str, str] = {}
    for python in filter(None, candidates):
        try:
            probe = subprocess.run([python, "-S", "-c", PROBE], capture_output=True, text=True,
                                   timeout=30, check=False)
        except (OSError, subprocess.TimeoutExpired):
            continue
        supported, _, version = probe.stdout.strip().partition(" ")
        if probe.returncode == 0 and supported == "True" and version != running:
            found.setdefault(version, python)
    return found


# a selfcheck, a JSON report and a markdown atlas
PORTABLE = (["selfcheck", "10"], ["report", "so8", "4,4", "--label", "II", "--format", "json"],
            ["atlas", "so8", "--format", "md"])


def test_the_command_line_prints_the_same_under_every_supported_python():
    """``requires-python`` promises 3.10 and up beyond parsing: under every
    other local interpreter from 3.10 up that starts, ``-S -m orbitres``
    writes the same stdout, byte for byte, and exits with the same code as
    under the running one.  Every interpreter, the running one included,
    runs with ``-W error``, so a warning, such as a deprecation in a newer
    Python, fails the run.  Skipped when no such interpreter is found."""
    others = other_interpreters()
    if not others:
        pytest.skip("no other interpreter from 3.10 up starts here")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("ORBITRES_MAX_M", None)

    def run(python: str, argv: list[str]) -> tuple[int, bytes]:
        done = subprocess.run([python, "-S", "-W", "error", "-m", "orbitres", *argv], env=env,
                              capture_output=True, timeout=120, check=False)
        return done.returncode, done.stdout

    for argv in PORTABLE:
        expected = run(sys.executable, argv)
        assert expected[0] == 0 and expected[1], argv
        for version, python in sorted(others.items()):
            assert run(python, argv) == expected, (version, argv)


def gate_bypasses(sources: dict[str, str]) -> tuple[list[str], set[str]]:
    """The ``tuple.__new__`` uses in ``sources`` (module name -> text) that
    go round a gate, and the classes X that ``tuple.__new__(X, ...)`` calls
    build.

    ``cls`` stands for the class whose method holds the call.  When X
    defines ``__new__``, its gate, the call must be the value of that
    ``__new__``'s last statement, a return, so that every check runs first;
    otherwise X must be a class of the package that defines no ``__new__``.
    ``tuple.__new__`` taken as a value, where no call shows what it builds,
    is a bypass too."""
    modules = {name: ast.parse(text) for name, text in sources.items()}
    classes = {node.name: node for module in modules.values() for node in ast.walk(module)
               if isinstance(node, ast.ClassDef)}
    gates = {name: item for name, node in classes.items() for item in node.body
             if isinstance(item, ast.FunctionDef) and item.name == "__new__"}
    bypasses, built, called = [], set(), set()

    def is_tuple_new(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "__new__"
                and getattr(node.value, "id", None) == "tuple")

    def visit(node, where, owner, function):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
            function = node
        holder = getattr(function, "name", "a lambda" if function else "module level")
        site = f"{where}:{getattr(node, 'lineno', 0)} in {holder}"
        if isinstance(node, ast.Call) and is_tuple_new(node.func):
            called.add(node.func)
            first = node.args[0] if node.args else None
            named = owner if getattr(first, "id", None) == "cls" else getattr(first, "id", None)
            gate = gates.get(named)
            in_place = (function is gate and isinstance(gate.body[-1], ast.Return)
                        and gate.body[-1].value is node)
            if named not in classes:
                bypasses.append(f"{site}: tuple.__new__ of {ast.unparse(first) if first else '?'}")
            elif gate is not None and not in_place:
                bypasses.append(f"{site}: builds {named} round its gate")
            built.add(named)
        elif is_tuple_new(node) and node not in called:
            bypasses.append(f"{site}: tuple.__new__ taken as a value")
        for child in ast.iter_child_nodes(node):
            visit(child, where, owner, function)

    for name, module in modules.items():
        visit(module, name, None, None)
    return bypasses, built


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_positional_construction_bypasses_no_gate():
    """Every ``tuple.__new__`` call sits at the end of its class's own gate
    or builds a class with no gate: the gated types are built through their
    ``__new__`` alone, and the ungated ones positionally."""
    bypasses, built = gate_bypasses(package_sources())
    assert bypasses == []
    assert {"ClassicalOrbit", "AbelianGroupDescriptor", "ResolutionWitness",
            "PartitionProfile", "OrbitReport"} <= built


# (module, the text a bypass replaces, the bypass)
BYPASSES = {
    "enumerate_orbits-ClassicalOrbit": (
        "enumeration", "ClassicalOrbit(lie_type, Partition._unchecked(runs))",
        "tuple.__new__(ClassicalOrbit, (lie_type, Partition._unchecked(runs), None))"),
    "build_report-AbelianGroupDescriptor": (
        "report", "picard(orbit),", "tuple.__new__(AbelianGroupDescriptor, (0, (), None)),"),
    "gate-builds-before-its-check": (
        "resolution", "        if (q is None) == (pair_position is None):",
        "        tuple.__new__(cls, (q, pair_position))\n"
        "        if (q is None) == (pair_position is None):"),
    "an-alias": ("orbits", "_SL, _SP, _SO_EVEN = Family.SL, Family.SP, Family.SO_EVEN",
                 "_SL, _SP, _SO_EVEN, _NEW = Family.SL, Family.SP, Family.SO_EVEN, tuple.__new__"),
}


@pytest.mark.parametrize("name", BYPASSES)
def test_the_gate_pin_catches_a_bypass(name):
    """The pin above fails on a copy of the sources with one bypass put in."""
    module, old, new = BYPASSES[name]
    sources = package_sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    bypasses, _ = gate_bypasses(sources)
    assert len(bypasses) == 1 and module in bypasses[0], bypasses


def expansions(sources: dict[str, str]) -> list[str]:
    """The reads of an attribute ``parts`` and the definitions of a
    function ``dual`` in ``sources`` (module name -> text): the O(N)
    expansion of a partition and its O(d_1) dual."""
    found = []
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr == "parts":
                found.append(f"{name}:{node.lineno} reads .parts")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "dual":
                found.append(f"{name}:{node.lineno} defines dual")
    return found


def test_no_module_expands_the_parts():
    """Every rendering reads a partition's runs: no module reads
    ``Partition.parts``, which stays for callers outside the package, or
    defines a dual partition."""
    assert expansions(package_sources()) == []


# (module, the text an expansion replaces, the expansion)
EXPANSIONS = {
    "report_json-reads-the-parts": (
        "report", "    runs = partition.counts\n",
        "    runs = partition.counts\n    parts = partition.parts\n"),
    "partition-defines-dual": (
        "orbits", "    def compact_str(self) -> str:\n",
        "    def dual(self):\n        return ()\n\n    def compact_str(self) -> str:\n"),
}


@pytest.mark.parametrize("name", EXPANSIONS)
def test_the_expansion_pin_catches_a_read(name):
    """The pin above fails on a copy of the sources with one expansion put
    back."""
    module, old, new = EXPANSIONS[name]
    sources = package_sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    found = expansions(sources)
    assert len(found) == 1 and found[0].startswith(f"{module}:"), found


PARSERS = ("parse_algebra", "parse_partition")
SYNTAX = ("cannot parse", "empty partition text", "is too long")
# each input rule, named by a phrase of its message, and the one function that raises it
RULES = {"must be positive": "Partition.from_runs", "parts sum to": "ClassicalOrbit.__new__",
         "more digits than str() writes": "_integer"}


def rule_breaches(sources: dict[str, str]) -> list[str]:
    """How ``sources`` (module name -> text) break one gate per input rule:
    a rule of ``RULES`` raised in any function but its own (named with its
    class), or a parser that raises other than a syntax error, compares
    for order or calls ``str()``, as a range check or the digit rule's
    probe would."""
    homes: dict[str, set[str]] = {rule: set() for rule in RULES}
    found = []

    def visit(node, where, scope, function):
        if isinstance(node, ast.ClassDef):
            scope = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and function is None:
            function = f"{scope}.{node.name}" if scope else node.name
        site = f"{where}:{getattr(node, 'lineno', 0)} in {function}"
        if isinstance(node, ast.Raise) and node.exc is not None:
            text = "".join(n.value for n in ast.walk(node.exc)
                           if isinstance(n, ast.Constant) and isinstance(n.value, str))
            for rule in RULES:
                if rule in text:
                    homes[rule].add(function)
            if function in PARSERS and not any(phrase in text for phrase in SYNTAX):
                found.append(f"{site} raises {text!r}")
        if function in PARSERS:
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in node.ops):
                found.append(f"{site} compares for order")
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "str":
                found.append(f"{site} calls str()")
        for child in ast.iter_child_nodes(node):
            visit(child, where, scope, function)

    for name, text in sources.items():
        visit(ast.parse(text), name, None, None)
    found += [f"{rule!r} raised in {sorted(map(str, functions))}"
              for rule, functions in homes.items() if functions != {RULES[rule]}]
    return found


def test_each_input_rule_has_one_gate():
    """Positivity is raised in ``Partition.from_runs`` alone, the sum in
    ``ClassicalOrbit`` alone and the digit rule in ``_integer`` alone, which
    the ``LieType`` and run gates call; the parsers raise syntax errors
    only, and hold no range check."""
    assert rule_breaches(package_sources()) == []


# (module, the text a copied check replaces, the copy, the function it lands in)
COPIED_CHECKS = {
    "positivity-in-the-parser": (
        "orbits", "            runs.append((int(match.group(1)), int(match.group(2) or 1)))\n",
        "            value = int(match.group(1))\n"
        "            if value < 1:\n"
        "                raise OrbitresError(f'parts must be positive, got {value}')\n"
        "            runs.append((value, int(match.group(2) or 1)))\n", "parse_partition"),
    "exponent-in-the-parser": (
        "orbits", "        match = _TERM_RE.match(token.strip())\n",
        "        match = _TERM_RE.match(token.strip())\n"
        "        if match and match.group(2) and int(match.group(2)) < 1:\n"
        "            raise OrbitresError(f'exponent must be at least 1 in {token!r}')\n",
        "parse_partition"),
    "digits-in-the-parser": (
        "orbits", "        n = int(match.group(2))\n",
        "        n = int(match.group(2))\n        str((2 * n + 1) ** 2)\n", "parse_algebra"),
    "sum-in-the-command-line": (
        "cli", "    partition = parse_partition(args.partition)\n",
        "    partition = parse_partition(args.partition)\n"
        "    if partition.total != lie_type.m:\n"
        "        raise OrbitresError(f'parts sum to {partition.total}')\n", "_cmd_report"),
}


@pytest.mark.parametrize("name", COPIED_CHECKS)
def test_the_rule_pin_catches_a_copied_check(name):
    """The pin above fails on a copy of the sources with one check copied
    out of its gate, and each breach it reports names the copy's function."""
    module, old, new, function = COPIED_CHECKS[name]
    sources = package_sources()
    assert sources[module].count(old) == 1
    sources[module] = sources[module].replace(old, new)
    found = rule_breaches(sources)
    assert found and all(function in breach for breach in found), found
