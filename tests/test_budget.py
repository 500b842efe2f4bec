"""Every input the command line or the library answers is answered within
a budget: in 1 GiB of address space and in under a minute.

One child process limits its own address space with
``resource.setrlimit(RLIMIT_AS)`` and runs each input in turn, with stdout
counted and dropped.  A command runs ``orbitres.cli.main``, with
``ORBITRES_MAX_M`` set as the input asks (or unset); a library call builds
a ``LieType`` and a run list itself and runs ``validate_orbit``,
``build_report`` and ``report_text`` or ``report_json``, and counts as exit
2 when it raises ``OrbitresError`` (4 for ``InternalInvariantError``).  The
child reports each input's exit code, or the exception that escaped (an
exit 1 of the command line), its wall time and the bytes it wrote.  Each
input must exit 0 or 2: answered, or refused before its first byte; it
must take under ``SECONDS``; and the child's peak resident size must stay
under three quarters of the limit.
The inputs are long partitions and large parts that the JSON screen passes,
some it refuses, text reports, labels, atlases in every format, selfchecks,
the exceptional table, and caps that are no integer or below m.  Hypothesis
draws more: reports of compact partitions with huge values and exponents,
their algebras named in prefix or Cartan form, in mixed case, with up to
a few thousand digits, in text or JSON, with label I, II or none; and
atlases and selfchecks of m <= 12 under a cap of 0 to 30; and library
calls whose values, counts and m have up to 6000 digits, are zero or
negative, and whose sums hit m or miss it.  A longer sweep, from the
largest part the screen passes to 2000 drawn inputs of each kind, runs
with ``pytest -m sweep``.
"""

from __future__ import annotations

import json
import operator
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from orbitres import Family
from orbitres.enumeration import enumerate_lie_types

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT = 1 << 30
SECONDS = 60

CHILD = """
import io, json, os, resource, sys, time
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, sys.argv[1])
import orbitres.cli as cli
from orbitres import Family, LieType, build_report, validate_orbit
from orbitres.errors import InternalInvariantError, OrbitresError
from orbitres.orbits import Partition
from orbitres.report import report_json, report_text


class Counted(io.RawIOBase):
    written = 0

    def writable(self):
        return True

    def write(self, data):
        self.written += len(data)
        return len(data)


def command(cap, argv):
    if cap is None:
        os.environ.pop("ORBITRES_MAX_M", None)
    else:
        os.environ["ORBITRES_MAX_M"] = cap
    return cli.main(argv)


def call(family, m, runs, form):
    # ints come in hex, which the str() digit limit does not bind
    try:
        lie_type = LieType(Family(family), int(m, 16))
        partition = Partition.from_runs([(int(value, 16), int(count, 16)) for value, count in runs])
        report = build_report(validate_orbit(lie_type, partition))
        if form == "json":
            report_json(report, sys.stdout)
        else:
            sys.stdout.write(report_text(report))
    except InternalInvariantError:
        return 4
    except OrbitresError:
        return 2
    return 0


results, stdout = [], sys.stdout
for given in json.loads(sys.stdin.read()):
    sink = Counted()
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    start = time.perf_counter()
    try:
        outcome = call(*given) if len(given) == 4 else command(*given)
    except SystemExit as exc:
        outcome = exc.code
    except BaseException as exc:
        outcome = repr(exc)
    finally:
        sys.stdout.close()
        sys.stdout = stdout
    results.append([outcome, time.perf_counter() - start, sink.written])
print(json.dumps([results, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024]))
"""


# A command is (ORBITRES_MAX_M or None for unset, argv); a library call is
# (family value, m, runs, "text" or "json"), its ints written in hex.
Given = tuple


def budgeted(inputs: list[Given]) -> dict[str, object]:
    """Each input's outcome, keyed by its text (``key``), in one child
    process limited to ``LIMIT`` bytes of address space: its exit code, or
    the exception it raised.  Each takes under ``SECONDS``; one that exits 2
    writes nothing to stdout and one that exits 0 writes something.  The
    child's peak resident size stays under three quarters of the limit: a
    text the size of the partition or of the "s" map is held once, beside
    its encoded bytes, never joined into a second copy."""
    child = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(LIMIT)],
                           input=json.dumps(inputs), capture_output=True, text=True, check=False,
                           timeout=600)
    assert child.returncode == 0 and "Traceback" not in child.stderr, child.stderr
    results, peak = json.loads(child.stdout)
    assert peak < LIMIT * 3 // 4, peak
    results = dict(zip(map(key, inputs), results))
    assert {text: seconds for text, (_, seconds, _) in results.items() if seconds >= SECONDS} == {}
    assert {text: written for text, (outcome, _, written) in results.items()
            if (outcome == 2) != (written == 0)} == {}
    return {text: outcome for text, (outcome, _, _) in results.items()}


def key(given: Given) -> str:
    if len(given) == 4:
        family, m, runs, form = given
        return f"{form} report of {family} m={m} runs={','.join(map(':'.join, runs))}"
    cap, argv = given
    return " ".join(argv) if cap is None else f"ORBITRES_MAX_M={cap} {' '.join(argv)}"


def report(algebra: str, partition: str, *label: str) -> tuple[None, tuple[str, ...]]:
    """A JSON report, with no cap set."""
    return None, ("report", algebra, partition, "--format", "json", *label)


def plain(*argv: str) -> tuple[None, tuple[str, ...]]:
    return None, argv


def capped(cap: str, *argv: str) -> tuple[str, tuple[str, ...]]:
    return cap, argv


def library(family: Family, m: int, runs, form: str = "text") -> Given:
    """A library report of the runs, (value, count) pairs, under m."""
    return (family.value, hex(m), tuple((hex(value), hex(count)) for value, count in runs), form)


def algebra_name(draw, family: Family, m: int) -> str:
    """The algebra of size m named by its prefix or its Cartan letter and
    rank, each letter in either case."""
    word, n = ((family.prefix, m) if draw(st.booleans())
               else (family.letter, m - 1 if family is Family.SL else m // 2))
    return "".join(draw(st.sampled_from((c.lower(), c.upper()))) for c in word) + str(n)


def huge(digits: int) -> st.SearchStrategy[int]:
    """A positive int small or huge, of up to ``digits`` digits."""
    return st.one_of(st.integers(1, 40), st.integers(1, 1 << 26), st.integers(1, 10 ** 12),
                     st.integers(1, digits).flatmap(lambda width: st.integers(1, 10 ** width)))


def wide(low: int, high: int) -> st.SearchStrategy[int]:
    """An int of ``low`` to ``high`` digits."""
    return st.integers(low, high).flatmap(
        lambda width: st.integers(10 ** (width - 1), 10 ** width - 1))


def valid_runs(draw, family: Family, size: st.SearchStrategy[int]) -> dict[int, int]:
    """Up to four runs, values descending, valid in ``family``: the parts of
    the constrained parity come in pairs."""
    runs = draw(st.dictionaries(size, size, min_size=1, max_size=4))
    parity = family.constrained_parity
    return {value: count + count % 2 if value % 2 == parity else count
            for value, count in sorted(runs.items(), reverse=True)}


@st.composite
def report_inputs(draw) -> tuple[None, tuple[str, ...]]:
    """A text or JSON report of a compact partition of up to four runs,
    each value and exponent small or huge, valid in its family.  Half name
    an algebra of size m, their sum, with terms of up to 2100 digits, so
    that m has fewer than the 4300 digits ``int`` reads.  The others name
    one of an m drawn on its own, of up to 2100 digits, which the sum
    misses, above or below, with terms of up to 2100 digits or of 2150 to
    4300, so that a sum can have more digits than ``str`` writes.  The
    label is I, II or none, needed or not."""
    family = draw(st.sampled_from(Family))
    hit = draw(st.booleans())
    runs = valid_runs(draw, family, huge(2100) if hit else st.one_of(huge(2100), wide(2150, 4300)))
    m = sum(value * count for value, count in runs.items()) if hit else draw(huge(2100))
    partition = ",".join(f"{value}^{count}" for value, count in runs.items())
    label = draw(st.sampled_from(((), ("--label", "I"), ("--label", "II"))))
    return None, ("report", algebra_name(draw, family, m), partition, "--format",
                  draw(st.sampled_from(("text", "json"))), *label)


@st.composite
def library_inputs(draw) -> Given:
    """A library report in text or JSON, of one of three shapes: valid
    runs of values and counts of up to 2000 digits under m, their sum, in
    an so family of its parity; valid runs of up to 2000 digits or of 2200
    to 6000 under an m drawn on its own, of up to 2100 digits, which their
    sum misses; or up to four runs in any order, each value and count of up
    to 6000 digits, zero or negative, under an m of as many."""
    family = draw(st.sampled_from(Family))
    shape = draw(st.sampled_from(("hit", "miss", "raw")))
    if shape == "raw":
        size = st.one_of(huge(6000), huge(6000).map(operator.neg), st.just(0))
        runs = draw(st.lists(st.tuples(size, size), min_size=1, max_size=4))
        m = draw(size)
    else:
        size = huge(2000) if shape == "hit" else st.one_of(huge(2000), wide(2200, 6000))
        runs = list(valid_runs(draw, family, size).items())
        m = sum(value * count for value, count in runs) if shape == "hit" else draw(huge(2100))
        if family.prefix == "so":
            family = Family.SO_ODD if m % 2 else Family.SO_EVEN
    return library(family, m, runs, draw(st.sampled_from(("text", "json"))))


@st.composite
def sweep_inputs(draw) -> tuple[str, tuple[str, ...]]:
    """An atlas in any format of an algebra with m <= 12, or a selfcheck
    up to some m <= 12, under a cap of 0 to 30."""
    cap = str(draw(st.integers(0, 30)))
    if draw(st.booleans()):
        return cap, ("selfcheck", str(draw(st.integers(0, 12))))
    family = draw(st.sampled_from(Family))
    m = draw(st.sampled_from([m for kind, m in enumerate_lie_types(12) if kind is family]))
    return cap, ("atlas", algebra_name(draw, family, m), "--format",
                 draw(st.sampled_from(("json", "md", "csv"))))


def drawn(count: int, inputs: st.SearchStrategy[Given]) -> list[Given]:
    """``count`` inputs drawn by hypothesis, the same on every run."""
    found = []

    @settings(max_examples=count, derandomize=True, database=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck), deadline=None)
    @given(inputs)
    def collect(given):
        found.append(given)

    collect()
    return found


COMMANDS = st.one_of(report_inputs(), sweep_inputs())

FIXED = {
    report("sl10000000", "10000000"): 0,
    report("sl13000000", "13000000"): 0,  # an "s" map of 13,000,000 keys
    report("sl44739240", "1^44739240"): 0,  # the most parts the screen passes
    report("sl41000000000000", "1000000^41000000"): 0,  # 533 MB of "partition" text
    report("sl20000000", "20000000"): 2,  # over the screen
    report("sp4000", "1^4000"): 0,  # 110 MB of per-q records
    # more admissible q and marked positions than len() counts
    report("sp100000000000000000000", "1^100000000000000000000"): 2,
    report("so8", "4,4", "--label", "II"): 0,
    # text reports have no screen
    plain("report", "sl20000000", "20000000"): 0,
    plain("report", "sl1000000000000", "1^1000000000000"): 0,
    plain("report", "sp200000000", "1^200000000"): 0,
    # a dimension of more digits than str() writes, refused by the LieType gate
    plain("report", f"sl{'9' * 2200}", "9" * 2200): 2,
    # a sum of more digits than str() writes, refused unprinted
    plain("report", "sl5", f"{'9' * 3000}^{'9' * 3000}"): 2,
    plain("report", f"so{'9' * 2140}", "9" * 2140): 0,
    plain("report", "so8", "4,4", "--label", "II"): 0,
    plain("report", "so8", "3,2,2,1", "--label", "I"): 2,  # not very even
    plain("atlas", "so8", "--format", "md"): 0,
    plain("atlas", "sp12", "--format", "csv"): 0,
    plain("atlas", "sl12", "--format", "json"): 0,
    plain("selfcheck", "10"): 0,
    plain("exceptional", "E7", "D4(a1)+A1"): 0,
    plain("exceptional", "G2", "G2(a1)"): 0,  # a miss, answered with guidance
    plain("exceptional", "E8", "--export"): 0,
    plain("exceptional"): 2,
    capped("", "selfcheck", "10"): 0,  # empty: the default cap
    capped("10", "selfcheck", "10"): 0,
    capped("9", "selfcheck", "10"): 2,
    capped("7", "atlas", "so8", "--format", "json"): 2,
    capped("abc", "atlas", "so8"): 2,
    capped("1.5", "atlas", "sl2", "--format", "csv"): 2,
    capped("-1", "selfcheck", "2"): 2,
}


# every library call refused, as the command line refuses it, by the gate
# of the value it would build
CALLS = {
    library(Family.SP, 10 ** 5000 + 1, [(1, 1)]): 2,  # an m of more digits than str() writes
    library(Family.SL, 5, [(10 ** 5000, 1)]): 2,  # a part of as many
    library(Family.SL, 5, [(1, 1), (10 ** 5000, 1)]): 2,  # and out of order
    library(Family.SL, 5, [(-10 ** 5000, 1)]): 2,  # and negative
    library(Family.SL, 10 ** 2200, [(10 ** 2200, 1)]): 2,  # a dimension of as many
    library(Family.SL, 5, [(10 ** 3000 - 1, 10 ** 3000 - 1)]): 2,  # a sum of as many
    library(Family.SL, 5, [(2, 1), (0, 3)]): 2,
    library(Family.SP, 6, [(4, 1), (1, 1)]): 2,  # a sum below m
    library(Family.SO_ODD, 10 ** 2140 - 1, [(10 ** 2140 - 1, 1)]): 0,
    library(Family.SO_EVEN, 8, [(4, 2)], "json"): 0,
    library(Family.SL, 10 ** 12, [(1, 10 ** 12)], "json"): 2,  # over the JSON screen
}


def test_json_reports_fit_in_a_gigabyte():
    """The fixed inputs of every command, and 60 drawn inputs."""
    inputs = [*FIXED, *drawn(60, COMMANDS)]
    outcomes = budgeted(inputs)
    assert {key(given): outcomes[key(given)] for given in FIXED} == {
        key(given): outcome for given, outcome in FIXED.items()}
    assert {text: outcome for text, outcome in outcomes.items() if outcome not in (0, 2)} == {}


def test_library_calls_fit_in_a_gigabyte():
    """The fixed library calls, and 60 drawn ones: each answers or raises
    ``OrbitresError``, within the same budget as a command."""
    inputs = [*CALLS, *drawn(60, library_inputs())]
    outcomes = budgeted(inputs)
    assert {key(given): outcomes[key(given)] for given in CALLS} == {
        key(given): outcome for given, outcome in CALLS.items()}
    assert {text: outcome for text, outcome in outcomes.items() if outcome not in (0, 2)} == {}


@pytest.mark.sweep
def test_json_reports_fit_in_a_gigabyte_sweep():
    """The largest d_1 the screen passes, one past it, a long run beside a
    large part, 2000 drawn commands and 2000 drawn library calls."""
    inputs = [report("sl13977327", "13977327"), report("sl13977328", "13977328"),
              report("sl30000000", "6500000,1^23500000")]
    inputs += drawn(2000, COMMANDS) + drawn(2000, library_inputs())
    outcomes = budgeted(inputs)
    assert list(outcomes.values())[:3] == [0, 2, 0]
    assert {text: outcome for text, outcome in outcomes.items() if outcome not in (0, 2)} == {}
