"""Every input the command line answers is answered within a budget: in
1 GiB of address space and in under a minute.

One child process limits its own address space with
``resource.setrlimit(RLIMIT_AS)`` and runs ``orbitres.cli.main`` on each
input in turn, with ``ORBITRES_MAX_M`` set as the input asks (or unset) and
stdout counted and dropped; it reports each input's exit code, or the
exception that escaped ``main`` (an exit 1 of the command line), its wall
time and the bytes it wrote.  Each input must exit 0 or 2: answered, or
refused before its first byte; it must take under ``SECONDS``; and the
child's peak resident size must stay under three quarters of the limit.
The inputs are long partitions and large parts that the JSON screen passes,
some it refuses, compact partitions drawn by hypothesis with huge values
and exponents, text reports, labels, atlases in every format, selfchecks,
the exceptional table, and caps that are no integer or below m.  A longer
sweep, from the largest part the screen passes to 2000 drawn inputs, runs
with ``pytest -m sweep``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from orbitres import Family

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT = 1 << 30
SECONDS = 60

CHILD = """
import io, json, os, resource, sys, time
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, sys.argv[1])
import orbitres.cli as cli


class Counted(io.RawIOBase):
    written = 0

    def writable(self):
        return True

    def write(self, data):
        self.written += len(data)
        return len(data)


results, stdout = [], sys.stdout
for cap, argv in json.loads(sys.stdin.read()):
    if cap is None:
        os.environ.pop("ORBITRES_MAX_M", None)
    else:
        os.environ["ORBITRES_MAX_M"] = cap
    sink = Counted()
    sys.stdout = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8")
    start = time.perf_counter()
    try:
        outcome = cli.main(argv)
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


def budgeted(inputs: list[tuple[str | None, tuple[str, ...]]]) -> dict[str, object]:
    """Each input's outcome, keyed by its text (``key``), in one child
    process limited to ``LIMIT`` bytes of address space: its exit code, or
    the exception it raised.  An input is its ``ORBITRES_MAX_M`` (None for
    unset) and its argv.  Each takes under ``SECONDS``; one that exits 2
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


def key(given: tuple[str | None, tuple[str, ...]]) -> str:
    cap, argv = given
    return " ".join(argv) if cap is None else f"ORBITRES_MAX_M={cap} {' '.join(argv)}"


def report(algebra: str, partition: str, *label: str) -> tuple[None, tuple[str, ...]]:
    """A JSON report, with no cap set."""
    return None, ("report", algebra, partition, "--format", "json", *label)


def plain(*argv: str) -> tuple[None, tuple[str, ...]]:
    return None, argv


def capped(cap: str, *argv: str) -> tuple[str, tuple[str, ...]]:
    return cap, argv


@st.composite
def compact_inputs(draw) -> tuple[None, tuple[str, ...]]:
    """A JSON report of a compact partition of up to four runs, each value
    and exponent small or huge, valid in its family: the parts of the
    constrained parity come in pairs, and a very even so partition takes a
    label."""
    family = draw(st.sampled_from(Family))
    size = st.one_of(st.integers(1, 40), st.integers(1, 1 << 26), st.integers(1, 10 ** 12))
    runs = draw(st.dictionaries(size, size, min_size=1, max_size=4))
    parity = family.constrained_parity
    runs = {value: count + count % 2 if value % 2 == parity else count
            for value, count in sorted(runs.items(), reverse=True)}
    m = sum(value * count for value, count in runs.items())
    partition = ",".join(f"{value}^{count}" for value, count in runs.items())
    very_even = family.prefix == "so" and all(value % 2 == 0 for value in runs)
    return report(f"{family.prefix}{m}", partition, *(["--label", "I"] if very_even else []))


def drawn(count: int) -> list[tuple[None, tuple[str, ...]]]:
    """``count`` inputs drawn by hypothesis, the same on every run."""
    inputs = []

    @settings(max_examples=count, derandomize=True, database=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck), deadline=None)
    @given(compact_inputs())
    def collect(given):
        inputs.append(given)

    collect()
    return inputs


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


def test_json_reports_fit_in_a_gigabyte():
    """The fixed inputs of every command, and 30 drawn JSON reports."""
    inputs = [*FIXED, *drawn(30)]
    outcomes = budgeted(inputs)
    assert {key(given): outcomes[key(given)] for given in FIXED} == {
        key(given): outcome for given, outcome in FIXED.items()}
    assert {text: outcome for text, outcome in outcomes.items() if outcome not in (0, 2)} == {}


@pytest.mark.sweep
def test_json_reports_fit_in_a_gigabyte_sweep():
    """The largest d_1 the screen passes, one past it, a long run beside a
    large part, and 2000 drawn inputs."""
    inputs = [report("sl13977327", "13977327"), report("sl13977328", "13977328"),
              report("sl30000000", "6500000,1^23500000")] + drawn(2000)
    outcomes = budgeted(inputs)
    assert list(outcomes.values())[:3] == [0, 2, 0]
    assert {text: outcome for text, outcome in outcomes.items() if outcome not in (0, 2)} == {}
