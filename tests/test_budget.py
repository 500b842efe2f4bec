"""Every JSON report the size screen lets through is written within a
1 GiB address space.

One child process limits its own address space with
``resource.setrlimit(RLIMIT_AS)`` and runs ``orbitres.cli.main`` on each
input in turn, its stdout sent to ``os.devnull``; it reports each exit
code, or the exception that escaped ``main`` (an exit 1 of the command
line).  Each input must exit 0 or 2: written, or refused by the screen
before the first byte; and the child's peak resident size must stay under
three quarters of the limit.  The inputs are long partitions and large
parts that the screen passes, some it refuses, and compact partitions
drawn by hypothesis with huge values and exponents.  A longer sweep, from
the largest part the screen passes to 2000 drawn inputs, runs with
``pytest -m sweep``.
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

CHILD = """
import json, os, resource, sys
limit = int(sys.argv[2])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.path.insert(0, sys.argv[1])
import orbitres.cli as cli
outcomes, stdout = [], sys.stdout
for argv in json.loads(sys.stdin.read()):
    sys.stdout = open(os.devnull, "w")
    try:
        outcome = cli.main(argv)
    except SystemExit as exc:
        outcome = exc.code
    except BaseException as exc:
        outcome = repr(exc)
    finally:
        sys.stdout.close()
        sys.stdout = stdout
    outcomes.append(outcome)
print(json.dumps([outcomes, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024]))
"""


def budgeted(argvs: list[list[str]]) -> dict[str, object]:
    """Each input's outcome in one child process limited to ``LIMIT``
    bytes of address space: its exit code, or the exception it raised.
    The child's peak resident size stays under three quarters of the
    limit: a text the size of the partition or of the "s" map is held
    once, beside its encoded bytes, never joined into a second copy."""
    child = subprocess.run([sys.executable, "-c", CHILD, str(SRC), str(LIMIT)],
                           input=json.dumps(argvs), capture_output=True, text=True, check=False,
                           timeout=600)
    assert child.returncode == 0 and "Traceback" not in child.stderr, child.stderr
    outcomes, peak = json.loads(child.stdout)
    assert peak < LIMIT * 3 // 4, peak
    return dict(zip((" ".join(argv) for argv in argvs), outcomes))


def report(algebra: str, partition: str, *label: str) -> list[str]:
    return ["report", algebra, partition, "--format", "json", *label]


@st.composite
def compact_inputs(draw) -> list[str]:
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


def drawn(count: int) -> list[list[str]]:
    """``count`` inputs drawn by hypothesis, the same on every run."""
    argvs = []

    @settings(max_examples=count, derandomize=True, database=None, phases=[Phase.generate],
              suppress_health_check=list(HealthCheck), deadline=None)
    @given(compact_inputs())
    def collect(argv):
        argvs.append(argv)

    collect()
    return argvs


FIXED = {
    " ".join(report("sl10000000", "10000000")): 0,
    " ".join(report("sl13000000", "13000000")): 0,  # an "s" map of 13,000,000 keys
    " ".join(report("sl44739240", "1^44739240")): 0,  # the most parts the screen passes
    " ".join(report("sl41000000000000", "1000000^41000000")): 0,  # 533 MB of "partition" text
    " ".join(report("sl20000000", "20000000")): 2,  # over the screen
    " ".join(report("sp4000", "1^4000")): 0,  # 110 MB of per-q records
    # more admissible q and marked positions than len() counts
    " ".join(report("sp100000000000000000000", "1^100000000000000000000")): 2,
}


def test_json_reports_fit_in_a_gigabyte():
    argvs = [argv.split() for argv in FIXED] + drawn(30)
    outcomes = budgeted(argvs)
    assert {argv: outcomes[argv] for argv in FIXED} == FIXED
    assert {argv: outcome for argv, outcome in outcomes.items() if outcome not in (0, 2)} == {}


@pytest.mark.sweep
def test_json_reports_fit_in_a_gigabyte_sweep():
    """The largest d_1 the screen passes, one past it, a long run beside a
    large part, and 2000 drawn inputs."""
    argvs = [report("sl13977327", "13977327"), report("sl13977328", "13977328"),
             report("sl30000000", "6500000,1^23500000")] + drawn(2000)
    outcomes = budgeted(argvs)
    assert list(outcomes.values())[:3] == [0, 2, 0]
    assert {argv: outcome for argv, outcome in outcomes.items() if outcome not in (0, 2)} == {}
