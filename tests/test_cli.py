from __future__ import annotations

import contextlib
import csv
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from common import expected_report_dict
import orbitres.cli as cli
import orbitres.report as report_module
import orbitres.resolution as resolution
from orbitres import (
    Family,
    HesselinkAnalysis,
    LieType,
    Verdict,
    build_report,
    count_orbits,
    enumerate_orbits,
    parse_algebra,
    parse_partition,
    validate_orbit,
)
from orbitres.cli import main
from orbitres.errors import InternalInvariantError, OrbitresError
from orbitres.exceptional import EXCEPTIONAL_ALGEBRAS, EXCEPTIONAL_TABLE, NOT_IN_DATABASE_GUIDANCE
from orbitres.orbits import VeryEvenLabel
from orbitres.picard import AbelianGroupDescriptor
from orbitres.report import report_text


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MISS = "orbit 'B3' is not in the database: " + NOT_IN_DATABASE_GUIDANCE

# argv, ORBITRES_MAX_M (None: unset), exit code, exact stdout, exact stderr.
# Bad input exits 2 with one "error: " line, whichever check rejected it; the
# message alone tells the checks apart.
EXIT_CONTRACT = [
    (("report", "sp6", "1,2,3"), None, 2, "",
     "error: parts must be weakly decreasing, got 2 after 1\n"),
    (("report", "sp6", "2,0"), None, 2, "", "error: parts must be positive, got 0\n"),
    # a term's own error comes first, the order of the terms is checked after
    (("report", "sl9", "1,2,0"), None, 2, "", "error: parts must be positive, got 0\n"),
    (("report", "sl7", "1,2^3"), None, 2, "",
     "error: parts must be weakly decreasing, got 2 after 1\n"),
    (("report", "sp6", "2,2"), None, 2, "", "error: parts sum to 4, expected m = 6 for sp6\n"),
    # a sum past m is not printed: it may have more digits than str() writes
    (("report", "sp6", "4,4"), None, 2, "", "error: parts sum to more than m = 6 for sp6\n"),
    (("report", "sl5", f"{'9' * 3000}^{'9' * 3000}"), None, 2, "",
     "error: parts sum to more than m = 5 for sl5\n"),
    (("report", "so8", "4,2,1,1"), None, 2, "",
     "error: so8 requires the part 4 to have even multiplicity, found multiplicity 1\n"),
    (("report", "sp7", "1"), None, 2, "", "error: sp requires even matrix size, got 7\n"),
    (("report", "so8", "3,2,2,1", "--label", "I"), None, 2, "",
     "error: so8 [3,2^2,1] is not very even; no label allowed\n"),
    (("report", "sp6", "x"), None, 2, "", "error: cannot parse partition term 'x'\n"),
    (("report", "zz9", "1,1"), None, 2, "",
     "error: cannot parse algebra name 'zz9' (try 'so8', 'sp6', 'sl5' or 'D4')\n"),
    (("exceptional", "E9", "A1"), None, 2, "",
     "error: unknown exceptional algebra 'E9' (expected G2, F4, E6, E7 or E8)\n"),
    (("atlas", "so8"), "abc", 2, "",
     "error: ORBITRES_MAX_M must be a non-negative integer, got 'abc'\n"),
    (("atlas", "so8"), "6", 2, "",
     "error: m = 8 exceeds the enumeration cap ORBITRES_MAX_M = 6; "
     "raise the environment variable to allow larger sweeps\n"),
    (("atlas", "sl31", "--format", "csv"), None, 2, "",
     "error: m = 31 exceeds the enumeration cap ORBITRES_MAX_M = 30; "
     "raise the environment variable to allow larger sweeps\n"),
    # a JSON report longer than report.MAX_JSON_BYTES is refused before its
    # first byte, from O(k) facts: a 10^12-entry and a 2 * 10^7-entry "s" map
    # (its keys' digits counted), 5 * 10^6 records, a 10^8-entry "partition" array
    (("report", "sl1000000000000", "1000000000000", "--format", "json"), None, 2, "",
     "error: the JSON report of sl1000000000000 [1000000000000] takes at least "
     "23888888888908 bytes, over its limit of 268435456; the text report has no limit\n"),
    (("report", "sl20000000", "20000000", "--format", "json"), None, 2, "",
     "error: the JSON report of sl20000000 [20000000] takes at least "
     "388888903 bytes, over its limit of 268435456; the text report has no limit\n"),
    (("report", "so10000001", "10000001", "--format", "json"), None, 2, "",
     "error: the JSON report of so10000001 [10000001] takes at least "
     "738889033 bytes, over its limit of 268435456; the text report has no limit\n"),
    (("report", "sl100000000", "1^100000000", "--format", "json"), None, 2, "",
     "error: the JSON report of sl100000000 [1^100000000] takes at least "
     "600000013 bytes, over its limit of 268435456; the text report has no limit\n"),
    # --export prints whole tables, so a LABEL with it is refused, not dropped
    (("exceptional", "E6", "A3", "--export"), None, 2, "",
     "error: --export takes no LABEL, got 'A3': give ALGEBRA alone\n"),
    (("exceptional", " e6", "B3"), None, 0, f"E6 B3: not in database\nE6 {MISS}\n", ""),
    (("exceptional", "e7", "d5(a1)"), None, 0,
     "E7 D5(a1): unknown  (non-even Richardson orbit with component group of order 2; "
     "no degree-one polarization is known and none is ruled out)\n", ""),
]


@pytest.mark.parametrize("argv, max_m, code, out, err", EXIT_CONTRACT,
                         ids=[" ".join(row[0])[:80] for row in EXIT_CONTRACT])
def test_exit_contract(capsys, monkeypatch, argv, max_m, code, out, err):
    if max_m is None:
        monkeypatch.delenv("ORBITRES_MAX_M", raising=False)
    else:
        monkeypatch.setenv("ORBITRES_MAX_M", max_m)
    assert run(capsys, *argv) == (code, out, err)


CLOSED_AFTER = [
    (("atlas", "sl30", "--format", "json"), 1),
    (("report", "sp512", "1^512", "--format", "json"), 1),
    (("selfcheck", "6"), 0),  # closed before the output, which goes out at the end
]


@pytest.mark.parametrize("argv, lines", CLOSED_AFTER, ids=[" ".join(a) for a, _ in CLOSED_AFTER])
def test_a_closed_stdout_exits_141_in_silence(argv, lines):
    """A reader that closes stdout after ``lines`` lines, as ``| head -1``
    does, ends the command with exit 141 (128 + SIGPIPE) and nothing on
    stderr: no traceback, not even from the flush at exit."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    env.pop("ORBITRES_MAX_M", None)
    child = subprocess.Popen([sys.executable, "-m", "orbitres", *argv], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    assert (child.wait(timeout=60), stderr) == (141, b"")


class TestReport:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "report", "so7", "3,2,2")
        assert code == 0
        assert "resolution     yes" in out
        assert "q=1" in out

    def test_json_report_round_trips(self, capsys):
        code, out, _ = run(capsys, "report", "sp6", "4,1,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["resolution"]["answer"] == "no"
        assert payload["polarizable"]["polarizable"] is False
        assert json.loads(json.dumps(payload)) == payload

    def test_zero_orbit_report(self, capsys):
        code, out, _ = run(capsys, "report", "sl3", "1,1,1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["dimension"] == 0
        assert payload["picard"]["trivial"] is True
        assert payload["resolution"]["answer"] == "yes"

    def test_exponent_shorthand_accepted(self, capsys):
        code, out, _ = run(capsys, "report", "so8", "2^2,1^4")
        assert code == 0
        assert "resolution     no" in out

    def test_very_even_label(self, capsys):
        code, out, _ = run(capsys, "report", "so8", "4,4", "--label", "II", "--format", "json")
        assert code == 0
        assert json.loads(out)["very_even_label"] == "II"

    def test_label_rejected_otherwise(self, capsys):
        code, _, err = run(capsys, "report", "so8", "3,2,2,1", "--label", "I")
        assert code == 2
        assert "error" in err

    def test_invalid_partition_exits_2(self, capsys):
        code, _, err = run(capsys, "report", "so8", "4,2,1,1")
        assert code == 2
        assert "multiplicity" in err

    def test_invalid_algebra_exits_2(self, capsys):
        code, _, err = run(capsys, "report", "zz9", "1,1")
        assert code == 2
        assert "error" in err

    def test_oversized_algebra_exits_2(self, capsys):
        # more digits than int() reads is bad input, not a crash
        code, out, err = run(capsys, "report", "sl" + "9" * 5000, "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("partition", [
        "1^1000000000000", "4,2^1000000000000", "1^" + "9" * 5000,
        "0^1000000000000", "2,0^1000000000000",
    ])
    def test_oversized_partition_exits_2(self, capsys, partition):
        # refused by the run and orbit gates, the shorthand never expanded
        code, out, err = run(capsys, "report", "sp6", partition)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("m", [1_000_000_000_000, 100_000_000])
    def test_zero_orbit_of_a_huge_sl_is_answered(self, capsys, m):
        # the shorthand is one run, never expanded into m parts
        code, out, err = run(capsys, "report", f"sl{m}", f"1^{m}")
        assert (code, err) == (0, "")
        assert out == (
            f"sl{m} [1^{m}]\n"
            f"  cartan type    A{m - 1}\n"
            "  dimension      0\n"
            "  even orbit     yes\n"
            "  profile        k=1 c=1 a=1 b=0 l=0 rather_odd=no\n"
            "  picard         trivial\n"
            "  q-factorial    certified\n"
            "  factorial      n/a (zero orbit)\n"
            "  polarizable    yes (every sl orbit is polarizable)\n"
            "  resolution     yes  [route always_sln]\n"
        )

    def test_cartan_name_accepted(self, capsys):
        code, out, _ = run(capsys, "report", "D4", "5,3", "--format", "json")
        assert code == 0
        assert json.loads(out)["algebra"] == "so8"

    def test_route_mismatch_is_an_internal_error(self, capsys, monkeypatch):
        original = resolution.closed_form_verdict

        def flipped(orbit):
            verdict = original(orbit)
            return verdict._replace(answer=Verdict.NO if verdict.answer is Verdict.YES else Verdict.YES)

        monkeypatch.setattr(resolution, "closed_form_verdict", flipped)
        code, out, err = run(capsys, "report", "so7", "3,2,2")
        assert code == 4
        assert out == ""
        assert "internal error, this is a bug" in err

    def test_tripped_value_gate_is_an_internal_error(self, capsys, monkeypatch):
        # a computed value that fails its type's gate is a bug, not bad input
        monkeypatch.setattr(report_module, "picard", lambda orbit: AbelianGroupDescriptor(free_rank=-1))
        code, out, err = run(capsys, "report", "so7", "3,2,2")
        assert (code, out) == (4, "")
        assert err == "internal error, this is a bug: free rank must be non-negative\n"

    def test_non_integral_exponent_is_an_internal_error(self, capsys, monkeypatch):
        original = HesselinkAnalysis.of.__func__

        def off_by_one(cls, orbit):
            analysis = original(cls, orbit)
            return analysis._replace(n_odd=analysis.n_odd + 1)

        monkeypatch.setattr(HesselinkAnalysis, "of", classmethod(off_by_one))
        code, out, err = run(capsys, "report", "so7", "3,2,2")
        assert code == 4
        assert out == ""
        assert "internal error, this is a bug: degree exponent" in err

    @pytest.mark.parametrize("partition", [
        "3,2,2",  # polarizable: its witness trips the guard while the report is built
        "2^2,1^3",  # no witness: the guard on the records' runs trips, before the first byte
    ])
    def test_non_integral_exponent_in_json_is_an_internal_error(self, capsys, monkeypatch,
                                                                partition):
        original = HesselinkAnalysis.of.__func__

        def off_by_one(cls, orbit):
            analysis = original(cls, orbit)
            return analysis._replace(n_odd=analysis.n_odd + 1)

        monkeypatch.setattr(HesselinkAnalysis, "of", classmethod(off_by_one))
        code, out, err = run(capsys, "report", "so7", partition, "--format", "json")
        assert code == 4
        assert out == ""
        assert "internal error, this is a bug: degree exponent" in err


class TestAtlas:
    def test_md_row_count_matches_enumeration(self, capsys):
        code, out, _ = run(capsys, "atlas", "so8")
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("| ") and "partition" not in line]
        assert len(rows) == count_orbits(LieType(Family.SO_EVEN, 8)) == 12

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "atlas", "sp6", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == count_orbits(LieType(Family.SP, 6)) == 8
        verdicts = {row["partition"]: row["resolution"] for row in rows}
        assert verdicts["4,1^2"] == "no"
        assert verdicts["3^2"] == "yes"

    def test_json_structure_stable(self, capsys):
        code, first, _ = run(capsys, "atlas", "so7", "--format", "json")
        assert code == 0
        code, second, _ = run(capsys, "atlas", "so7", "--format", "json")
        assert json.loads(first) == json.loads(second)
        payload = json.loads(first)
        assert len(payload) == 7
        nos = [r["partition_compact"] for r in payload if r["resolution"]["answer"] == "no"]
        assert nos == ["2^2,1^3"]

    @staticmethod
    def break_so7_331(monkeypatch):
        """Flip the closed form's answer on so7 [3^2,1] alone, so that its
        report raises an internal error; returns that orbit."""
        original = resolution.closed_form_verdict
        broken = validate_orbit(LieType(Family.SO_ODD, 7), (3, 3, 1))

        def flipped(orbit):
            verdict = original(orbit)
            if orbit != broken:
                return verdict
            return verdict._replace(answer=Verdict.NO if verdict.answer is Verdict.YES else Verdict.YES)

        monkeypatch.setattr(resolution, "closed_form_verdict", flipped)
        return broken

    def test_internal_error_leaves_a_truncated_array(self, capsys, monkeypatch):
        self.break_so7_331(monkeypatch)
        code, out, err = run(capsys, "atlas", "so7", "--format", "json")
        assert code == 4
        assert "internal error, this is a bug" in err
        assert out.startswith("[\n  {") and not out.endswith("]\n")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_internal_error_leaves_a_partial_table(self, capsys, monkeypatch, fmt):
        """A table is written as the orbits are enumerated: the report that
        fails leaves the header and the rows of the orbits before it."""
        broken = self.break_so7_331(monkeypatch)
        before = list(itertools.takewhile(lambda orbit: orbit != broken,
                                          enumerate_orbits(broken.lie_type)))
        code, out, err = run(capsys, "atlas", "so7", "--format", fmt)
        assert code == 4
        assert "internal error, this is a bug" in err
        assert before
        if fmt == "md":
            assert out.startswith("# nilpotent orbits of so7\n\n| partition | label |")
            rows = out.splitlines()[4:]
            assert "orbits," not in out  # no summary line
            cells = [row[2:-2].split(" | ") for row in rows]
        else:
            cells = list(csv.reader(io.StringIO(out)))
            assert cells.pop(0)[0] == "partition"
        assert [row[0] for row in cells] == [orbit.partition.compact_str() for orbit in before]

    @pytest.mark.parametrize("fmt", ["md", "csv"])
    def test_each_row_is_written_before_the_next_report_is_built(self, monkeypatch, fmt):
        """A spy on the report builder and on stdout: every report of sl6 is
        written out before the next one is built, so no format holds the
        atlas whole."""
        events = []

        class Out:
            def write(self, text):
                events.append("write")
                return len(text)

            def flush(self):  # main flushes stdout before it returns
                pass

        original = cli.build_report
        monkeypatch.setattr(cli, "build_report", lambda orbit: events.append("build") or original(orbit))
        monkeypatch.setattr(sys, "stdout", Out())
        assert main(["atlas", "sl6", "--format", fmt]) == 0
        assert events.count("build") == count_orbits(LieType(Family.SL, 6)) == 11
        assert events[0] == events[-1] == "write"
        assert all(nxt == "write" for event, nxt in zip(events, events[1:]) if event == "build")

    def test_table_memory_does_not_grow_with_the_orbit_count(self, monkeypatch):
        """The peak traced memory of the sl20 table (627 orbits), written to
        a null sink, stays within twice that of sl12 (77 orbits): rows are
        written as their reports are built, and none is kept."""
        def peak(algebra):
            tracemalloc.start()
            try:
                assert main(["atlas", algebra, "--format", "md"]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with open(os.devnull, "w") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            main(["atlas", "sl12", "--format", "md"])  # the parser and the imports, untraced
            small, large = peak("sl12"), peak("sl20")
        assert count_orbits(LieType(Family.SL, 20)) == 627
        assert large <= 2 * small, (small, large)

    def test_sl4_all_yes(self, capsys):
        code, out, _ = run(capsys, "atlas", "sl4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert all(r["resolution"]["answer"] == "yes" for r in payload)

    def test_cap_enforced(self, capsys, monkeypatch):
        monkeypatch.setenv("ORBITRES_MAX_M", "6")
        code, _, err = run(capsys, "atlas", "so8")
        assert code == 2
        assert "ORBITRES_MAX_M" in err

    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_malformed_cap_rejected(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("ORBITRES_MAX_M", raw)
        for argv in (("atlas", "so8"), ("selfcheck", "4")):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "ORBITRES_MAX_M must be a non-negative integer" in err


class TestJsonBytes:
    """Every JSON output is the text json.dumps(..., indent=2) would print for
    the reference layout."""

    @pytest.mark.parametrize("algebra", ["sp10", "so9", "so8", "sl6"])
    def test_atlas(self, capsys, algebra):
        orbits = enumerate_orbits(parse_algebra(algebra))
        dicts = [expected_report_dict(build_report(orbit)) for orbit in orbits]
        code, out, _ = run(capsys, "atlas", algebra, "--format", "json")
        assert code == 0
        assert out == json.dumps(dicts, indent=2) + "\n"

    def test_report(self, capsys):
        orbit = validate_orbit(parse_algebra("sp64"), parse_partition("1^64"))
        code, out, _ = run(capsys, "report", "sp64", "1^64", "--format", "json")
        assert code == 0
        assert out == json.dumps(expected_report_dict(build_report(orbit)), indent=2) + "\n"

    @pytest.mark.parametrize("argv", [("so8", "4,4", "--label", "II"), ("sl6", "3,2,1")])
    def test_report_of_labelled_and_sl_orbits(self, capsys, argv):
        algebra, partition, *label = argv
        label = VeryEvenLabel(label[1]) if label else None
        orbit = validate_orbit(parse_algebra(algebra), parse_partition(partition), label)
        code, out, _ = run(capsys, "report", *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(expected_report_dict(build_report(orbit)), indent=2) + "\n"

    def test_exceptional_export(self, capsys):
        """The export is the table, one object per record with its fields in
        order, the verdict by its value, as ``json.dumps(indent=2)`` writes it."""
        code, out, _ = run(capsys, "exceptional", "--export")
        assert code == 0
        rows = [{"algebra": r.algebra, "label": r.label, "verdict": r.verdict.value, "note": r.note}
                for r in EXCEPTIONAL_TABLE]
        assert out == json.dumps(rows, indent=2) + "\n"


class TestSelfcheck:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "8")
        assert code == 0
        assert "0 failures" in out
        assert "2^2,1^4" not in out  # the so8 minimal orbit is a verified No, not a failure

    def test_full_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "24")
        assert code == 0
        assert "0 failures" in out

    def test_minimum_universe(self, capsys):
        code, out, _ = run(capsys, "selfcheck", "2")
        assert code == 0
        assert "0 failures" in out
        checked = int(out.split("(")[1].split(" orbits")[0])
        assert checked >= 4

    def test_max_m_too_small(self, capsys):
        code, _, err = run(capsys, "selfcheck", "1")
        assert code == 2
        assert "max_m" in err

    def test_failed_checks_are_reported_failed(self, capsys, monkeypatch):
        """A check with failures prints FAILED (k of N), never ok."""
        monkeypatch.setattr(cli, "is_even_orbit", lambda orbit: True)
        original = cli.admits_symplectic_resolution
        broken = validate_orbit(LieType(Family.SO_EVEN, 6), (3, 3))

        def dispatch(orbit):
            if orbit == broken:
                raise InternalInvariantError("routes disagree")
            return original(orbit)

        monkeypatch.setattr(cli, "admits_symplectic_resolution", dispatch)
        assert cli.run_selfcheck(6) == 6
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:6] == [
            "  route equivalence (closed form vs degree search): FAILED (1 of 58)",
            "  even orbit implies resolvable: FAILED (5 of 57)",
            "  resolvable implies polarizable: ok (57 checked)",
            "  factorial iff trivial picard (non-zero sp/so): ok (28 checked)",
            "  l = 0 implies picard free rank 0 (sp/so): ok (28 checked)",
        ]
        assert "  FAILURE so6 [3^2]: routes disagree" in lines
        assert sum(line.endswith("even orbit judged non-resolvable") for line in lines) == 5
        assert lines[-1] == "6 failures"

    def test_even_check_stays_live(self, capsys, monkeypatch):
        """With ``is_even_orbit`` as it is, a NO verdict for an even orbit
        fails the even check, in sl and in sp alike, and every tally stays
        as in the plain sweep."""
        assert cli.run_selfcheck(4) == 0
        plain = capsys.readouterr().out
        original = cli.admits_symplectic_resolution
        denied = (validate_orbit(LieType(Family.SL, 4), (2, 2)),
                  validate_orbit(LieType(Family.SP, 4), (2, 2)))

        def dispatch(orbit):
            verdict = original(orbit)
            return verdict._replace(answer=Verdict.NO) if orbit in denied else verdict

        monkeypatch.setattr(cli, "admits_symplectic_resolution", dispatch)
        assert cli.run_selfcheck(4) == 2
        out = capsys.readouterr().out
        expected = plain.splitlines()[:6]
        assert expected[2] == "  even orbit implies resolvable: ok (23 checked)"
        expected[2] = "  even orbit implies resolvable: FAILED (2 of 23)"
        assert out.splitlines() == expected + [
            "  FAILURE sl4 [2^2]: even orbit judged non-resolvable",
            "  FAILURE sp4 [2^2]: even orbit judged non-resolvable",
            "2 failures",
        ]

    def test_sweep_takes_only_its_size(self):
        """``run_selfcheck`` prints to stdout, with no option only a test would set."""
        assert list(inspect.signature(cli.run_selfcheck).parameters) == ["max_m"]

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_selfcheck", lambda max_m: 1)
        code, _, _ = run(capsys, "selfcheck", "4")
        assert code == 3


class TestExceptional:
    def test_yes(self, capsys):
        code, out, _ = run(capsys, "exceptional", "E6", "A4+A1")
        assert code == 0
        assert "yes" in out

    def test_unknown(self, capsys):
        code, out, _ = run(capsys, "exceptional", "E7", "D4(a1)+A1")
        assert code == 0
        assert "unknown" in out

    def test_e8_yes(self, capsys):
        code, out, _ = run(capsys, "exceptional", "E8", "E7(a1)")
        assert code == 0
        assert "yes" in out

    def test_not_in_database(self, capsys):
        code, out, _ = run(capsys, "exceptional", "G2", "G2(a1)")
        assert code == 0
        assert "not in database" in out

    def test_unknown_algebra_exits_2(self, capsys):
        code, _, err = run(capsys, "exceptional", "E9", "A1")
        assert code == 2
        assert "unknown exceptional algebra" in err

    def test_export_full_table(self, capsys):
        code, out, _ = run(capsys, "exceptional", "--export")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 18

    def test_export_filtered_by_algebra(self, capsys):
        code, out, _ = run(capsys, "exceptional", "E8", "--export")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 7
        assert all(row["algebra"] == "E8" for row in payload)

    def test_label_required_without_export(self, capsys):
        code, _, err = run(capsys, "exceptional", "E8")
        assert code == 2
        assert "LABEL" in err

    def test_help_lists_the_table_algebras(self, capsys):
        """Start-up does not load the table, so the parser spells out the
        algebras the help lists: they are EXCEPTIONAL_ALGEBRAS, in order."""
        *most, last = EXCEPTIONAL_ALGEBRAS
        with pytest.raises(SystemExit):
            main(["exceptional", "--help"])
        assert f"\n  algebra     {', '.join(most)} or {last}\n" in capsys.readouterr().out


def through_the_top_level(argv) -> int:
    """The command line as the top-level parser alone reads it: argv through
    ``build_parser().parse_args``, then the command's ``func``, with the exit
    code and the "error: " line that ``main`` gives bad input."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OrbitresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def outcome(call, argv):
    """The exit code (or SystemExit's code, marked), stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def assert_one_answer(argv):
    assert outcome(main, argv) == outcome(through_the_top_level, argv)


COMMANDS = ("report", "atlas", "selfcheck", "exceptional")

# argv that main answers as the top-level parser would, byte for byte
DISPATCH_PARITY = [
    ("report", "sp6", "2,2,1,1"),
    ("report", "so8", "4,4", "--label", "II", "--format", "json"),
    ("report", "sp6", "--format=json", "2,2,1,1"),
    ("atlas", "sl4", "--format", "csv"),
    ("atlas", "so8"),
    ("selfcheck", "4"),
    ("selfcheck",),
    ("exceptional", "E7", "D4(a1)+A1"),
    ("exceptional", "E8", "--export"),
    ("-h",), ("--help",),
    *((command, flag) for command in COMMANDS for flag in ("-h", "--help")),
    (), ("bogus",), ("rep",), ("Report", "sp6", "2,2,1,1"), ("-h", "report"),
    ("--", "report", "sp6", "2,2,1,1"),
    ("report", "sp6", "2,2,1,1", "extra"),
    ("atlas", "sl4", "sl5", "--format", "md", "more"),
    ("report", "sp6", "2,2,1,1", "--bogus"),
    ("report", "sp6", "2,2,1,1", "--format", "xml"),
    ("report", "sp6", "--", "2,2,1,1"),
    ("report", "sp6"),
    ("report", "so8", "3,2,2,1", "--label", "I"),
    ("selfcheck", "x"),
    ("exceptional", "E6", "A3", "--export"),
]


@pytest.mark.parametrize("argv", DISPATCH_PARITY, ids=[" ".join(a) or "(none)" for a in DISPATCH_PARITY])
def test_dispatch_parity(monkeypatch, argv):
    monkeypatch.delenv("ORBITRES_MAX_M", raising=False)
    assert_one_answer(argv)


WORDS = (*COMMANDS, "r", "rep", "at", "self", "exc", "-h", "--help", "--he", "--", "-x",
         "--format", "--form", "--label", "--export", "--bogus", "--format=json")
VALUES = ("sp6", "so8", "sl4", "D4", "zz9", "2,2,1,1", "4,4", "3,2,2,1", "x", "", "json", "text",
          "md", "csv", "xml", "I", "II", "E7", "D4(a1)+A1", "4", "-1")
# a command, a prefix of one or a flag, then up to six words or values
ARGVS = st.builds(lambda first, rest: (first, *rest), st.sampled_from(WORDS),
                  st.lists(st.sampled_from(WORDS + VALUES), max_size=6))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(ARGVS)
def test_drawn_argv_parity(argv):
    assert_one_answer(argv)


@pytest.mark.sweep
@settings(max_examples=2000, derandomize=True, deadline=None)
@given(ARGVS)
def test_drawn_argv_parity_sweep(argv):
    assert_one_answer(argv)


class TestOneParser:
    """main reuses one parser for the process, and no call leaves state behind."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_successive_calls_share_no_state(self, capsys):
        _, as_json, _ = run(capsys, "report", "so8", "4,4", "--label", "II", "--format", "json")
        _, as_text, _ = run(capsys, "report", "so8", "4,4")
        assert json.loads(as_json)["very_even_label"] == "II"
        orbit = validate_orbit(parse_algebra("so8"), (4, 4))
        assert as_text == report_text(build_report(orbit)) + "\n"
        assert "label I)" in as_text
        _, atlas_json, _ = run(capsys, "atlas", "sl4", "--format", "json")
        _, atlas_md, _ = run(capsys, "atlas", "sl4")
        assert len(json.loads(atlas_json)) == 5
        assert atlas_md.startswith("# nilpotent orbits of sl4\n")
        _, export, _ = run(capsys, "exceptional", "--export")
        code, lookup, _ = run(capsys, "exceptional", "E7", "D4(a1)+A1")
        assert len(json.loads(export)) == 18
        assert code == 0
        assert lookup.startswith("E7 D4(a1)+A1: unknown  (")
        assert lookup.count("\n") == 1

    def test_both_paths_share_no_state(self):
        """Calls alternate between main's straight path and the top-level
        parser: each answers as it would alone, whichever ran before."""
        text = report_text(build_report(validate_orbit(parse_algebra("so8"), (4, 4)))) + "\n"
        as_json = ("report", "so8", "4,4", "--label", "II", "--format", "json")
        as_text = ("report", "so8", "4,4")
        rejected = ("report", "so8", "4,4", "--label", "II", "extra")
        valid = ("atlas", "sl4", "--format", "csv")
        for first, second in ((main, through_the_top_level), (through_the_top_level, main)):
            code, out, err = outcome(first, as_json)
            assert (code, json.loads(out)["very_even_label"], err) == (0, "II", "")
            code, out, err = outcome(second, as_text)
            assert (code, out, err) == (0, text, "")
            code, out, err = outcome(first, rejected)
            assert (code, out) == (("SystemExit", 2), "")
            assert err.endswith("orbitres: error: unrecognized arguments: extra\n")
            assert outcome(second, valid) == outcome(first, valid)
            assert outcome(second, valid)[1].count("\n") == 6  # a header and five orbits
