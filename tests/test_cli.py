from __future__ import annotations

import csv
import io
import json
from dataclasses import replace

import pytest

import orbitres.cli as cli
import orbitres.resolution as resolution
from orbitres import (
    Family,
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
from orbitres.report import report_json
from orbitres.resolution import exceptional_table_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    @pytest.mark.parametrize("partition", ["1^1000000000000", "4,2^1000000000000", "1^" + "9" * 5000])
    def test_oversized_partition_exits_2(self, capsys, partition):
        # rejected while parsing, before the shorthand is expanded past m
        code, out, err = run(capsys, "report", "sp6", partition)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_cartan_name_accepted(self, capsys):
        code, out, _ = run(capsys, "report", "D4", "5,3", "--format", "json")
        assert code == 0
        assert json.loads(out)["algebra"] == "so8"

    def test_route_mismatch_is_an_internal_error(self, capsys, monkeypatch):
        original = resolution.closed_form_verdict

        def flipped(orbit):
            verdict = original(orbit)
            return replace(verdict, answer=Verdict.NO if verdict.answer is Verdict.YES else Verdict.YES)

        monkeypatch.setattr(resolution, "closed_form_verdict", flipped)
        code, out, err = run(capsys, "report", "so7", "3,2,2")
        assert code == 4
        assert out == ""
        assert "internal error, this is a bug" in err


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
    """Every JSON output is the text json.dumps(..., indent=2) would print."""

    @pytest.mark.parametrize("algebra", ["sp10", "so9", "so8", "sl6"])
    def test_atlas(self, capsys, algebra):
        dicts = [report_json(build_report(o)) for o in enumerate_orbits(parse_algebra(algebra))]
        code, out, _ = run(capsys, "atlas", algebra, "--format", "json")
        assert code == 0
        assert out == json.dumps(dicts, indent=2) + "\n"

    def test_report(self, capsys):
        orbit = validate_orbit(parse_algebra("sp64"), parse_partition("1^64"))
        code, out, _ = run(capsys, "report", "sp64", "1^64", "--format", "json")
        assert code == 0
        assert out == json.dumps(report_json(build_report(orbit)), indent=2) + "\n"

    def test_exceptional_export(self, capsys):
        code, out, _ = run(capsys, "exceptional", "--export")
        assert code == 0
        assert out == json.dumps(exceptional_table_json(), indent=2) + "\n"


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
