from __future__ import annotations

import csv
import io
import json

import pytest

from common import expected_report_dict
import orbitres.cli as cli
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
from orbitres.errors import CrossCheckMismatch
from orbitres.orbits import VeryEvenLabel
from orbitres.report import exceptional_json, report_text
from orbitres.resolution import exceptional_records


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
        # rejected while parsing, before the shorthand is expanded past m;
        # a zero term, which never moves the running sum, before it is expanded
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
            return verdict._replace(answer=Verdict.NO if verdict.answer is Verdict.YES else Verdict.YES)

        monkeypatch.setattr(resolution, "closed_form_verdict", flipped)
        code, out, err = run(capsys, "report", "so7", "3,2,2")
        assert code == 4
        assert out == ""
        assert "internal error, this is a bug" in err

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

    def test_internal_error_leaves_a_truncated_array(self, capsys, monkeypatch):
        original = resolution.closed_form_verdict
        broken = validate_orbit(LieType(Family.SO_ODD, 7), (3, 3, 1))

        def flipped(orbit):
            verdict = original(orbit)
            if orbit != broken:
                return verdict
            return verdict._replace(answer=Verdict.NO if verdict.answer is Verdict.YES else Verdict.YES)

        monkeypatch.setattr(resolution, "closed_form_verdict", flipped)
        code, out, err = run(capsys, "atlas", "so7", "--format", "json")
        assert code == 4
        assert "internal error, this is a bug" in err
        assert out.startswith("[\n  {") and not out.endswith("]\n")
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

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
        code, out, _ = run(capsys, "exceptional", "--export")
        assert code == 0
        assert out == json.dumps(exceptional_json(exceptional_records()), indent=2) + "\n"


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

    def test_failed_checks_are_reported_failed(self, monkeypatch):
        """A check with failures prints FAILED (k of N), never ok."""
        monkeypatch.setattr(cli, "is_even_orbit", lambda orbit: True)
        original = cli.admits_symplectic_resolution
        broken = validate_orbit(LieType(Family.SO_EVEN, 6), (3, 3))

        def dispatch(orbit):
            if orbit == broken:
                raise CrossCheckMismatch("routes disagree")
            return original(orbit)

        monkeypatch.setattr(cli, "admits_symplectic_resolution", dispatch)
        out = io.StringIO()
        assert cli.run_selfcheck(6, out=out) == 6
        lines = out.getvalue().splitlines()
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
