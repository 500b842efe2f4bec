from __future__ import annotations

import io
import json
import os
import re
import sys
import tracemalloc
from itertools import chain

import pytest
from hypothesis import given, settings

from common import bcd_orbits_up_to, expected_report_dict, json_text, orbits_up_to
import orbitres.cli as cli
import orbitres.orbits as orbits
import orbitres.report as report_module
from orbitres import (
    Family,
    LieType,
    build_report,
    enumerate_orbits,
    parse_algebra,
    parse_partition,
    validate_orbit,
)
from orbitres.errors import OrbitresError
from orbitres.hesselink import HesselinkAnalysis, RecordRuns, admissible_reports
from orbitres.orbits import Partition, VeryEvenLabel
from orbitres.report import atlas_csv, atlas_json, atlas_markdown, report_text


def _count_calls(monkeypatch, original) -> list:
    """Rebind every orbitres module-level name bound to ``original``,
    wherever it was imported, to a wrapper that records its first argument."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0] if args else None)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "orbitres" or name.startswith("orbitres."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_profile_computed_once_per_report(monkeypatch):
    """A report and every rendering of it build the orbit's profile once:
    the Picard formulas and the renderings share it."""
    calls = _count_calls(monkeypatch, orbits.profile)
    for family, m in ((Family.SL, 6), (Family.SP, 8), (Family.SO_ODD, 9), (Family.SO_EVEN, 8)):
        for orbit in enumerate_orbits(LieType(family, m)):
            calls.clear()
            report = build_report(orbit)
            json_text(report)
            report_text(report)
            report_module._atlas_row(report)
            assert calls == [orbit]


def test_selfcheck_builds_profiles_for_sp_so_only(monkeypatch):
    """sl orbits need no profile in the sweep."""
    calls = _count_calls(monkeypatch, orbits.profile)
    assert cli.run_selfcheck(10, out=io.StringIO()) == 0
    bcd = [
        orbit
        for family, low in ((Family.SP, 2), (Family.SO_ODD, 3), (Family.SO_EVEN, 4))
        for m in range(low, 11, 2)
        for orbit in enumerate_orbits(LieType(family, m))
    ]
    assert calls == bcd


def test_text_report_builds_no_dual_partition():
    """The text of sl_1000000 [1000000] needs no O(d_1) object: only the
    JSON text has an "s" map, and it writes the map by stretch of equal
    values without building the dual partition."""
    lie_type = LieType(Family.SL, 1_000_000)
    tracemalloc.start()
    try:
        text = report_text(build_report(validate_orbit(lie_type, (1_000_000,))))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.startswith("sl1000000 [1000000]")
    assert peak < 1 << 20, peak


def test_text_table_and_selfcheck_never_expand_the_parts(monkeypatch):
    """The text report, the atlas rows, the selfcheck sweep and the JSON
    text read the stored runs alone: none reads ``Partition.parts``, the
    O(N) expansion."""
    reads = []
    expand = Partition.parts.fget
    monkeypatch.setattr(Partition, "parts", property(lambda self: reads.append(self) or expand(self)))
    for family, m in ((Family.SL, 6), (Family.SP, 8), (Family.SO_ODD, 9), (Family.SO_EVEN, 8)):
        for orbit in enumerate_orbits(LieType(family, m)):
            report = build_report(orbit)
            report_text(report)
            report_module._atlas_row(report)
            json_text(report)
    assert cli.run_selfcheck(10, out=io.StringIO()) == 0
    assert reads == []


@pytest.mark.parametrize(
    "lie_type", [LieType(Family.SP, 8), LieType(Family.SO_ODD, 9), LieType(Family.SO_EVEN, 8)]
)
def test_records_built_only_where_rendered(monkeypatch, lie_type):
    """A report and its text, table and JSON renderings build one Hesselink
    record per witness, by HesselinkAnalysis._witness, and no other: the
    JSON writes the other admissible q from their runs, and the records it
    writes are those ``admissible_reports`` yields."""
    built = []
    original = HesselinkAnalysis._witness

    def counted(self, q, u):
        record = original(self, q, u)
        built.append(record)
        return record

    def refuse(self):
        raise AssertionError("records built from their runs")

    monkeypatch.setattr(HesselinkAnalysis, "_witness", counted)
    for orbit in enumerate_orbits(lie_type):
        built.clear()
        report = build_report(orbit)
        report_text(report)
        atlas_markdown([report], "atlas", io.StringIO())
        atlas_csv([report], io.StringIO())
        with monkeypatch.context() as patch:
            patch.setattr(RecordRuns, "__iter__", refuse)
            written = json.loads(json_text(report))["hesselink"]
        pol = report.resolution.polarizability
        assert built == list(pol.witnesses), orbit
        expected = [(r.q, str(r.u), r.in_image, r.N_P) for r in admissible_reports(pol)]
        assert [(r["q"], r["u"], r["in_image"], r["N_P"]) for r in written] == expected, orbit


def atlas_item(report) -> str:
    """The report's JSON text as an item of an atlas array, through the
    frame ``atlas_json`` builds for its algebra."""
    return json_text(report, frame=report_module._JsonFrame(report.orbit.lie_type, "\n  "))


@settings(max_examples=300, deadline=None)
@given(orbits_up_to(40))
def test_json_text_is_json_dumps(orbit):
    """An orbit's JSON text is what json.dumps writes for the reference dict,
    on its own and as an item of an atlas array."""
    report = build_report(orbit)
    expected = expected_report_dict(report)
    assert json_text(report) == json.dumps(expected, indent=2)
    assert "[\n  " + atlas_item(report) + "\n]" == json.dumps([expected], indent=2)


@pytest.mark.parametrize("obj", [
    ("sp8", "1^8", None),  # the zero orbit: a q witness, j1 a number
    ("so8", "4,4", VeryEvenLabel.II),  # very even; j1 missing, an unresolved extension
    ("sl6", "3,2,1", None),  # no Hesselink records, no witnesses, a null witness
    ("sp10", "4,2,2,1,1", None),  # not polarizable: empty witnesses, torsion [2, 2]
    ("so8", "5,3", None),  # an adjacent-pair witness, J empty
])
def test_json_text_fixed_cases(obj):
    algebra, partition, label = obj
    orbit = validate_orbit(parse_algebra(algebra), parse_partition(partition), label)
    report = build_report(orbit)
    assert json_text(report) == json.dumps(expected_report_dict(report), indent=2)


@pytest.mark.parametrize("argv", [
    ("sl15", "5,4,3,2,1"),  # every run one part, every stretch of the "s" map one key
    ("sl3000", "1000^2,7^100,1^300"),  # long runs; a stretch of keys of one to four digits
    ("sp2024", "1009^2,3^2"),  # two runs, "s" keys of every width up to 1009, records
    ("so1001", "99^3,22^2,1^660"),  # a long last run and many records
    ("sl70000", "1^70000"),  # more parts than a piece of text holds: the head written alone
    ("sl70001", "70000,1"),  # more "s" keys than that: the stretch made a block at a time
], ids=" ".join)
def test_json_text_across_runs(argv):
    """The text of a run, and of a stretch of the "s" map, meets the next
    one's with the commas and indentation of json.dumps, alone and as an
    item of an atlas array."""
    algebra, partition = argv
    report = build_report(validate_orbit(parse_algebra(algebra), parse_partition(partition)))
    expected = expected_report_dict(report)
    assert json_text(report) == json.dumps(expected, indent=2)
    assert "[\n  " + atlas_item(report) + "\n]" == json.dumps([expected], indent=2)


@pytest.mark.parametrize("argv", [
    ("sp512", "1^512"), ("so512", "1^512"), ("so513", "1^513"),  # the zero orbits
    ("sp512", "2^64,1^384"), ("so512", "2^64,1^384"), ("so513", "2^64,1^385"),
    ("so513", "453,24^2,6^2"), ("sp256", "101^2,54"),  # few parts
    ("so512", "256^2", "--label", "I"), ("so512", "256^2", "--label", "II"),
], ids=" ".join)
def test_cli_json_is_json_dumps_at_benchmark_sizes(capsys, argv):
    """At the sizes the benchmark asks for, where the records span several
    runs and a [1^m] writes its records in many pieces, the CLI's JSON is
    the json.dumps text of the reference dict and a newline."""
    algebra, partition, *label = argv
    assert cli.main(["report", algebra, partition, "--format", "json", *label]) == 0
    lie_type = parse_algebra(algebra)
    label = VeryEvenLabel(label[1]) if label else None
    report = build_report(validate_orbit(lie_type, parse_partition(partition, lie_type.m), label))
    assert capsys.readouterr().out == json.dumps(expected_report_dict(report), indent=2) + "\n"


def test_json_report_is_written_in_bounded_memory(monkeypatch):
    """sp2000 [1^2000] writes 27 MB of JSON, 1001 records each repeating a
    J of 2000 entries, in pieces: rendering it peaks under 2 MB."""
    with open(os.devnull, "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            code = cli.main(["report", "sp2000", "1^2000", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2 << 20, peak


def test_size_bound_is_below_the_text(monkeypatch):
    """The size a JSON report is refused by, read off O(k) facts, never
    exceeds its text, alone or in an atlas: with the limit at 0 every report
    is refused, naming that size.  The two largest reports the limit lets
    through pass it."""
    texts = {}
    sl = (o for m in range(1, 10) for o in enumerate_orbits(LieType(Family.SL, m)))
    large = (validate_orbit(parse_algebra(algebra), parse_partition(partition))
             for algebra, partition in (("sl2000", "1^2000"), ("sl2000", "2000"), ("sp2000", "1^2000")))
    for orbit in chain(sl, bcd_orbits_up_to(14), large):  # large: N, d_1 or J sets the size
        report = build_report(orbit)
        texts[orbit] = (report, min(len(json_text(report)), len(atlas_item(report))))
    for algebra, partition, size in (("sp4000", "1^4000", 110_198_252),
                                     ("sp2000000", "2000000", 217_223_306)):
        orbit = validate_orbit(parse_algebra(algebra), parse_partition(partition))
        texts[orbit] = (build_report(orbit), min(size, report_module.MAX_JSON_BYTES))
    monkeypatch.setattr(report_module, "MAX_JSON_BYTES", 0)
    for orbit, (report, size) in texts.items():
        with pytest.raises(OrbitresError) as refused:
            json_text(report)
        floor = re.fullmatch(rf"the JSON report of {re.escape(str(orbit))} takes at least (\d+) "
                             r"bytes, over its limit of 0; the text report has no limit",
                             str(refused.value))
        assert 0 < int(floor.group(1)) <= size, orbit


def test_atlas_json_is_json_dumps_written_as_it_goes():
    """An atlas is the json.dumps text of its reports' array; a report that
    fails leaves the array so far, unclosed.  The four algebras between
    them meet very even I/II pairs, an unresolved extension, a pair-position
    witness, empty and non-empty torsion, and many lengths of int arrays at
    each indentation, all from one frame per atlas; an iterable that mixes
    algebras is written as well."""
    atlases = [
        [build_report(orbit) for orbit in enumerate_orbits(lie_type)]
        for lie_type in (LieType(Family.SL, 6), LieType(Family.SP, 8),
                         LieType(Family.SO_ODD, 7), LieType(Family.SO_EVEN, 8))
    ]
    for reports in atlases + [[r for reports in atlases for r in reports[:3]]]:
        out = io.StringIO()
        atlas_json(iter(reports), out)
        expected = json.dumps([expected_report_dict(r) for r in reports], indent=2)
        assert out.getvalue() == expected + "\n"
    out = io.StringIO()
    atlas_json([], out)
    assert out.getvalue() == json.dumps([], indent=2) + "\n"
    reports = atlases[2]

    def first_then_fail():
        yield reports[0]
        raise RuntimeError("report failed")

    out = io.StringIO()
    with pytest.raises(RuntimeError):
        atlas_json(first_then_fail(), out)
    assert out.getvalue() == "[\n  " + atlas_item(reports[0])


@pytest.mark.parametrize("fmt", ["md", "csv"])
def test_atlas_table_is_written_as_it_goes(fmt):
    """A markdown or CSV atlas is written one row per report as the
    iterable yields it: a report that fails after k leaves the header and
    k rows."""
    reports = [build_report(orbit) for orbit in enumerate_orbits(LieType(Family.SO_ODD, 7))]

    def write(reports, out):
        if fmt == "md":
            atlas_markdown(reports, "atlas", out)
        else:
            atlas_csv(reports, out)

    whole = io.StringIO()
    write(iter(reports), whole)
    lines = whole.getvalue().splitlines(keepends=True)
    header = 4 if fmt == "md" else 1  # the heading, a blank line, the column names, the rule
    assert len(lines) == header + len(reports) + (2 if fmt == "md" else 0)
    for k in range(len(reports)):
        def first_k_then_fail():
            yield from reports[:k]
            raise RuntimeError("report failed")

        out = io.StringIO()
        with pytest.raises(RuntimeError):
            write(first_k_then_fail(), out)
        assert out.getvalue() == "".join(lines[:header + k])


def test_atlas_json_renders_through_report_json_with_one_frame(monkeypatch):
    """``atlas_json`` renders each orbit by calling the module-level name
    ``report_json`` (the one perfbench/tracing.py rebinds) and builds one
    frame for the whole atlas; a lone ``report_json`` builds its own."""
    lie_type = LieType(Family.SP, 8)
    reports = [build_report(orbit) for orbit in enumerate_orbits(lie_type)]
    rendered = _count_calls(monkeypatch, report_module.report_json)
    frames = _count_calls(monkeypatch, report_module._JsonFrame)
    atlas_json(reports, io.StringIO())
    assert rendered == reports
    assert frames == [lie_type]
    frames.clear()
    report_module.report_json(reports[0], io.StringIO())
    assert frames == [lie_type]


def test_selfcheck_tests_evenness_once_per_orbit(monkeypatch):
    """The sweep asks ``is_even_orbit`` once per orbit, through any binding,
    and the profile asks it nothing."""
    calls = _count_calls(monkeypatch, orbits.is_even_orbit)
    assert cli.run_selfcheck(10, out=io.StringIO()) == 0
    swept = [
        orbit
        for family in Family
        for m in range(family.min_m, 11, 1 if family is Family.SL else 2)
        for orbit in enumerate_orbits(LieType(family, m))
    ]
    assert calls == swept
