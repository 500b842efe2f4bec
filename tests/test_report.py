from __future__ import annotations

import io
import json
import sys
import tracemalloc

import pytest
from hypothesis import given, settings

from common import expected_report_dict, orbits_up_to
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
from orbitres.hesselink import HesselinkAnalysis
from orbitres.orbits import Partition, VeryEvenLabel
from orbitres.report import atlas_csv, atlas_json, atlas_markdown, report_json, report_text


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
            report_json(report)
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
    """The text of sl_1000000 [1000000] needs no O(d_1) object: the dual
    partition is built for JSON alone."""
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
    """The text report, the atlas rows and the selfcheck sweep read the
    stored runs alone; ``Partition.parts``, the O(N) expansion, is read by
    the JSON rendering, which the spy sees."""
    reads = []
    expand = Partition.parts.fget
    monkeypatch.setattr(Partition, "parts", property(lambda self: reads.append(self) or expand(self)))
    for family, m in ((Family.SL, 6), (Family.SP, 8), (Family.SO_ODD, 9), (Family.SO_EVEN, 8)):
        for orbit in enumerate_orbits(LieType(family, m)):
            report = build_report(orbit)
            report_text(report)
            report_module._atlas_row(report)
    assert cli.run_selfcheck(10, out=io.StringIO()) == 0
    assert reads == []
    report_json(report)
    assert reads == [report.orbit.partition]


@pytest.mark.parametrize(
    "lie_type", [LieType(Family.SP, 8), LieType(Family.SO_ODD, 9), LieType(Family.SO_EVEN, 8)]
)
def test_records_built_only_where_rendered(monkeypatch, lie_type):
    """A report and its text and table renderings build one Hesselink record
    per witness; the JSON rendering builds one more per admissible q.  Every
    record is built by HesselinkAnalysis._record."""
    built = []
    original = HesselinkAnalysis._record

    def counted(self, q, in_image):
        record = original(self, q, in_image)
        built.append(record)
        return record

    monkeypatch.setattr(HesselinkAnalysis, "_record", counted)
    for orbit in enumerate_orbits(lie_type):
        built.clear()
        report = build_report(orbit)
        report_text(report)
        atlas_markdown([report], "atlas", io.StringIO())
        atlas_csv([report], io.StringIO())
        pol = report.resolution.polarizability
        assert built == list(pol.witnesses), orbit
        built.clear()
        report_json(report)
        assert [record.q for record in built] == pol.analysis.admissible_qs(), orbit


def atlas_item(report) -> str:
    """The report's JSON text as an item of an atlas array, through the
    frame ``atlas_json`` builds for its algebra."""
    return report_json(report, frame=report_module._JsonFrame(report.orbit.lie_type, "\n  "))


@settings(max_examples=300, deadline=None)
@given(orbits_up_to(40))
def test_json_text_is_json_dumps(orbit):
    """An orbit's JSON text is what json.dumps writes for the reference dict,
    on its own and as an item of an atlas array."""
    report = build_report(orbit)
    expected = expected_report_dict(report)
    assert report_json(report) == json.dumps(expected, indent=2)
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
    assert report_json(report) == json.dumps(expected_report_dict(report), indent=2)


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
    report_module.report_json(reports[0])
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
