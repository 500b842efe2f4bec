from __future__ import annotations

import csv
import io
import json
import os
import re
import sys
import tracemalloc
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings

from common import (
    bcd_orbits_up_to,
    expected_csv,
    expected_markdown,
    expected_report_dict,
    expected_text,
    json_text,
    orbits_up_to,
)
import orbitres.cli as cli
import orbitres.orbits as orbits
import orbitres.report as report_module
from orbitres import (
    Family,
    LieType,
    Verdict,
    admits_symplectic_resolution,
    build_report,
    enumerate_orbits,
    parse_algebra,
    parse_partition,
    validate_orbit,
)
from orbitres.errors import OrbitresError
from orbitres.hesselink import (
    HesselinkAnalysis,
    PolarizabilityResult,
    RecordRuns,
    admissible_reports,
)
from orbitres.orbits import ClassicalOrbit, Partition, VeryEvenLabel
from orbitres.picard import AbelianGroupDescriptor, q_factorial_certificate
from orbitres.report import OrbitReport, atlas_csv, atlas_json, atlas_markdown, report_text


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
            next(report_module._atlas_rows([report]))
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
            next(report_module._atlas_rows([report]))
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
    report = build_report(validate_orbit(lie_type, parse_partition(partition), label))
    assert capsys.readouterr().out == json.dumps(expected_report_dict(report), indent=2) + "\n"


@pytest.mark.parametrize("algebra, partition, group, certificate", [
    ("so7", "3,1^4", AbelianGroupDescriptor(1), "not_certified"),
    ("sp4", "2,2", AbelianGroupDescriptor(0, (2,)), "certified"),
])
def test_renderings_read_the_certificate_off_the_group_they_show(algebra, partition, group,
                                                                 certificate):
    """A report stores no Q-factoriality certificate: with its Picard group
    swapped, the JSON, text, markdown and CSV renderings each print the
    certificate of the group they print beside it, in a call after one that
    showed the orbit's own group and in one call beside that group."""
    assert OrbitReport._fields == ("orbit", "dimension", "picard", "factorial", "resolution")
    lie_type = parse_algebra(algebra)
    own = build_report(validate_orbit(lie_type, parse_partition(partition)))
    assert own.picard != group
    report = own._replace(picard=group)
    own_cells = (str(own.picard), q_factorial_certificate(own.picard).value)
    for first in ([], [own]):  # the own group first in an earlier call, then in the same one
        json_text(own)
        written = json.loads(json_text(report))
        assert written["picard"]["free_rank"] == group.free_rank
        assert written["q_factorial_certificate"] == certificate
        items = io.StringIO()
        atlas_json(first + [report], items)
        assert json.loads(items.getvalue())[-1]["q_factorial_certificate"] == certificate
        assert f"  picard         {group}\n  q-factorial    {certificate}\n" in report_text(report)
        table, rows = io.StringIO(), io.StringIO()
        atlas_markdown([own], "atlas", io.StringIO())
        atlas_markdown(first + [report], "atlas", table)
        assert f" | {group} | {certificate} | " in table.getvalue()
        atlas_csv([own], io.StringIO())
        atlas_csv(first + [report], rows)
        cells = [(row["picard"], row["q_factorial"]) for row in csv.DictReader(
            io.StringIO(rows.getvalue()))]
        assert cells == [own_cells] * len(first) + [(str(group), certificate)]


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


def classical_algebras(max_m: int):
    """Every classical algebra with m <= max_m."""
    return [LieType(family, m) for family in Family
            for m in range(family.min_m, max_m + 1, 1 if family is Family.SL else 2)]


def test_atlases_are_their_references_in_every_format():
    """Through the writers' per-call texts, every classical algebra with
    m <= 12 gives the JSON, markdown and CSV atlases of references built
    with nothing kept between orbits, and so does an iterable that mixes
    algebras."""
    atlases = [[build_report(orbit) for orbit in enumerate_orbits(lie_type)]
               for lie_type in classical_algebras(12)]
    assert len(atlases) == 28  # sl1..sl12, sp2..sp12, so3..so11 and so4..so12
    mixed = [report for reports in atlases for report in reports[::3]]
    for reports in atlases + [mixed]:
        text, table, rows = io.StringIO(), io.StringIO(), io.StringIO()
        atlas_json(iter(reports), text)
        assert text.getvalue() == json.dumps([*map(expected_report_dict, reports)], indent=2) + "\n"
        atlas_markdown(iter(reports), "atlas", table)
        assert table.getvalue() == expected_markdown(reports, "atlas")
        atlas_csv(iter(reports), rows)
        assert rows.getvalue() == expected_csv(reports)


def holds_an_answer(key) -> bool:
    """Whether a cache key holds, at any depth, a per-orbit object."""
    if isinstance(key, (OrbitReport, ClassicalOrbit, HesselinkAnalysis, PolarizabilityResult,
                        Partition)):
        return True
    return isinstance(key, tuple) and any(map(holds_an_answer, key))


def test_atlas_caches_hold_one_entry_per_value(monkeypatch):
    """After an sp20 and then an sl20 atlas in each format, each per-call
    text cache holds one entry per distinct value the call's orbits show,
    made on its one miss, the misses in the order the orbits first show the
    values; no key holds a per-orbit object, so no cache grows with the
    orbits; and the second call's caches hold sl20's values alone.  A JSON
    frame keeps four caches, the verdict's keyed by (polarizable, witnesses,
    answer, route, witness, cross_checked) and asked once per orbit for both
    its texts; a table's verdict cells are asked once per orbit too."""
    misses, caches, frames = [], [], []
    lookups = Counter()

    class Texts(report_module._Texts):
        def __init__(self, make):
            super().__init__(make)
            caches.append(self)

        def __getitem__(self, key):
            lookups[id(self)] += 1
            return super().__getitem__(key)

        def __missing__(self, key):
            misses.append((self, key))
            return super().__missing__(key)

    class Frame(report_module._JsonFrame):
        def __init__(self, *args):
            super().__init__(*args)
            frames.append(self)

    def shown(keys_of, reports):
        """The distinct keys of the reports, in the order they first show them."""
        return [*dict.fromkeys(chain.from_iterable(map(keys_of, reports)))]

    def stretches(report):  # its "s" stretches, in the order report_json writes them
        counts = report.orbit.partition.counts
        below, at_least = 0, sum(counts.values())
        for value, count in reversed(counts.items()):
            yield below, value, at_least
            below, at_least = value, at_least - count

    def runs(report):
        return report.orbit.partition.counts.items()

    def groups(report):
        return [report.picard]

    def json_verdicts(report):
        verdict, pol = report.resolution, report.resolution.polarizability
        return [(pol.polarizable, pol.witnesses, verdict.answer, verdict.route, verdict.witness,
                 verdict.cross_checked)]

    def table_verdicts(report):
        verdict, pol = report.resolution, report.resolution.polarizability
        return [(pol.polarizable, pol.witnesses, verdict.answer, verdict.witness)]

    monkeypatch.setattr(report_module, "_Texts", Texts)
    monkeypatch.setattr(report_module, "_JsonFrame", Frame)
    atlases = [[build_report(orbit) for orbit in enumerate_orbits(LieType(family, 20))]
               for family in (Family.SP, Family.SL)]
    for write in (atlas_json, lambda reports, out: atlas_markdown(reports, "atlas", out),
                  atlas_csv):
        for reports in atlases:
            caches.clear()
            lookups.clear()
            write(reports, io.StringIO())
            if write is atlas_json:
                frame = frames.pop()
                assert frames == []
                expected = {"runs": runs, "s": stretches, "groups": groups,
                            "verdicts": json_verdicts}
                held = {name: getattr(frame, name) for name in expected}
                assert {name for name, value in vars(frame).items()
                        if isinstance(value, report_module._Texts)} == set(expected)
            else:
                expected = {"runs": runs, "groups": groups, "verdicts": table_verdicts}
                held = dict(zip(expected, caches))
            assert sorted(map(id, held.values())) == sorted(map(id, caches))
            for name, cache in held.items():
                assert list(cache) == shown(expected[name], reports), name
                assert [key for texts, key in misses if texts is cache] == list(cache), name
                assert not any(map(holds_an_answer, cache)), name
            assert lookups[id(held["verdicts"])] == len(reports)
            assert len(held["groups"]) < 30 and len(held["runs"]) < 130


def test_report_formats_no_run_text_itself(monkeypatch):
    """Every run text the JSON and table renderings show comes from
    ``orbits.compact_run``: with its result marked, each orbit's
    ``partition_compact`` and partition cell is its marked run texts joined."""
    original = orbits.compact_run
    monkeypatch.setattr(report_module, "compact_run", lambda run: f"<{original(run)}>")
    reports = [build_report(orbit) for orbit in enumerate_orbits(LieType(Family.SO_EVEN, 12))]
    marked = [",".join(f"<{original(run)}>" for run in r.orbit.partition.counts.items())
              for r in reports]
    text, rows, table = io.StringIO(), io.StringIO(), io.StringIO()
    atlas_json(reports, text)
    assert [item["partition_compact"] for item in json.loads(text.getvalue())] == marked
    assert [json.loads(json_text(r))["partition_compact"] for r in reports] == marked
    atlas_csv(reports, rows)
    assert [row[0] for row in csv.reader(io.StringIO(rows.getvalue()))][1:] == marked
    atlas_markdown(reports, "atlas", table)
    assert [line.split(" | ")[0][2:] for line in table.getvalue().splitlines()[4:-2]] == marked


def test_text_report_is_its_reference():
    """``report_text`` equals the reference built from the report's fields
    on every classical orbit with m <= 12, zero orbits and very even orbits
    of both labels included."""
    reports = [build_report(orbit) for lie_type in classical_algebras(12)
               for orbit in enumerate_orbits(lie_type)]
    labels = {r.orbit.very_even_label for r in reports}
    assert labels == {None, VeryEvenLabel.I, VeryEvenLabel.II}
    assert any(r.factorial is None for r in reports)
    for report in reports:
        assert report_text(report) == expected_text(report), report.orbit


def test_json_templates_are_made_once_per_process_per_indentation(monkeypatch):
    """The JSON templates depend on the indentation alone: however many
    atlases and lone reports are written, they are made once for each."""
    made = []

    def layout(nl):
        made.append(nl)
        return report_module._json_layout(nl)

    monkeypatch.setattr(report_module, "_LAYOUTS", report_module._Texts(layout))
    for lie_type in (LieType(Family.SP, 8), LieType(Family.SL, 6), LieType(Family.SO_EVEN, 8)):
        reports = [build_report(orbit) for orbit in enumerate_orbits(lie_type)]
        atlas_json(reports, io.StringIO())
        for report in reports[:3]:
            json_text(report)
    assert made == ["\n  ", "\n"]


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


def test_selfcheck_tests_evenness_only_of_unresolved_orbits(monkeypatch):
    """The sweep asks ``is_even_orbit``, through any binding, at most once
    per orbit and exactly of the orbits it judged not resolvable; the
    profile asks it nothing."""
    calls = _count_calls(monkeypatch, orbits.is_even_orbit)
    assert cli.run_selfcheck(10, out=io.StringIO()) == 0
    unresolved = [
        orbit
        for family in Family
        for m in range(family.min_m, 11, 1 if family is Family.SL else 2)
        for orbit in enumerate_orbits(LieType(family, m))
        if admits_symplectic_resolution(orbit).answer is not Verdict.YES
    ]
    assert unresolved
    assert calls == unresolved
