from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings

from common import expected_report_dict, orbits_up_to
import orbitres.orbits as orbits
from orbitres import (
    Family,
    LieType,
    build_report,
    enumerate_orbits,
    parse_algebra,
    parse_partition,
    validate_orbit,
)
from orbitres.hesselink import HesselinkReport
from orbitres.orbits import VeryEvenLabel
from orbitres.report import atlas_csv, atlas_markdown, report_json, report_text


def test_profile_computed_once_per_report(monkeypatch):
    calls = []
    original = orbits.profile

    def counted(orbit):
        calls.append(orbit)
        return original(orbit)

    # rebind every module-level name bound to profile, wherever it was imported
    for name, module in list(sys.modules.items()):
        if name == "orbitres" or name.startswith("orbitres."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    for family, m in ((Family.SL, 6), (Family.SP, 8), (Family.SO_ODD, 9), (Family.SO_EVEN, 8)):
        for orbit in enumerate_orbits(LieType(family, m)):
            calls.clear()
            build_report(orbit)
            assert calls == [orbit]


@pytest.mark.parametrize(
    "lie_type", [LieType(Family.SP, 8), LieType(Family.SO_ODD, 9), LieType(Family.SO_EVEN, 8)]
)
def test_records_built_only_where_rendered(monkeypatch, lie_type):
    """A report and its text and table renderings build one Hesselink record
    per witness; the JSON rendering builds one more per admissible q."""
    built = []
    original = HesselinkReport.__init__

    def counted(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(HesselinkReport, "__init__", counted)
    for orbit in enumerate_orbits(lie_type):
        built.clear()
        report = build_report(orbit)
        report_text(report)
        atlas_markdown([report], "atlas")
        atlas_csv([report])
        pol = report.resolution.polarizability
        assert built == list(pol.witnesses), orbit
        built.clear()
        report_json(report)
        assert [record.q for record in built] == pol.analysis.admissible_qs(), orbit


@settings(max_examples=300, deadline=None)
@given(orbits_up_to(40))
def test_json_text_is_json_dumps(orbit):
    """An orbit's JSON text is what json.dumps writes for the reference dict,
    on its own and as an item of an atlas array."""
    report = build_report(orbit)
    expected = expected_report_dict(report)
    assert report_json(report) == json.dumps(expected, indent=2)
    assert "[\n  " + report_json(report, "\n  ") + "\n]" == json.dumps([expected], indent=2)


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
