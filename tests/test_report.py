from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import orbitres.orbits as orbits
from orbitres import Family, LieType, build_report, enumerate_orbits
from orbitres.hesselink import HesselinkReport
from orbitres.report import atlas_csv, atlas_markdown, json_text, report_json, report_text

# Text that json.dumps has to escape: quotes, backslashes, control and
# non-ASCII characters (the BMP, the astral planes and a lone surrogate).
TEXT = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600ab') | st.characters())
INTS = st.integers() | st.integers(-(10**40), 10**40) | st.integers(0, 3)
SCALARS = st.none() | st.booleans() | INTS | TEXT
JSON_TREES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(st.integers(0, 3) | st.booleans(), max_size=4)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=40,
)


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


@given(JSON_TREES)
def test_json_text_is_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    {"a": [1, 2], "b": [[1, 2], {"c": [1, 2]}], "d": [1, 2]},  # one int list at three depths
    [[1, 1], [True, True], [1, True], [1, 1]],  # equal values, different types
    [{}, [], [[]], {"e": {}}, [{}]],
    [0, -1, 2**100, -(2**100)],
])
def test_json_text_fixed_cases(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [(1, 2), [1.5], {"a": {1: "b"}}, [{"a": (1,)}]])
def test_json_text_rejects_non_native_input(obj):
    with pytest.raises(TypeError):
        json_text(obj)
