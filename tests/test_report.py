from __future__ import annotations

import sys

import orbitres.orbits as orbits
from orbitres import Family, LieType, build_report, enumerate_orbits


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
