from __future__ import annotations

import json

import pytest
from hypothesis import given

from common import valid_orbits
import orbitres.resolution as resolution_module
from orbitres import Family, LieType, Verdict, admits_symplectic_resolution, validate_orbit
from orbitres.errors import CrossCheckMismatch, NotInDatabase, UnknownAlgebra
from orbitres.orbits import VeryEvenLabel, is_even_orbit
from orbitres.resolution import (
    EXCEPTIONAL_TABLE,
    ExceptionalAlgebra,
    ResolutionWitness,
    Route,
    closed_form_verdict,
    exceptional_table_json,
    lookup_exceptional,
)

SL9 = LieType(Family.SL, 9)
SP6 = LieType(Family.SP, 6)
SO7 = LieType(Family.SO_ODD, 7)
SO8 = LieType(Family.SO_EVEN, 8)


class TestClosedForm:
    def test_sl_always_yes(self):
        verdict = closed_form_verdict(validate_orbit(SL9, (4, 3, 1, 1)))
        assert verdict.answer is Verdict.YES
        assert verdict.route is Route.ALWAYS_SLN

    def test_so7_examples(self):
        verdict = closed_form_verdict(validate_orbit(SO7, (3, 2, 2)))
        assert verdict.answer is Verdict.YES
        assert verdict.witness.q == 1
        assert closed_form_verdict(validate_orbit(SO7, (2, 2, 1, 1, 1))).answer is Verdict.NO

    def test_sp6_examples(self):
        assert closed_form_verdict(validate_orbit(SP6, (4, 1, 1))).answer is Verdict.NO
        assert closed_form_verdict(validate_orbit(SP6, (2, 1, 1, 1, 1))).answer is Verdict.NO
        yes_all_odd = closed_form_verdict(validate_orbit(SP6, (3, 3)))
        assert yes_all_odd.answer is Verdict.YES and yes_all_odd.witness.q == 2
        yes_all_even = closed_form_verdict(validate_orbit(SP6, (2, 2, 2)))
        assert yes_all_even.answer is Verdict.YES and yes_all_even.witness.q == 0

    def test_so8_examples(self):
        assert closed_form_verdict(validate_orbit(SO8, (3, 2, 2, 1))).answer is Verdict.NO
        assert closed_form_verdict(validate_orbit(SO8, (2, 2, 1, 1, 1, 1))).answer is Verdict.NO
        prefix = closed_form_verdict(validate_orbit(SO8, (5, 1, 1, 1)))
        assert prefix.answer is Verdict.YES and prefix.witness.q == 4

    def test_so_even_pair_clause(self):
        # two odd parts at positions 1, 2: the q = 2 prefix is excluded, the
        # adjacent-pair clause applies with k = 1
        verdict = closed_form_verdict(validate_orbit(SO8, (5, 3)))
        assert verdict.answer is Verdict.YES
        assert verdict.witness.pair_position == 1

    def test_pair_clause_position_k(self):
        for n in (3, 5, 7):
            lie_type = LieType(Family.SO_EVEN, 2 * n)
            verdict = closed_form_verdict(validate_orbit(lie_type, (2,) * (n - 1) + (1, 1)))
            assert verdict.answer is Verdict.YES
            assert verdict.witness.pair_position == (n + 1) // 2

    def test_pair_clause_needs_alignment(self):
        # four odd parts: neither clause applies
        orbit = validate_orbit(LieType(Family.SO_EVEN, 12), (3, 3, 2, 2, 1, 1))
        assert closed_form_verdict(orbit).answer is Verdict.NO


class TestDispatcher:
    def test_sl_route(self):
        verdict = admits_symplectic_resolution(validate_orbit(SL9, (4, 3, 1, 1)))
        assert verdict.route is Route.ALWAYS_SLN
        assert verdict.cross_checked is False

    def test_bcd_cross_checked(self):
        verdict = admits_symplectic_resolution(validate_orbit(SO8, (3, 2, 2, 1)))
        assert verdict.answer is Verdict.NO
        assert verdict.cross_checked is True
        verdict = admits_symplectic_resolution(validate_orbit(SP6, (2, 1, 1, 1, 1)))
        assert verdict.answer is Verdict.NO
        assert verdict.cross_checked is True

    def test_yes_carries_witness_for_bcd(self):
        verdict = admits_symplectic_resolution(validate_orbit(SO7, (3, 2, 2)))
        assert verdict.answer is Verdict.YES
        assert verdict.witness is not None

    @given(valid_orbits())
    def test_classical_path_never_unknown(self, orbit):
        assert admits_symplectic_resolution(orbit).answer in (Verdict.YES, Verdict.NO)

    def test_mismatch_raises(self, monkeypatch):
        orbit = validate_orbit(SO7, (3, 2, 2))
        monkeypatch.setattr(resolution_module, "resolution_by_search", lambda _: False)
        with pytest.raises(CrossCheckMismatch):
            admits_symplectic_resolution(orbit)

    def test_verdict_independent_of_label(self):
        for parts in ((4, 4), (2, 2, 2, 2)):
            one = admits_symplectic_resolution(validate_orbit(SO8, parts, VeryEvenLabel.I))
            two = admits_symplectic_resolution(validate_orbit(SO8, parts, VeryEvenLabel.II))
            assert one == two

    def test_verdict_json(self):
        verdict = admits_symplectic_resolution(validate_orbit(SO7, (3, 2, 2)))
        payload = verdict.to_json_dict()
        assert payload == {
            "answer": "yes",
            "route": "closed_form",
            "witness": {"q": 1},
            "cross_checked": True,
        }
        json.dumps(payload)


class TestWitness:
    def test_exactly_one_field(self):
        with pytest.raises(ValueError):
            ResolutionWitness()
        with pytest.raises(ValueError):
            ResolutionWitness(q=1, pair_position=2)
        assert ResolutionWitness(q=0).to_json_dict() == {"q": 0}
        assert ResolutionWitness(pair_position=2).to_json_dict() == {"pair_position": 2}


class TestSpringerConsistency:
    """Even orbits carry Springer's resolution, so both routes must say yes."""

    def test_examples(self):
        assert admits_symplectic_resolution(validate_orbit(SO8, (5, 3))).answer is Verdict.YES
        assert admits_symplectic_resolution(validate_orbit(SP6, (2, 2, 2))).answer is Verdict.YES
        assert admits_symplectic_resolution(validate_orbit(SL9, (4, 3, 1, 1))).answer is Verdict.YES

    @given(valid_orbits())
    def test_holds_universally(self, orbit):
        if is_even_orbit(orbit):
            assert admits_symplectic_resolution(orbit).answer is Verdict.YES


class TestExceptional:
    def test_table_shape(self):
        by_algebra = {}
        for record in EXCEPTIONAL_TABLE:
            by_algebra.setdefault(record.algebra, []).append(record)
        assert len(by_algebra[ExceptionalAlgebra.F4]) == 1
        assert len(by_algebra[ExceptionalAlgebra.E6]) == 5
        assert len(by_algebra[ExceptionalAlgebra.E7]) == 5
        assert len(by_algebra[ExceptionalAlgebra.E8]) == 7
        assert ExceptionalAlgebra.G2 not in by_algebra
        e7 = [r.verdict for r in by_algebra[ExceptionalAlgebra.E7]]
        assert e7.count(Verdict.YES) == 2 and e7.count(Verdict.UNKNOWN) == 3
        e8 = [r.verdict for r in by_algebra[ExceptionalAlgebra.E8]]
        assert e8.count(Verdict.YES) == 3 and e8.count(Verdict.UNKNOWN) == 4

    def test_labels_unique_per_algebra(self):
        keys = [(r.algebra, r.label) for r in EXCEPTIONAL_TABLE]
        assert len(keys) == len(set(keys))

    def test_lookups(self):
        assert lookup_exceptional("E6", "A3").verdict is Verdict.YES
        assert lookup_exceptional("E8", "D7(a2)").verdict is Verdict.UNKNOWN
        assert lookup_exceptional("E7", "D4(a1)+A1").verdict is Verdict.UNKNOWN
        assert lookup_exceptional("E8", "E7(a1)").verdict is Verdict.YES
        assert lookup_exceptional("F4", "C3").verdict is Verdict.YES
        assert lookup_exceptional("E6", "2A1").verdict is Verdict.YES

    def test_lookup_normalizes_spacing_and_case(self):
        assert lookup_exceptional("e6", "a4 + a1").verdict is Verdict.YES
        assert lookup_exceptional(ExceptionalAlgebra.E8, "E6(A1)+A1").verdict is Verdict.UNKNOWN

    def test_misses(self):
        with pytest.raises(NotInDatabase):
            lookup_exceptional("G2", "G2(a1)")
        with pytest.raises(NotInDatabase):
            lookup_exceptional("E6", "A1")
        with pytest.raises(UnknownAlgebra):
            lookup_exceptional("E9", "A1")

    def test_guidance_mentions_springer(self):
        with pytest.raises(NotInDatabase) as info:
            lookup_exceptional("G2", "G2(a1)")
        assert "Springer" in str(info.value)

    def test_export_round_trips(self):
        payload = exceptional_table_json()
        assert len(payload) == len(EXCEPTIONAL_TABLE)
        parsed = json.loads(json.dumps(payload))
        assert parsed == payload
        assert {"algebra", "label", "verdict", "note"} == set(parsed[0])
