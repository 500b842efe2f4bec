from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from common import (
    bcd_orbits_up_to,
    json_text,
    many_parts_orbits,
    reference_closed_form,
    valid_orbits,
)
import orbitres.resolution as resolution_module
from orbitres import (
    Family,
    LieType,
    Verdict,
    admits_symplectic_resolution,
    build_report,
    enumerate_orbits,
    polarizable,
    validate_orbit,
)
from orbitres.errors import InternalInvariantError, NotInDatabase, OrbitresError
from orbitres.hesselink import SL_POLARIZABILITY
from orbitres.orbits import VeryEvenLabel, is_even_orbit
import orbitres.exceptional as exceptional_module
from orbitres.exceptional import (
    EXCEPTIONAL_ALGEBRAS,
    EXCEPTIONAL_TABLE,
    exceptional_answer,
    exceptional_export,
    exceptional_records,
    lookup_exceptional,
)
from orbitres.resolution import ResolutionWitness, Route, closed_form_verdict

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

    def test_matches_the_per_position_statement(self):
        orbits = list(bcd_orbits_up_to(30))
        assert len(orbits) == 10756
        for orbit in orbits:
            verdict = closed_form_verdict(orbit)
            assert verdict.witness == reference_closed_form(orbit), orbit
            assert (verdict.answer is Verdict.YES) == (verdict.witness is not None), orbit

    def test_gate_implies_the_parity_and_pair_start_checks(self):
        """The closed form's parity check on q and the pair clause's odd
        start restate the paper but cannot fail on a validated orbit: the
        gate gives the number of odd parts the family's parity (odd parts
        paired in sp, m's parity in so), and in so_{2n} the even parts
        before the first odd one come in pairs, so a lone block of two odd
        parts starts at an odd position."""
        pairs = 0
        for orbit in bcd_orbits_up_to(30):
            odd = [j for j, p in enumerate(orbit.partition.parts, start=1) if p % 2]
            assert len(odd) % 2 == (orbit.lie_type.family is Family.SO_ODD), orbit
            if orbit.lie_type.family is Family.SO_EVEN and len(odd) == 2 and odd[1] == odd[0] + 1:
                assert odd[0] % 2 == 1, orbit
                pairs += 1
        assert pairs > 100

    @given(many_parts_orbits())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_position_statement_on_many_parts(self, orbit):
        assert closed_form_verdict(orbit).witness == reference_closed_form(orbit)

    @pytest.mark.parametrize(
        "lie_type, parts",
        [
            # two separated odd blocks: the one pass stops at the second
            (LieType(Family.SO_ODD, 9), (3, 2, 2, 1, 1)),
            (SO8, (3, 2, 2, 1)),
            # a block of two odd parts starting at position 2: no prefix, and
            # the pair clause is so_{2n}'s alone
            (LieType(Family.SP, 4), (2, 1, 1)),
        ],
    )
    def test_fixed_cases_against_the_per_position_statement(self, lie_type, parts):
        orbit = validate_orbit(lie_type, parts)
        verdict = closed_form_verdict(orbit)
        assert reference_closed_form(orbit) is None
        assert verdict.answer is Verdict.NO and verdict.witness is None


class TestDispatcher:
    def test_sl_route(self):
        verdict = admits_symplectic_resolution(validate_orbit(SL9, (4, 3, 1, 1)))
        assert verdict.route is Route.ALWAYS_SLN
        assert verdict.cross_checked is False

    def test_sl_answer_is_the_closed_form(self):
        """sl has one verdict: the dispatcher answers every sl orbit with
        the very object the closed form returns, which carries sl's trivial
        polarizability and so is not cross-checked."""
        for m in range(1, 13):
            for orbit in enumerate_orbits(LieType(Family.SL, m)):
                verdict = admits_symplectic_resolution(orbit)
                assert verdict is closed_form_verdict(orbit)
                assert verdict.polarizability is SL_POLARIZABILITY
                assert verdict.cross_checked is False
                assert verdict.answer is Verdict.YES
                assert verdict.route is Route.ALWAYS_SLN

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
        with pytest.raises(InternalInvariantError, match="^closed form says yes but the degree search says no for so7 "):
            admits_symplectic_resolution(orbit)

    def test_verdict_independent_of_label(self):
        for parts in ((4, 4), (2, 2, 2, 2)):
            one = admits_symplectic_resolution(validate_orbit(SO8, parts, VeryEvenLabel.I))
            two = admits_symplectic_resolution(validate_orbit(SO8, parts, VeryEvenLabel.II))
            assert one == two

    def test_verdict_json(self):
        report = build_report(validate_orbit(SO7, (3, 2, 2)))
        payload = json.loads(json_text(report))["resolution"]
        assert payload == {
            "answer": "yes",
            "route": "closed_form",
            "witness": {"q": 1},
            "cross_checked": True,
        }
        json.dumps(payload)


class TestWitness:
    def test_exactly_one_field(self):
        for make in (ResolutionWitness, lambda: ResolutionWitness(q=1, pair_position=2)):
            with pytest.raises(InternalInvariantError, match="^exactly one of q and pair_position"):
                make()
        report = build_report(validate_orbit(SO7, (3, 2, 2)))

        def witness_json(witness):
            verdict = report.resolution._replace(witness=witness)
            text = json_text(report._replace(resolution=verdict))
            return json.loads(text)["resolution"]["witness"]

        assert witness_json(ResolutionWitness(q=0)) == {"q": 0}
        assert witness_json(ResolutionWitness(pair_position=2)) == {"pair_position": 2}


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


def component_group_order(orbit) -> int:
    """|A(O)|, the order of the component group of the centralizer, from the
    distinct part values alone (Collingwood-McGovern Cor. 6.1.6):
    2^(distinct even parts) for sp, 2^max(0, distinct odd parts - 1) for so."""
    values = orbit.partition.counts
    if orbit.lie_type.family is Family.SP:
        return 2 ** sum(1 for v in values if v % 2 == 0)
    return 2 ** max(0, sum(1 for v in values if v % 2) - 1)


class TestComponentGroup:
    """A polarization's collapsing degree is an index in A(O), so it divides
    |A(O)|; with A(O) trivial every witness has degree 1, and the orbit is
    resolvable."""

    def test_degrees_divide_the_component_group(self):
        tight = trivial = 0
        for orbit in bcd_orbits_up_to(30):
            order = component_group_order(orbit)
            witnesses = polarizable(orbit).witnesses
            assert all(order % w.N_P == 0 for w in witnesses), (orbit, order, witnesses)
            tight += sum(w.N_P == order for w in witnesses)
            if order == 1 and witnesses:
                assert admits_symplectic_resolution(orbit).answer is Verdict.YES, orbit
                trivial += 1
        # a degree lowered by a factor 2 still divides: the tight count sees it
        assert (tight, trivial) == (1189, 525)


class TestExceptional:
    def test_table_shape(self):
        by_algebra = {}
        for record in EXCEPTIONAL_TABLE:
            by_algebra.setdefault(record.algebra, []).append(record)
        assert set(by_algebra) < set(EXCEPTIONAL_ALGEBRAS)
        assert len(by_algebra["F4"]) == 1
        assert len(by_algebra["E6"]) == 5
        assert len(by_algebra["E7"]) == 5
        assert len(by_algebra["E8"]) == 7
        assert "G2" not in by_algebra
        e7 = [r.verdict for r in by_algebra["E7"]]
        assert e7.count(Verdict.YES) == 2 and e7.count(Verdict.UNKNOWN) == 3
        e8 = [r.verdict for r in by_algebra["E8"]]
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
        assert lookup_exceptional(" E8 ", "E6(A1)+A1").verdict is Verdict.UNKNOWN

    def test_misses(self):
        with pytest.raises(NotInDatabase):
            lookup_exceptional("G2", "G2(a1)")
        with pytest.raises(NotInDatabase):
            lookup_exceptional("E6", "A1")
        with pytest.raises(OrbitresError, match="^unknown exceptional algebra 'E9' "):
            lookup_exceptional("E9", "A1")

    def test_guidance_mentions_springer(self):
        with pytest.raises(NotInDatabase) as info:
            lookup_exceptional("G2", "G2(a1)")
        assert "Springer" in str(info.value)

    def test_export_round_trips(self):
        """The export holds each record's four fields in order, the verdict
        by value, for the whole table or one algebra."""
        for algebra in (None, *EXCEPTIONAL_ALGEBRAS, " e7 "):
            parsed = json.loads(exceptional_export(algebra))
            assert parsed == [
                {"algebra": r.algebra, "label": r.label, "verdict": r.verdict.value, "note": r.note}
                for r in exceptional_records(algebra)]
        assert len(json.loads(exceptional_export())) == len(EXCEPTIONAL_TABLE)
        assert list(json.loads(exceptional_export())[0]) == ["algebra", "label", "verdict", "note"]

    def test_lookup_normalizes_only_the_label_it_was_given(self, monkeypatch):
        """The table is keyed once: a lookup, hit or miss, and the command's
        answer normalize the one label they were given, and no stored one."""
        seen = []
        original = exceptional_module._normalize_label
        monkeypatch.setattr(exceptional_module, "_normalize_label",
                            lambda label: seen.append(label) or original(label))
        for function, algebra, label in ((lookup_exceptional, "E7", "D5 + A1"),
                                         (exceptional_answer, "e8", "E7(a1)"),
                                         (exceptional_answer, "G2", "G2(a1)")):
            seen.clear()
            function(algebra, label)
            assert seen == [label]
        seen.clear()
        with pytest.raises(NotInDatabase):
            lookup_exceptional("E6", "A1")
        assert seen == ["A1"]

    def test_unknown_algebra_message_lists_every_algebra(self):
        expected = ", ".join(EXCEPTIONAL_ALGEBRAS[:-1]) + " or " + EXCEPTIONAL_ALGEBRAS[-1]
        with pytest.raises(OrbitresError) as info:
            exceptional_answer("E9", "A1")
        assert str(info.value) == f"unknown exceptional algebra 'E9' (expected {expected})"

    def test_records_of_one_algebra(self):
        e7 = exceptional_records(" e7 ")
        assert [r.label for r in e7] == ["D5+A1", "D6(a1)", "D4(a1)+A1", "A4+A1", "D5(a1)"]
        assert exceptional_records("E7") == e7
        assert {r.algebra for r in e7} == {"E7"}
        assert exceptional_records("G2") == ()
        with pytest.raises(OrbitresError, match="^unknown exceptional algebra 'E9' "):
            exceptional_records("E9")
