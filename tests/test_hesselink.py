from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings

import orbitres.hesselink as hesselink_module
from common import bcd_orbits, bcd_orbits_up_to, many_parts_orbits, reference_analysis
from orbitres import (
    Family,
    HesselinkAnalysis,
    LieType,
    Verdict,
    admissible_reports,
    build_report,
    enumerate_orbits,
    parse_partition,
    polarizable,
    resolution_by_search,
    validate_orbit,
)
from orbitres.cli import _selfcheck_lie_types, main, run_selfcheck
from orbitres.errors import InadmissibleQ, NonIntegralExponent, WrongFamily
from orbitres.hesselink import HesselinkReport
from orbitres.report import report_json, report_text
from orbitres.resolution import closed_form_verdict

SP6 = LieType(Family.SP, 6)
SO7 = LieType(Family.SO_ODD, 7)
SO8 = LieType(Family.SO_EVEN, 8)
SO10 = LieType(Family.SO_EVEN, 10)


def d(text):
    return parse_partition(text)


def analysis(lie_type, text):
    return HesselinkAnalysis.of(validate_orbit(lie_type, d(text)))


def zero_orbit_analysis(lie_type):
    return analysis(lie_type, f"1^{lie_type.m}")


class TestContext:
    """m and epsilon, which the analysis takes from its orbit's algebra."""

    def test_from_orbit(self):
        a = HesselinkAnalysis.of(validate_orbit(SP6, (3, 3)))
        assert (a.m, a.epsilon) == (6, 1)
        a = HesselinkAnalysis.of(validate_orbit(SO7, (7,)))
        assert (a.m, a.epsilon) == (7, 0)

    def test_sl_rejected(self):
        with pytest.raises(WrongFamily):
            HesselinkAnalysis.of(validate_orbit(LieType(Family.SL, 4), (2, 2)))

    def test_symplectic_needs_even_m(self):
        # the algebra rejects an odd symplectic size before any analysis exists
        with pytest.raises(ValueError):
            LieType(Family.SP, 7)


class TestAdmissible:
    def test_orthogonal_excludes_two(self):
        a = zero_orbit_analysis(SO8)
        assert a.admissible_qs() == [0, 4, 6, 8]
        with pytest.raises(InadmissibleQ):
            a.record(2)

    def test_parity(self):
        assert zero_orbit_analysis(SO7).admissible_qs() == [1, 3, 5, 7]
        assert zero_orbit_analysis(SP6).admissible_qs() == [0, 2, 4, 6]  # epsilon = 1 keeps q = 2
        with pytest.raises(InadmissibleQ):
            zero_orbit_analysis(SP6).record(3)

    def test_negative(self):
        with pytest.raises(InadmissibleQ):
            zero_orbit_analysis(SP6).record(-2)

    def test_admissible_qs_is_the_admissible_filter(self):
        """admissible_qs is the parity-and-2 filter on 0..m, and record takes
        exactly those q: no negative q, none of the wrong parity, none past m."""
        lie_types = [LieType(Family.SP, m) for m in range(2, 65, 2)]
        lie_types += [LieType(Family.SO_ODD, m) for m in range(3, 65, 2)]
        lie_types += [LieType(Family.SO_EVEN, m) for m in range(4, 65, 2)]
        for lie_type in lie_types:
            a = zero_orbit_analysis(lie_type)
            m, orthogonal = lie_type.m, lie_type.family is not Family.SP
            expected = [q for q in range(m + 1) if q % 2 == m % 2 and not (orthogonal and q == 2)]
            assert a.admissible_qs() == expected, lie_type
            for q in range(-3, m + 4):
                if q in expected:
                    assert a.record(q).q == q
                else:
                    with pytest.raises(InadmissibleQ):
                        a.record(q)


class TestMarkedSets:
    """Frozen values, each verified by hand against the set definitions.

    J lists the members within 1..N; the zero-padded tail feeds into j0
    (never j1, since padded parts are even).
    """

    def test_so7_322(self):
        a = analysis(SO7, "3,2,2")
        assert a.J == (2, 3)
        assert (a.j1, a.j0) == (None, 2)
        assert a.B == (1,)

    def test_sp6_minimal(self):
        a = analysis(SP6, "2,1,1,1,1")
        assert a.J == (2, 3, 4, 5)
        # no even part is marked within 1..N; the padded tail caps j0 at 6
        assert (a.j1, a.j0) == (5, 6)

    def test_so8_minimal(self):
        a = analysis(SO8, "2,2,1,1,1,1")
        assert a.J == (1, 2, 4, 5)
        assert (a.j1, a.j0) == (5, 1)

    def test_all_odd_so8(self):
        a = analysis(SO8, "5,3")
        assert a.J == ()
        # padding enters at N+1 = 3 for the orthogonal case
        assert (a.j1, a.j0) == (None, 3)

    def test_all_odd_sp6(self):
        a = analysis(SP6, "3,3")
        assert a.J == (1, 2)
        # N even, so the first padded pair sits at N+2 = 4
        assert (a.j1, a.j0) == (2, 4)


def in_image(a, q):
    return a.record(q).in_image


class TestImageTest:
    def test_so7_322_at_q1(self):
        assert in_image(analysis(SO7, "3,2,2"), 1) is True

    def test_sp6_minimal_never(self):
        a = analysis(SP6, "2,1,1,1,1")
        for q in a.admissible_qs():
            assert in_image(a, q) is False

    def test_sp6_411_never(self):
        a = analysis(SP6, "4,1,1")
        for q in a.admissible_qs():
            assert in_image(a, q) is False

    def test_padded_cap_blocks_large_q(self):
        # without the padded tail in J this would pass and give u = -1
        assert in_image(analysis(SO8, "5,3"), 4) is False
        assert in_image(analysis(SO8, "5,3"), 0) is True


class TestDegreeExponent:
    def test_values(self):
        u = lambda a, q: a.record(q).u
        assert u(analysis(SO7, "3,2,2"), 1) == 0
        assert u(analysis(SP6, "3,3"), 2) == 0
        assert u(analysis(SO8, "3,3,1,1"), 4) == 0
        assert u(analysis(SO8, "3,3,1,1"), 0) == 2
        # the sign flips for the symplectic family
        assert u(analysis(SP6, "3,3"), 4) == 1
        assert u(analysis(SO8, "5,3"), 4) == -1
        assert type(u(analysis(SO8, "5,3"), 4)) is int


def degree(a, q):
    return a.record(q).N_P


class TestCollapseDegree:
    def test_degree_one_witnesses(self):
        assert degree(analysis(SO7, "3,2,2"), 1) == 1
        assert degree(analysis(SP6, "3,3"), 2) == 1
        assert degree(analysis(SO8, "4,4"), 0) == 1

    def test_halved_branch_at_q_zero(self):
        # q = epsilon = 0 with a strict odd drop: degree 2^(u-1)
        assert degree(analysis(SO8, "7,1"), 0) == 1
        assert degree(analysis(SO8, "3,3,1,1"), 0) == 2
        assert degree(analysis(SO10, "2,2,2,2,1,1"), 0) == 1

    def test_unhalved_when_q_positive(self):
        assert degree(analysis(SO8, "3,3,1,1"), 4) == 1
        assert degree(analysis(SO7, "5,1,1"), 1) == 2
        assert degree(analysis(SO7, "5,1,1"), 3) == 1

    def test_no_degree_off_the_image(self):
        assert analysis(SP6, "4,1,1").record(0) == HesselinkReport(0, -1, False, None)
        assert analysis(SO8, "5,3").record(4) == HesselinkReport(4, -1, False, None)


class TestIntegralityGuard:
    """NonIntegralExponent fires on an analysis no orbit produces: valid data
    never reaches it, so each test corrupts one field of a real analysis."""

    def test_odd_count_off_by_one_raises_at_every_q(self):
        for a in (analysis(SO8, "3,3,1,1"), analysis(SP6, "4,1,1"), analysis(SO7, "3,2,2")):
            corrupted = a._replace(n_odd=a.n_odd + 1)
            for q in a.admissible_qs():  # in the image or not
                with pytest.raises(NonIntegralExponent, match="is not an integer"):
                    corrupted.record(q)

    def test_negative_exponent_raises(self):
        # j0 lifted past the padded cap puts q = 4 in the image, where u = -1
        corrupted = analysis(SO8, "5,3")._replace(j0=9)
        with pytest.raises(NonIntegralExponent, match="degree exponent -1 is negative"):
            corrupted.record(4)


class TestPolarizable:
    def test_sl_always(self):
        result = polarizable(validate_orbit(LieType(Family.SL, 5), (3, 2)))
        assert result.polarizable is True
        assert result.witnesses == ()

    def test_witness_lists_frozen(self):
        wit = lambda orbit: [(w.q, w.N_P) for w in polarizable(orbit).witnesses]
        assert wit(validate_orbit(SO7, (3, 2, 2))) == [(1, 1)]
        assert wit(validate_orbit(SO7, (5, 1, 1))) == [(1, 2), (3, 1)]
        assert wit(validate_orbit(SP6, (4, 2))) == [(0, 1), (2, 2)]
        assert wit(validate_orbit(SP6, (2, 1, 1, 1, 1))) == []
        # polarizable with no degree-one witness: no resolution
        assert wit(validate_orbit(SP6, (2, 2, 1, 1))) == [(4, 2)]
        assert wit(validate_orbit(LieType(Family.SO_EVEN, 12), (3, 3, 2, 2, 1, 1))) == [(0, 2)]

    def test_resolution_by_search(self):
        search = lambda orbit: resolution_by_search(polarizable(orbit))
        assert search(validate_orbit(SO7, (3, 2, 2))) is True
        assert search(validate_orbit(SO8, (3, 2, 2, 1))) is False
        assert search(validate_orbit(SO8, (2, 2, 1, 1, 1, 1))) is False
        assert search(validate_orbit(SP6, (2, 2, 1, 1))) is False

    def test_search_rejects_sl(self):
        with pytest.raises(WrongFamily):
            resolution_by_search(polarizable(validate_orbit(LieType(Family.SL, 4), (2, 2))))


class TestProperties:
    @given(bcd_orbits())
    @settings(max_examples=200)
    def test_in_image_exponent_is_non_negative_integer(self, orbit):
        for r in admissible_reports(polarizable(orbit)):  # would raise NonIntegralExponent
            assert type(r.u) is int
            if r.in_image:
                assert r.N_P > 0 and r.N_P & (r.N_P - 1) == 0  # power of two
            else:
                assert r.N_P is None

    @given(bcd_orbits())
    @settings(max_examples=200)
    def test_in_image_interval_is_contiguous(self, orbit):
        records = admissible_reports(polarizable(orbit))
        passing = [r.q for r in records if r.in_image]
        if passing:
            assert all(r.in_image for r in records if passing[0] <= r.q <= passing[-1])

    @given(bcd_orbits())
    @settings(max_examples=200)
    def test_search_matches_closed_form(self, orbit):
        assert resolution_by_search(polarizable(orbit)) == (
            closed_form_verdict(orbit).answer is Verdict.YES
        )

    @given(bcd_orbits())
    def test_resolution_implies_polarizable(self, orbit):
        pol = polarizable(orbit)
        if resolution_by_search(pol):
            assert pol.polarizable


class TestReports:
    def test_report_fields(self):
        report = analysis(SO7, "3,2,2").record(1)
        assert report.q == 1
        assert report.in_image is True
        assert report.N_P == 1
        assert report.u == 0 and type(report.u) is int

    def test_inadmissible_report_rejected(self):
        with pytest.raises(InadmissibleQ):
            analysis(SO7, "3,2,2").record(2)
        with pytest.raises(InadmissibleQ):
            analysis(SO7, "3,2,2").record(0)
        with pytest.raises(InadmissibleQ):
            analysis(SO8, "5,3").record(2)
        with pytest.raises(InadmissibleQ):
            analysis(SO8, "5,3").record(10)  # past m
        for q in (1.0, True, "1"):  # u and N_P are ints only for an int q
            with pytest.raises(InadmissibleQ):
                analysis(SO7, "3,2,2").record(q)

    def test_json_sentinels(self):
        report = build_report(validate_orbit(SO7, d("3,2,2")))
        records = json.loads(report_json(report))["hesselink"]
        payload = next(record for record in records if record["q"] == 1)
        assert payload["j1"] == "-inf"
        assert payload["j0"] == 2
        assert payload["u"] == "0"
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_admissible_reports_cover_range(self):
        orbit = validate_orbit(SO8, (3, 3, 1, 1))
        reports = admissible_reports(polarizable(orbit))
        assert [r.q for r in reports] == [0, 4, 6, 8]
        assert [(r.q, r.N_P) for r in reports if r.in_image] == [(0, 2), (4, 1)]

    def test_admissible_reports_empty_for_sl(self):
        sl_orbit = validate_orbit(LieType(Family.SL, 4), (2, 2))
        assert admissible_reports(polarizable(sl_orbit)) == ()


def plain_records(orbit):
    """Per-q records straight from the set definitions, rebuilt for every q.

    Written independently of the package: J is built on an explicitly
    zero-padded sequence, so the padded tail enters j0 through the same
    rule as every other position.
    """
    m = orbit.m
    eps = 1 if orbit.family is Family.SP else 0
    parts = orbit.partition.parts
    n = len(parts)
    top = n + 4
    seq = [None] + list(parts) + [0] * (top + 1 - n)  # seq[j] = d_j for j in 1..top+1
    records = []
    for q in range(m + 1):
        if q % 2 != m % 2 or (eps == 0 and q == 2):
            continue
        marked = {j for j in range(1, top + 1) if seq[j] % 2 == eps}
        for j in range(1, top + 1):
            if j % 2 == m % 2 and seq[j] == seq[j + 1]:
                marked |= {j, j + 1}
        j1 = max((j for j in marked if seq[j] % 2 == 1), default=None)
        j0 = min(j for j in marked if seq[j] % 2 == 0)
        pairing = all(
            (seq[j] - seq[j + 1]) % 2 == 0 for j in range(1, top + 1) if j % 2 != m % 2
        )
        B = tuple(j for j in range(1, n + 1) if seq[j] > seq[j + 1] and seq[j] % 2 != eps)
        n_odd = sum(1 for p in parts if p % 2 == 1)
        u = Fraction((-1) ** eps * (n_odd - q), 2)
        in_image = (j1 is None or j1 <= q) and q < j0 and pairing
        degree = None
        if in_image:
            exponent = u if q + eps >= 1 or not B else u - 1
            assert exponent.denominator == 1 and exponent >= 0
            degree = 2 ** int(exponent)
        J = tuple(sorted(j for j in marked if j <= n))
        records.append((q, J, j1, j0, B, u, in_image, degree))
    return records


class TestAnalysis:
    def test_matches_per_q_definitions_up_to_m16(self):
        checked = 0
        for orbit in bcd_orbits_up_to(16):
            expected = plain_records(orbit)
            pol = polarizable(orbit)
            a = pol.analysis
            got = [
                (r.q, a.J, a.j1, a.j0, a.B, r.u, r.in_image, r.N_P)
                for r in admissible_reports(pol)
            ]
            assert got == expected, orbit
            witnesses = [(w.q, w.N_P) for w in pol.witnesses]
            assert witnesses == [(rec[0], rec[7]) for rec in expected if rec[6]], orbit
            checked += 1
        assert checked > 500

    def test_one_analysis_per_orbit(self, monkeypatch):
        """A report, and the selfcheck for each orbit it sweeps, call
        polarizable once and build one analysis for an sp/so orbit, none
        for sl; the search and the per-q records read that one result."""
        analyses, polarized = [], []
        original_of = HesselinkAnalysis.of.__func__
        original_polarizable = hesselink_module.polarizable

        def counted_of(cls, orbit):
            analyses.append(orbit)
            return original_of(cls, orbit)

        def counted_polarizable(orbit):
            polarized.append(orbit)
            return original_polarizable(orbit)

        monkeypatch.setattr(HesselinkAnalysis, "of", classmethod(counted_of))
        # rebind every module-level name bound to polarizable, wherever it was imported
        for name, module in list(sys.modules.items()):
            if name == "orbitres" or name.startswith("orbitres."):
                for attr, value in list(vars(module).items()):
                    if value is original_polarizable:
                        monkeypatch.setattr(module, attr, counted_polarizable)

        def expected_analyses(orbits):
            return [o for o in orbits if o.family is not Family.SL]

        for family, m in ((Family.SL, 6), (Family.SP, 8), (Family.SO_ODD, 9), (Family.SO_EVEN, 8)):
            for orbit in enumerate_orbits(LieType(family, m)):
                analyses.clear()
                polarized.clear()
                build_report(orbit)
                assert polarized == [orbit]
                assert analyses == expected_analyses([orbit])

        analyses.clear()
        polarized.clear()
        assert run_selfcheck(8, out=io.StringIO()) == 0
        swept = [o for lie_type in _selfcheck_lie_types(8) for o in enumerate_orbits(lie_type)]
        assert polarized == swept
        assert analyses == expected_analyses(swept)

    def test_polarizable_examines_only_its_image(self, monkeypatch):
        """polarizable builds a record for each q in its image and for no
        other q; the per-q records still come one per admissible q."""
        built = []
        original = HesselinkAnalysis._record

        def counted(self, q, in_image):
            built.append((q, in_image))
            return original(self, q, in_image)

        monkeypatch.setattr(HesselinkAnalysis, "_record", counted)
        in_image = 0
        for orbit in bcd_orbits_up_to(12):
            built.clear()
            pol = polarizable(orbit)
            image = image_by_definition(pol.analysis)
            assert built == [(q, True) for q in image], orbit
            built.clear()
            records = admissible_reports(pol)
            assert [q for q, _ in built] == pol.analysis.admissible_qs(), orbit
            assert built == [(r.q, r.in_image) for r in records], orbit
            in_image += len(image)
        assert in_image > 100
        built.clear()
        assert analysis(SP6, "4,1,1").record(0).N_P is None
        assert built == [(0, False)]


def image_by_definition(a):
    """The admissible q passing the image test, each tested on its own."""
    return [
        q for q in a.admissible_qs()
        if (a.j1 is None or a.j1 <= q) and q < a.j0 and a.pairing_ok
    ]


@lru_cache(maxsize=None)
def bcd_orbits_to_30():
    return tuple(bcd_orbits_up_to(30))


class TestRuns:
    """The analysis steps over runs of equal parts and reads its witnesses
    off the image interval; both agree with the per-position definitions."""

    def test_runs_match_the_per_position_loop(self):
        orbits = bcd_orbits_to_30()
        assert len(orbits) > 9000
        for orbit in orbits:
            assert HesselinkAnalysis.of(orbit)._asdict() == reference_analysis(orbit), orbit

    @given(many_parts_orbits())
    @settings(max_examples=300, deadline=None)
    def test_runs_match_the_per_position_loop_on_many_parts(self, orbit):
        assert HesselinkAnalysis.of(orbit)._asdict() == reference_analysis(orbit)

    def test_witnesses_are_the_image_interval(self):
        for orbit in bcd_orbits_to_30():
            pol = polarizable(orbit)
            assert [w.q for w in pol.witnesses] == image_by_definition(pol.analysis), orbit

    def test_witnesses_and_text_list_no_admissible_q(self, monkeypatch, capsys):
        """The witnesses and the text report of sp_2000000 [1000000^2] come
        from the image interval alone; only the JSON lists every q."""

        def refuse(self):
            raise AssertionError("admissible_qs listed")

        monkeypatch.setattr(HesselinkAnalysis, "admissible_qs", refuse)
        orbit = validate_orbit(LieType(Family.SP, 2_000_000), (1_000_000, 1_000_000))
        assert [(w.q, w.N_P) for w in polarizable(orbit).witnesses] == [(0, 1), (2, 2)]
        text = report_text(build_report(orbit))
        assert main(["report", "sp2000000", "1000000^2"]) == 0
        assert capsys.readouterr().out == text + "\n"
