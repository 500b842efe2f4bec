from __future__ import annotations

import json
import sys
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from types import FunctionType

import pytest
from hypothesis import given, settings

import orbitres.hesselink as hesselink_module
from common import (
    bcd_orbits,
    bcd_orbits_up_to,
    json_text,
    many_parts_orbits,
    marked_positions,
    reference_analysis,
    reference_reports,
)
from orbitres import (
    Family,
    HesselinkAnalysis,
    LieType,
    Verdict,
    build_report,
    enumerate_orbits,
    parse_partition,
    polarizable,
    resolution_by_search,
    validate_orbit,
)
from orbitres.cli import main, run_selfcheck
from orbitres.enumeration import enumerate_lie_types
from orbitres.errors import InternalInvariantError, OrbitresError
from orbitres.hesselink import HesselinkReport, admissible_reports
from orbitres.report import report_text
from orbitres.resolution import closed_form_verdict

SP6 = LieType(Family.SP, 6)
SO7 = LieType(Family.SO_ODD, 7)
SO8 = LieType(Family.SO_EVEN, 8)
SO10 = LieType(Family.SO_EVEN, 10)


def d(text):
    return parse_partition(text)


def analysis(lie_type, text):
    return HesselinkAnalysis.of(validate_orbit(lie_type, d(text)))


def records(lie_type, text):
    """q -> record for every admissible q, read as the report reads them."""
    reports = admissible_reports(polarizable(validate_orbit(lie_type, d(text))))
    return {r.q: r for r in reports}


def zero_orbit_analysis(lie_type):
    return analysis(lie_type, f"1^{lie_type.m}")


def admissible(a):
    """Every admissible q of the analysis, ascending, read off its runs."""
    return [q for qs, _ in a.admissible_runs(0, a.m + 1) for q in qs]


def admissible_by_rule(m, epsilon, low=0, high=None):
    """The q in [low, high) and 0..m congruent to m mod 2, with 2 left out
    for so, each tested on its own."""
    high = m + 1 if high is None else high
    return [q for q in range(max(low, 0), min(high, m + 1))
            if q % 2 == m % 2 and not (epsilon == 0 and q == 2)]


def counted_runs(monkeypatch) -> list:
    """Patch ``admissible_runs`` to append the runs of each call to the
    list returned."""
    calls, original = [], HesselinkAnalysis.admissible_runs

    def counted(self, low, high):
        calls.append(original(self, low, high))
        return calls[-1]

    monkeypatch.setattr(HesselinkAnalysis, "admissible_runs", counted)
    return calls


class TestContext:
    """m and epsilon, which the analysis takes from its orbit's algebra."""

    def test_from_orbit(self):
        a = HesselinkAnalysis.of(validate_orbit(SP6, (3, 3)))
        assert (a.m, a.epsilon) == (6, 1)
        a = HesselinkAnalysis.of(validate_orbit(SO7, (7,)))
        assert (a.m, a.epsilon) == (7, 0)

    def test_sl_rejected(self):
        with pytest.raises(OrbitresError, match="^Hesselink machinery applies to sp and so only$"):
            HesselinkAnalysis.of(validate_orbit(LieType(Family.SL, 4), (2, 2)))

    def test_symplectic_needs_even_m(self):
        # the algebra rejects an odd symplectic size before any analysis exists
        with pytest.raises(OrbitresError, match="^sp requires even matrix size"):
            LieType(Family.SP, 7)


class TestAdmissible:
    def test_orthogonal_excludes_two(self):
        a = zero_orbit_analysis(SO8)
        assert admissible(a) == [0, 4, 6, 8]
        assert [qs for qs, _ in a.admissible_runs(0, 9)] == [range(0, 2, 2), range(4, 9, 2)]

    def test_parity(self):
        assert admissible(zero_orbit_analysis(SO7)) == [1, 3, 5, 7]
        assert admissible(zero_orbit_analysis(SP6)) == [0, 2, 4, 6]  # epsilon = 1 keeps q = 2

    def test_admissible_runs_are_the_admissible_filter(self):
        """admissible_runs(low, high) is the parity-and-2 filter on [low,
        high) within 0..m, as at most two non-empty runs of step 2, with u
        = (-1)^epsilon (n_odd - q) / 2 beside each q; and the records come
        for exactly the admissible q: no negative q, none of the wrong
        parity, none past m."""
        for lie_type in enumerate_lie_types(64):
            family, m = lie_type
            if family is Family.SL:
                continue
            regular = (m - 1, 1) if family is Family.SO_EVEN else (m,)
            hook = (2 if family is Family.SP else 3,) + (1,) * (m - 2 - (family is not Family.SP))
            for parts in ((1,) * m, regular, hook):
                a = HesselinkAnalysis.of(validate_orbit(lie_type, parts))
                windows = [(0, m + 1)]
                if m <= 12:
                    windows += [(low, high) for low in range(-2, m + 3) for high in range(low - 1, m + 4)]
                for low, high in windows:
                    runs = a.admissible_runs(low, high)
                    expected = admissible_by_rule(m, a.epsilon, low, high)
                    assert [q for qs, _ in runs for q in qs] == expected, (lie_type, low, high)
                    assert len(runs) <= 2 and all(qs and qs.step == 2 for qs, _ in runs)
                    assert [u for _, us in runs for u in us] == [
                        (-1) ** a.epsilon * (a.n_odd - q) // 2 for q in expected], (lie_type, parts)
            assert list(records(lie_type, f"1^{m}")) == admissible_by_rule(m, a.epsilon), lie_type

    def test_the_per_q_method_is_admissible_runs(self):
        """The analysis has one public per-q method; the image test is no
        method of it."""
        methods = {name for name, value in vars(HesselinkAnalysis).items()
                   if isinstance(value, (FunctionType, classmethod))}
        assert methods == {"of", "admissible_runs", "_witness"}


class TestMarkedSets:
    """Frozen values, each verified by hand against the set definitions.

    J holds the members within 1..N, one range per run of equal parts
    that has any; the zero-padded tail feeds into j0 (never j1, since
    padded parts are even).
    """

    def test_so7_322(self):
        a = analysis(SO7, "3,2,2")
        assert a.J == (range(2, 4),)
        assert (a.j1, a.j0) == (None, 2)
        assert a.B == (1,)

    def test_sp6_minimal(self):
        a = analysis(SP6, "2,1,1,1,1")
        assert marked_positions(a) == (2, 3, 4, 5)
        # no even part is marked within 1..N; the padded tail caps j0 at 6
        assert (a.j1, a.j0) == (5, 6)

    def test_so8_minimal(self):
        a = analysis(SO8, "2,2,1,1,1,1")
        assert marked_positions(a) == (1, 2, 4, 5)
        assert (a.j1, a.j0) == (5, 1)

    def test_all_odd_so8(self):
        a = analysis(SO8, "5,3")
        assert marked_positions(a) == ()
        # padding enters at N+1 = 3 for the orthogonal case
        assert (a.j1, a.j0) == (None, 3)

    def test_all_odd_sp6(self):
        a = analysis(SP6, "3,3")
        assert marked_positions(a) == (1, 2)
        # N even, so the first padded pair sits at N+2 = 4
        assert (a.j1, a.j0) == (2, 4)


class TestImageTest:
    def test_so7_322_at_q1(self):
        assert records(SO7, "3,2,2")[1].in_image is True

    def test_sp6_minimal_never(self):
        assert not any(r.in_image for r in records(SP6, "2,1,1,1,1").values())

    def test_sp6_411_never(self):
        assert not any(r.in_image for r in records(SP6, "4,1,1").values())

    def test_padded_cap_blocks_large_q(self):
        # without the padded tail in J this would pass and give u = -1
        assert records(SO8, "5,3")[4].in_image is False
        assert records(SO8, "5,3")[0].in_image is True


class TestDegreeExponent:
    def test_values(self):
        u = lambda lie_type, text, q: records(lie_type, text)[q].u
        assert u(SO7, "3,2,2", 1) == 0
        assert u(SP6, "3,3", 2) == 0
        assert u(SO8, "3,3,1,1", 4) == 0
        assert u(SO8, "3,3,1,1", 0) == 2
        # the sign flips for the symplectic family
        assert u(SP6, "3,3", 4) == 1
        assert u(SO8, "5,3", 4) == -1
        assert type(u(SO8, "5,3", 4)) is int


def degree(lie_type, text, q):
    return records(lie_type, text)[q].N_P


class TestCollapseDegree:
    def test_degree_one_witnesses(self):
        assert degree(SO7, "3,2,2", 1) == 1
        assert degree(SP6, "3,3", 2) == 1
        assert degree(SO8, "4,4", 0) == 1

    def test_halved_branch_at_q_zero(self):
        # q = epsilon = 0 with a strict odd drop: degree 2^(u-1)
        assert degree(SO8, "7,1", 0) == 1
        assert degree(SO8, "3,3,1,1", 0) == 2
        assert degree(SO10, "2,2,2,2,1,1", 0) == 1

    def test_unhalved_when_q_positive(self):
        assert degree(SO8, "3,3,1,1", 4) == 1
        assert degree(SO7, "5,1,1", 1) == 2
        assert degree(SO7, "5,1,1", 3) == 1

    def test_no_degree_off_the_image(self):
        assert records(SP6, "4,1,1")[0] == HesselinkReport(0, -1, None)
        assert records(SO8, "5,3")[4] == HesselinkReport(4, -1, None)

    def test_the_image_test_is_the_degree(self):
        """A record holds q, u and N_P; its image test is read off N_P, so
        the two cannot disagree, and it cannot be set."""
        assert HesselinkReport._fields == ("q", "u", "N_P")
        assert isinstance(HesselinkReport.in_image, property)
        assert HesselinkReport(0, 1, 2).in_image is True
        assert HesselinkReport(0, 1, None).in_image is False
        with pytest.raises(AttributeError):
            HesselinkReport(0, 1, 2).in_image = False


def built_by(monkeypatch, a):
    """Make ``polarizable`` build the analysis ``a`` for whatever orbit."""
    monkeypatch.setattr(HesselinkAnalysis, "of", classmethod(lambda cls, orbit: a))


class TestIntegralityGuard:
    """The guards fire on an analysis no orbit produces: valid data never
    reaches them, so each test corrupts one field of a real analysis."""

    def test_odd_count_off_by_one_raises_at_every_q(self):
        for a in (analysis(SO8, "3,3,1,1"), analysis(SP6, "4,1,1"), analysis(SO7, "3,2,2")):
            corrupted = a._replace(n_odd=a.n_odd + 1)
            for q in admissible(a):  # in the image or not
                with pytest.raises(InternalInvariantError, match="is not an integer"):
                    corrupted.admissible_runs(q, q + 1)

    def test_polarizable_and_reports_check_integrality_once_per_run(self, monkeypatch):
        """polarizable and admissible_reports both raise on the corruption,
        through the one guard in admissible_runs, which checks each run at
        its first q, not each q: polarizable asks for the runs of its image
        once, and admissible_reports for those below and above the
        witnesses."""
        for lie_type, text in ((SO8, "3,3,1,1"), (SP6, "4,2"), (SO7, "3,2,2"), (SP6, "2,2,1,1")):
            orbit = validate_orbit(lie_type, d(text))
            pol = polarizable(orbit)
            records = admissible_reports(pol)
            off_image = records.below + records.above
            assert pol.witnesses and off_image, orbit  # both paths reach u
            corrupted = pol.analysis._replace(n_odd=pol.analysis.n_odd + 1)
            first = f"is not an integer for q = {off_image[0][0].start},"
            with pytest.raises(InternalInvariantError, match=first):
                admissible_reports(pol._replace(analysis=corrupted))
            with monkeypatch.context() as patch:
                built_by(patch, corrupted)
                with pytest.raises(InternalInvariantError,
                                   match=f"is not an integer for q = {pol.witnesses[0].q},"):
                    polarizable(orbit)
            with monkeypatch.context() as patch:
                calls = counted_runs(patch)
                polarizable(orbit)
                admissible_reports(pol)
            qs = [w.q for w in pol.witnesses]  # a run ends where q skips 2 (so_m leaves out q = 2)
            assert len(calls) == 3 and [q for run, _ in calls[0] for q in run] == qs, orbit
            assert len(calls[0]) == 1 + sum(b - a > 2 for a, b in zip(qs, qs[1:])), orbit
            assert calls[1] + calls[2] == off_image, orbit

    def test_negative_exponent_raises(self, monkeypatch):
        # j0 lifted past the padded cap puts q = 4 in the image, where u = -1
        corrupted = analysis(SO8, "5,3")._replace(j0=9)
        with pytest.raises(InternalInvariantError, match="degree exponent -1 is negative"):
            corrupted._witness(4, -1)
        built_by(monkeypatch, corrupted)
        with pytest.raises(InternalInvariantError, match="degree exponent -1 is negative"):
            polarizable(validate_orbit(SO8, d("5,3")))


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
        with pytest.raises(OrbitresError, match="^the search route applies to sp and so"):
            resolution_by_search(polarizable(validate_orbit(LieType(Family.SL, 4), (2, 2))))


class TestProperties:
    @given(bcd_orbits())
    @settings(max_examples=200)
    def test_in_image_exponent_is_non_negative_integer(self, orbit):
        for r in admissible_reports(polarizable(orbit)):  # the guard would raise here
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
        report = records(SO7, "3,2,2")[1]
        assert report.q == 1
        assert report.in_image is True
        assert report.N_P == 1
        assert report.u == 0 and type(report.u) is int

    def test_json_sentinels(self):
        report = build_report(validate_orbit(SO7, d("3,2,2")))
        records = json.loads(json_text(report))["hesselink"]
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
    family, m = orbit.lie_type
    eps = 1 if family is Family.SP else 0
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
                (r.q, marked_positions(a), a.j1, a.j0, a.B, r.u, r.in_image, r.N_P)
                for r in admissible_reports(pol)
            ]
            assert got == expected, orbit
            witnesses = [(w.q, w.N_P) for w in pol.witnesses]
            assert witnesses == [(rec[0], rec[7]) for rec in expected if rec[6]], orbit
            checked += 1
        assert checked > 500

    def test_one_analysis_per_orbit(self, capsys, monkeypatch):
        """A report, and the selfcheck for each orbit it sweeps, call
        polarizable exactly once and build one analysis for an sp/so orbit,
        and neither for sl, which the dispatcher answers before either
        route; the search and the per-q records read that one result."""
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

        def bcd(orbits):
            return [o for o in orbits if o.lie_type.family is not Family.SL]

        for family, m in ((Family.SL, 6), (Family.SP, 8), (Family.SO_ODD, 9), (Family.SO_EVEN, 8)):
            for orbit in enumerate_orbits(LieType(family, m)):
                analyses.clear()
                polarized.clear()
                build_report(orbit)
                assert polarized == bcd([orbit])
                assert analyses == bcd([orbit])

        analyses.clear()
        polarized.clear()
        assert run_selfcheck(8) == 0
        assert capsys.readouterr().out.endswith("\n0 failures\n")
        swept = [o for lie_type in enumerate_lie_types(8) for o in enumerate_orbits(lie_type)]
        assert any(o.lie_type.family is Family.SL for o in swept)
        assert polarized == bcd(swept)
        assert analyses == bcd(swept)

    def test_polarizable_examines_only_its_image(self, monkeypatch):
        """polarizable builds a witness for each q in its image and for no
        other q; the records of every admissible q come from the runs off
        the image and the witnesses, with no witness built again."""
        built = []
        original = HesselinkAnalysis._witness

        def counted(self, q, u):
            built.append(q)
            return original(self, q, u)

        monkeypatch.setattr(HesselinkAnalysis, "_witness", counted)
        in_image = 0
        for orbit in bcd_orbits_up_to(12):
            built.clear()
            pol = polarizable(orbit)
            image = image_by_definition(pol.analysis)
            assert built == image, orbit
            built.clear()
            records = (*admissible_reports(pol),)
            assert built == [], orbit
            assert records == reference_reports(pol), orbit
            in_image += len(image)
        assert in_image > 100


def by_position(a) -> dict:
    """The analysis's fields, with J expanded to one entry per position."""
    return {**a._asdict(), "J": marked_positions(a)}


def image_by_definition(a):
    """The admissible q passing the image test, each tested on its own."""
    return [q for q in admissible_by_rule(a.m, a.epsilon)
            if (a.j1 is None or a.j1 <= q) and q < a.j0 and a.pairing_ok]


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
            assert by_position(HesselinkAnalysis.of(orbit)) == reference_analysis(orbit), orbit

    @given(many_parts_orbits())
    @settings(max_examples=300, deadline=None)
    def test_runs_match_the_per_position_loop_on_many_parts(self, orbit):
        assert by_position(HesselinkAnalysis.of(orbit)) == reference_analysis(orbit)

    def test_J_holds_at_most_one_range_per_run(self):
        for orbit in bcd_orbits_to_30():
            J = HesselinkAnalysis.of(orbit).J
            assert len(J) <= len(orbit.partition.counts), orbit
            assert all(type(r) is range and r.step == 1 and r for r in J), orbit

    @pytest.mark.parametrize("lie_type", [LieType(Family.SP, 1_000_000),
                                          LieType(Family.SO_EVEN, 1_000_000),
                                          LieType(Family.SO_ODD, 1_000_001)], ids=str)
    def test_text_report_of_a_huge_zero_orbit_is_small(self, lie_type):
        """The text report of [1^m] holds J as one range, never the m
        positions: it peaks under 1 MB, where a list of the positions alone
        takes 8 MB."""
        orbit = validate_orbit(lie_type, parse_partition(f"1^{lie_type.m}"))
        tracemalloc.start()
        try:
            text = report_text(build_report(orbit))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(orbit) in text
        assert peak < 1_000_000

    def test_record_runs_hold_the_per_q_records(self):
        """The runs off the image, with the witnesses between them, are the
        per-q records: in order, as many, each run non-empty with q stepping
        by 2 and u by one, the runs below the image before the witnesses and
        the runs above it after them."""
        for orbit in bcd_orbits_to_30():
            pol = polarizable(orbit)
            expected = reference_reports(pol)
            records = admissible_reports(pol)
            assert (len(records), tuple(records)) == (len(expected), expected), orbit
            sign = 1 if pol.analysis.epsilon else -1
            for qs, us in records.below + records.above:
                assert qs and len(qs) == len(us) and qs.step == 2 and us.step == sign, orbit
            below, above = ([q for qs, _ in runs for q in qs] for runs in (records.below, records.above))
            assert records.witnesses is pol.witnesses, orbit
            assert below + [w.q for w in pol.witnesses] + above == [r.q for r in expected], orbit

    @given(many_parts_orbits())
    @settings(max_examples=200, deadline=None)
    def test_record_runs_hold_the_per_q_records_on_many_parts(self, orbit):
        pol = polarizable(orbit)
        assert tuple(admissible_reports(pol)) == reference_reports(pol)

    @pytest.mark.parametrize("partition", [(2_000_000,), (1_000_000, 1_000_000)], ids=str)
    def test_record_runs_list_no_admissible_q(self, monkeypatch, partition):
        """sp_2000000 has 1000001 admissible q; polarizable and its records
        read them as a few runs, in at most three calls."""
        calls = counted_runs(monkeypatch)
        pol = polarizable(validate_orbit(LieType(Family.SP, 2_000_000), partition))
        records = admissible_reports(pol)
        assert len(calls) <= 3 and all(type(qs) is range for runs in calls for qs, _ in runs)
        assert len(records) == 1_000_001
        assert len(records.below) + len(records.above) + bool(records.witnesses) <= 3
        assert [(w.q, w.N_P) for w in pol.witnesses] == [(0, 1), (2, 2)][:len(partition)]

    def test_witnesses_are_the_image_interval(self):
        for orbit in bcd_orbits_to_30():
            pol = polarizable(orbit)
            assert [w.q for w in pol.witnesses] == image_by_definition(pol.analysis), orbit

    def test_witnesses_and_text_list_no_admissible_q(self, monkeypatch, capsys):
        """The witnesses and the text report of sp_2000000 [1000000^2] come
        from the image interval alone, one call of admissible_runs each;
        only the JSON writes every q, from its runs."""
        calls = counted_runs(monkeypatch)
        orbit = validate_orbit(LieType(Family.SP, 2_000_000), (1_000_000, 1_000_000))
        assert [(w.q, w.N_P) for w in polarizable(orbit).witnesses] == [(0, 1), (2, 2)]
        text = report_text(build_report(orbit))
        assert main(["report", "sp2000000", "1000000^2"]) == 0
        assert capsys.readouterr().out == text + "\n"
        assert len(calls) == 3, calls
