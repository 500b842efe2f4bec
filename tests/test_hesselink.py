from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

import orbitres.hesselink as hesselink
from common import bcd_orbits
from orbitres import (
    Family,
    HesselinkContext,
    InadmissibleQ,
    LieType,
    NEG_INF,
    N_P,
    NotInImage,
    WrongFamily,
    admissible_reports,
    closed_form_verdict,
    compute_B,
    compute_J,
    compute_j1_j0,
    compute_u,
    enumerate_orbits,
    hesselink_report,
    in_image_Sq,
    is_admissible,
    parse_partition,
    polarizable,
    resolution_by_search,
    validate_orbit,
    Verdict,
)

SP6 = LieType(Family.SP, 6)
SO7 = LieType(Family.SO_ODD, 7)
SO8 = LieType(Family.SO_EVEN, 8)

CTX_SP6 = HesselinkContext(6, 1)
CTX_SO7 = HesselinkContext(7, 0)
CTX_SO8 = HesselinkContext(8, 0)


def d(text):
    return parse_partition(text)


class TestContext:
    def test_from_orbit(self):
        assert HesselinkContext.for_orbit(validate_orbit(SP6, (3, 3))) == CTX_SP6
        assert HesselinkContext.for_orbit(validate_orbit(SO7, (7,))) == CTX_SO7

    def test_sl_rejected(self):
        with pytest.raises(WrongFamily):
            HesselinkContext.for_lie_type(LieType(Family.SL, 4))

    def test_symplectic_needs_even_m(self):
        with pytest.raises(ValueError):
            HesselinkContext(7, 1)


class TestAdmissible:
    def test_orthogonal_excludes_two(self):
        assert is_admissible(CTX_SO8, 2) is False
        assert is_admissible(CTX_SO8, 0) is True
        assert is_admissible(CTX_SO8, 4) is True

    def test_parity(self):
        assert is_admissible(CTX_SO7, 1) is True
        assert is_admissible(CTX_SO7, 2) is False  # wrong parity anyway
        assert is_admissible(CTX_SP6, 2) is True  # epsilon = 1 exempts q = 2
        assert is_admissible(CTX_SP6, 3) is False

    def test_negative(self):
        assert is_admissible(CTX_SP6, -2) is False


class TestMarkedSets:
    """Frozen values, each verified by hand against the set definitions.

    compute_J returns the members within 1..N; the zero-padded tail feeds
    into j0 (never j1, since padded parts are even).
    """

    def test_so7_322(self):
        part = d("3,2,2")
        assert sorted(compute_J(CTX_SO7, part)) == [2, 3]
        assert compute_j1_j0(CTX_SO7, part) == (NEG_INF, 2)
        assert sorted(compute_B(CTX_SO7, part)) == [1]

    def test_sp6_minimal(self):
        part = d("2,1,1,1,1")
        assert sorted(compute_J(CTX_SP6, part)) == [2, 3, 4, 5]
        # no even part is marked within 1..N; the padded tail caps j0 at 6
        assert compute_j1_j0(CTX_SP6, part) == (5, 6)

    def test_so8_minimal(self):
        part = d("2,2,1,1,1,1")
        assert sorted(compute_J(CTX_SO8, part)) == [1, 2, 4, 5]
        assert compute_j1_j0(CTX_SO8, part) == (5, 1)

    def test_all_odd_so8(self):
        part = d("5,3")
        assert sorted(compute_J(CTX_SO8, part)) == []
        # padding enters at N+1 = 3 for the orthogonal case
        assert compute_j1_j0(CTX_SO8, part) == (NEG_INF, 3)

    def test_all_odd_sp6(self):
        part = d("3,3")
        assert sorted(compute_J(CTX_SP6, part)) == [1, 2]
        # N even, so the first padded pair sits at N+2 = 4
        assert compute_j1_j0(CTX_SP6, part) == (2, 4)


class TestImageTest:
    def test_so7_322_at_q1(self):
        assert in_image_Sq(CTX_SO7, d("3,2,2"), 1) is True

    def test_sp6_minimal_never(self):
        part = d("2,1,1,1,1")
        for q in range(7):
            if is_admissible(CTX_SP6, q):
                assert in_image_Sq(CTX_SP6, part, q) is False

    def test_sp6_411_never(self):
        part = d("4,1,1")
        for q in range(7):
            if is_admissible(CTX_SP6, q):
                assert in_image_Sq(CTX_SP6, part, q) is False

    def test_inadmissible_q_raises(self):
        with pytest.raises(InadmissibleQ):
            in_image_Sq(CTX_SO8, d("5,3"), 2)
        with pytest.raises(InadmissibleQ):
            in_image_Sq(CTX_SO7, d("3,2,2"), 0)

    def test_padded_cap_blocks_large_q(self):
        # without the padded tail in J this would pass and give u = -1
        assert in_image_Sq(CTX_SO8, d("5,3"), 4) is False
        assert in_image_Sq(CTX_SO8, d("5,3"), 0) is True


class TestDegreeExponent:
    def test_values(self):
        assert compute_u(CTX_SO7, d("3,2,2"), 1) == Fraction(0)
        assert compute_u(CTX_SP6, d("3,3"), 2) == Fraction(0)
        assert compute_u(HesselinkContext(8, 0), d("3,3,1,1"), 4) == Fraction(0)
        assert compute_u(CTX_SO8, d("3,3,1,1"), 0) == Fraction(2)
        # the sign flips for the symplectic family
        assert compute_u(CTX_SP6, d("3,3"), 4) == Fraction(1)
        assert compute_u(CTX_SO8, d("5,3"), 4) == Fraction(-1)


class TestCollapseDegree:
    def test_degree_one_witnesses(self):
        assert N_P(CTX_SO7, d("3,2,2"), 1) == 1
        assert N_P(CTX_SP6, d("3,3"), 2) == 1
        assert N_P(CTX_SO8, d("4,4"), 0) == 1

    def test_halved_branch_at_q_zero(self):
        # q = epsilon = 0 with a strict odd drop: degree 2^(u-1)
        assert N_P(CTX_SO8, d("7,1"), 0) == 1
        assert N_P(CTX_SO8, d("3,3,1,1"), 0) == 2
        assert N_P(HesselinkContext(10, 0), d("2,2,2,2,1,1"), 0) == 1

    def test_unhalved_when_q_positive(self):
        assert N_P(CTX_SO8, d("3,3,1,1"), 4) == 1
        assert N_P(CTX_SO7, d("5,1,1"), 1) == 2
        assert N_P(CTX_SO7, d("5,1,1"), 3) == 1

    def test_not_in_image_raises(self):
        with pytest.raises(NotInImage):
            N_P(CTX_SP6, d("4,1,1"), 0)
        with pytest.raises(NotInImage):
            N_P(CTX_SO8, d("5,3"), 4)


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
        assert resolution_by_search(validate_orbit(SO7, (3, 2, 2))) is True
        assert resolution_by_search(validate_orbit(SO8, (3, 2, 2, 1))) is False
        assert resolution_by_search(validate_orbit(SO8, (2, 2, 1, 1, 1, 1))) is False
        assert resolution_by_search(validate_orbit(SP6, (2, 2, 1, 1))) is False

    def test_search_rejects_sl(self):
        with pytest.raises(WrongFamily):
            resolution_by_search(validate_orbit(LieType(Family.SL, 4), (2, 2)))


class TestProperties:
    @given(bcd_orbits())
    @settings(max_examples=200)
    def test_in_image_exponent_is_non_negative_integer(self, orbit):
        ctx = HesselinkContext.for_orbit(orbit)
        part = orbit.partition
        for q in range(ctx.m + 1):
            if not is_admissible(ctx, q) or not in_image_Sq(ctx, part, q):
                continue
            degree = N_P(ctx, part, q)  # would raise NonIntegralExponent
            assert degree > 0 and degree & (degree - 1) == 0  # power of two

    @given(bcd_orbits())
    @settings(max_examples=200)
    def test_in_image_interval_is_contiguous(self, orbit):
        ctx = HesselinkContext.for_orbit(orbit)
        part = orbit.partition
        passing = [
            q for q in range(ctx.m + 1)
            if is_admissible(ctx, q) and in_image_Sq(ctx, part, q)
        ]
        for low, high in zip(passing, passing[1:]):
            for q in range(low, high + 1):
                if is_admissible(ctx, q):
                    assert in_image_Sq(ctx, part, q)

    @given(bcd_orbits())
    @settings(max_examples=200)
    def test_search_matches_closed_form(self, orbit):
        assert resolution_by_search(orbit) == (
            closed_form_verdict(orbit).answer is Verdict.YES
        )

    @given(bcd_orbits())
    def test_resolution_implies_polarizable(self, orbit):
        if resolution_by_search(orbit):
            assert polarizable(orbit).polarizable


class TestReports:
    def test_report_fields(self):
        report = hesselink_report(CTX_SO7, d("3,2,2"), 1)
        assert report.q == 1
        assert report.in_image is True
        assert report.N_P == 1
        assert report.u == Fraction(0)

    def test_inadmissible_report_rejected(self):
        with pytest.raises(InadmissibleQ):
            hesselink_report(CTX_SO7, d("3,2,2"), 2)

    def test_json_sentinels(self):
        report = hesselink_report(CTX_SO7, d("3,2,2"), 1)
        payload = report.to_json_dict()
        assert payload["j1"] == "-inf"
        assert payload["j0"] == 2
        assert payload["u"] == "0"
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_admissible_reports_cover_range(self):
        orbit = validate_orbit(SO8, (3, 3, 1, 1))
        reports = admissible_reports(orbit)
        assert [r.q for r in reports] == [0, 4, 6, 8]
        assert [(r.q, r.N_P) for r in reports if r.in_image] == [(0, 2), (4, 1)]

    def test_admissible_reports_empty_for_sl(self):
        assert admissible_reports(validate_orbit(LieType(Family.SL, 4), (2, 2))) == ()


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
        j1 = max((j for j in marked if seq[j] % 2 == 1), default=NEG_INF)
        j0 = min(j for j in marked if seq[j] % 2 == 0)
        pairing = all(
            (seq[j] - seq[j + 1]) % 2 == 0 for j in range(1, top + 1) if j % 2 != m % 2
        )
        B = tuple(j for j in range(1, n + 1) if seq[j] > seq[j + 1] and seq[j] % 2 != eps)
        n_odd = sum(1 for p in parts if p % 2 == 1)
        u = Fraction((-1) ** eps * (n_odd - q), 2)
        in_image = j1 <= q < j0 and pairing
        degree = None
        if in_image:
            exponent = u if q + eps >= 1 or not B else u - 1
            assert exponent.denominator == 1 and exponent >= 0
            degree = 2 ** int(exponent)
        J = tuple(sorted(j for j in marked if j <= n))
        records.append((q, J, j1, j0, B, u, in_image, degree))
    return records


def bcd_orbits_up_to(max_m):
    for family, low in ((Family.SP, 2), (Family.SO_ODD, 3), (Family.SO_EVEN, 4)):
        for m in range(low, max_m + 1, 2):
            yield from enumerate_orbits(LieType(family, m))


class TestAnalysis:
    def test_matches_per_q_definitions_up_to_m16(self):
        checked = 0
        for orbit in bcd_orbits_up_to(16):
            expected = plain_records(orbit)
            got = [
                (r.q, r.J, r.j1, r.j0, r.B, r.u, r.in_image, r.N_P)
                for r in admissible_reports(orbit)
            ]
            assert got == expected, orbit
            witnesses = [(w.q, w.N_P) for w in polarizable(orbit).witnesses]
            assert witnesses == [(rec[0], rec[7]) for rec in expected if rec[6]], orbit
            checked += 1
        assert checked > 500

    def test_compute_J_once_per_call(self, monkeypatch):
        calls = []
        original = hesselink.compute_J

        def counted(ctx, part):
            calls.append(part)
            return original(ctx, part)

        monkeypatch.setattr(hesselink, "compute_J", counted)
        orbits = [
            validate_orbit(LieType(Family.SP, 20), (1,) * 20),  # 11 admissible q
            validate_orbit(LieType(Family.SO_EVEN, 16), (3, 3, 2, 2, 1, 1, 1, 1, 1, 1)),
            validate_orbit(LieType(Family.SO_ODD, 15), (5, 3, 3, 1, 1, 1, 1)),
        ]
        for orbit in orbits:
            for call in (admissible_reports, polarizable, resolution_by_search):
                calls.clear()
                call(orbit)
                assert len(calls) == 1, (call.__name__, orbit)
