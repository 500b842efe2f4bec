"""Acceptance suite: the ten exit criteria, one test each, one line each.

Criteria 4, 5, 6 and 10 share a single exhaustive sweep over every valid
sp/so orbit with m <= 24, computed once per session.  Run with -s to see
the per-criterion pass lines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import pytest

from orbitres import (
    Family,
    LieType,
    Verdict,
    admissible_reports,
    admits_symplectic_resolution,
    enumerate_orbits,
    picard,
    polarizable,
    validate_orbit,
)
from orbitres.errors import InternalInvariantError, NotInDatabase, OrbitresError
from orbitres.exceptional import EXCEPTIONAL_TABLE, lookup_exceptional
from orbitres.orbits import is_even_orbit
from orbitres.picard import QFactorialCertificate, is_factorial, q_factorial_certificate
from orbitres.resolution import closed_form_verdict

MAX_SWEEP_M = 24


@dataclass
class SweepRecord:
    orbit: object
    closed_yes: bool
    search_yes: bool
    even: bool
    polarizable: bool
    pic_trivial: bool
    factorial: bool | None
    l: int
    free_rank: int


@dataclass
class SweepResult:
    records: list
    elapsed: float
    integrality_violations: int
    in_image_pairs: int


def _bcd_lie_types(max_m):
    for m in range(2, max_m + 1, 2):
        yield LieType(Family.SP, m)
    for m in range(3, max_m + 1, 2):
        yield LieType(Family.SO_ODD, m)
    for m in range(4, max_m + 1, 2):
        yield LieType(Family.SO_EVEN, m)


@pytest.fixture(scope="session")
def sweep():
    records = []
    violations = 0
    in_image_pairs = 0
    start = time.monotonic()
    for lie_type in _bcd_lie_types(MAX_SWEEP_M):
        for orbit in enumerate_orbits(lie_type):
            degree_one = False
            try:
                reports = admissible_reports(polarizable(orbit))
            except InternalInvariantError:
                violations += 1
                reports = ()
            for record in reports:
                if record.in_image:
                    in_image_pairs += 1
                    degree_one = degree_one or record.N_P == 1
            group = picard(orbit)
            records.append(
                SweepRecord(
                    orbit=orbit,
                    closed_yes=closed_form_verdict(orbit).answer is Verdict.YES,
                    search_yes=degree_one,
                    even=is_even_orbit(orbit),
                    polarizable=polarizable(orbit).polarizable,
                    pic_trivial=group.is_trivial,
                    factorial=is_factorial(orbit),
                    l=orbit.profile.l,
                    free_rank=group.free_rank,
                )
            )
    elapsed = time.monotonic() - start
    return SweepResult(records, elapsed, violations, in_image_pairs)


def test_criterion_1_so8_atlas():
    start = time.monotonic()
    orbits = list(enumerate_orbits(LieType(Family.SO_EVEN, 8)))
    verdicts = {
        (o.partition.parts, o.very_even_label.value if o.very_even_label else None):
            admits_symplectic_resolution(o).answer
        for o in orbits
    }
    elapsed = time.monotonic() - start
    assert len(orbits) == 12
    nos = sorted(parts for (parts, _), v in verdicts.items() if v is Verdict.NO)
    assert nos == [(2, 2, 1, 1, 1, 1), (3, 2, 2, 1)]
    assert all(v is Verdict.YES for (parts, _), v in verdicts.items()
               if parts not in ((2, 2, 1, 1, 1, 1), (3, 2, 2, 1)))
    assert elapsed < 1.0
    print(f"\ncriterion 1 (so8 atlas: 12 orbits, exactly 2 No, {elapsed:.3f}s): PASS")


def test_criterion_2_so7_atlas():
    orbits = list(enumerate_orbits(LieType(Family.SO_ODD, 7)))
    verdicts = {o.partition.parts: admits_symplectic_resolution(o) for o in orbits}
    nos = [parts for parts, v in verdicts.items() if v.answer is Verdict.NO]
    assert nos == [(2, 2, 1, 1, 1)]
    witness = verdicts[(3, 2, 2)].witness
    assert verdicts[(3, 2, 2)].answer is Verdict.YES and witness.q == 1
    print("criterion 2 (so7 atlas: only the minimal orbit fails; [3,2,2] yes at q=1): PASS")


def test_criterion_3_sp6():
    sp6 = LieType(Family.SP, 6)
    expected = {
        (4, 1, 1): Verdict.NO,
        (2, 1, 1, 1, 1): Verdict.NO,
        (3, 3): Verdict.YES,
        (2, 2, 2): Verdict.YES,
    }
    for parts, answer in expected.items():
        assert admits_symplectic_resolution(validate_orbit(sp6, parts)).answer is answer
    print("criterion 3 (sp6: [4,1,1] and minimal No; [3,3] and [2,2,2] Yes): PASS")


def test_criterion_4_route_equivalence(sweep):
    mismatches = [r.orbit for r in sweep.records if r.closed_yes != r.search_yes]
    assert mismatches == []
    assert sweep.elapsed < 60.0
    print(
        f"criterion 4 (route equivalence over {len(sweep.records)} orbits, m <= {MAX_SWEEP_M}, "
        f"{sweep.elapsed:.1f}s): PASS"
    )


def test_criterion_5_even_implies_yes_and_yes_implies_polarizable(sweep):
    even_failures = [r.orbit for r in sweep.records if r.even and not r.closed_yes]
    polar_failures = [r.orbit for r in sweep.records if r.closed_yes and not r.polarizable]
    assert even_failures == []
    assert polar_failures == []
    print("criterion 5 (even => yes; yes => polarizable; zero exceptions): PASS")


def test_criterion_6_picard_factoriality_coherence(sweep):
    fact_failures = [
        r.orbit for r in sweep.records
        if r.factorial is not None and r.factorial != r.pic_trivial
    ]
    rank_failures = [r.orbit for r in sweep.records if r.l == 0 and r.free_rank != 0]
    assert fact_failures == []
    assert rank_failures == []
    print("criterion 6 (factorial iff trivial Pic; l = 0 => free rank 0): PASS")


def test_criterion_7_minimal_orbit_sweep():
    # the minimal orbit is [2, 1^(m-2)] for sl and sp, [2^2, 1^(m-4)] for so
    for n in range(2, 9):
        m = 2 * n + 1
        orbit = validate_orbit(LieType(Family.SO_ODD, m), (2, 2) + (1,) * (m - 4))
        assert admits_symplectic_resolution(orbit).answer is Verdict.NO
    for n in range(3, 9):
        m = 2 * n
        orbit = validate_orbit(LieType(Family.SP, m), (2,) + (1,) * (m - 2))
        assert admits_symplectic_resolution(orbit).answer is Verdict.NO
    for n in range(4, 9):
        m = 2 * n
        orbit = validate_orbit(LieType(Family.SO_EVEN, m), (2, 2) + (1,) * (m - 4))
        assert admits_symplectic_resolution(orbit).answer is Verdict.NO
    for m in range(2, 11):
        orbit = validate_orbit(LieType(Family.SL, m), (2,) + (1,) * (m - 2))
        assert admits_symplectic_resolution(orbit).answer is Verdict.YES
    print("criterion 7 (minimal orbits: No across sp/so ranks, Yes across sl): PASS")


def test_criterion_8_rank_one_family():
    for n in (3, 5, 7):
        lie_type = LieType(Family.SO_EVEN, 2 * n)
        orbit = validate_orbit(lie_type, (2,) * (n - 1) + (1, 1))
        verdict = admits_symplectic_resolution(orbit)
        assert verdict.answer is Verdict.YES
        assert verdict.witness.pair_position == (n + 1) // 2
        group = picard(orbit)
        assert group.free_rank == 1
        assert q_factorial_certificate(group) is QFactorialCertificate.NOT_CERTIFIED
    print("criterion 8 ([2^(n-1),1^2] family: Yes via pair clause, Pic rank 1, not certified): PASS")


def test_criterion_9_exceptional_table():
    def verdicts(algebra):
        return [r.verdict for r in EXCEPTIONAL_TABLE if r.algebra == algebra]

    assert verdicts("F4") == [Verdict.YES]
    assert verdicts("E6") == [Verdict.YES] * 5
    e7 = verdicts("E7")
    assert e7.count(Verdict.YES) == 2 and e7.count(Verdict.UNKNOWN) == 3 and len(e7) == 5
    e8 = verdicts("E8")
    assert e8.count(Verdict.YES) == 3 and e8.count(Verdict.UNKNOWN) == 4 and len(e8) == 7
    assert verdicts("G2") == []
    with pytest.raises(NotInDatabase):
        lookup_exceptional("G2", "G2(a1)")
    with pytest.raises(NotInDatabase):
        lookup_exceptional("E8", "A1")
    with pytest.raises(OrbitresError, match="^unknown exceptional algebra 'F5' "):
        lookup_exceptional("F5", "C3")
    print("criterion 9 (exceptional table: 1+5 Yes, 2+3 Yes/Unknown E7, 3+4 E8, misses rejected): PASS")


def test_criterion_10_integrality_guard(sweep):
    assert sweep.integrality_violations == 0
    assert sweep.in_image_pairs > 0
    print(
        f"criterion 10 (degree exponent a non-negative integer across "
        f"{sweep.in_image_pairs} in-image pairs): PASS"
    )
