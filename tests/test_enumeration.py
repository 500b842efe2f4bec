from __future__ import annotations

import pytest

from common import BCD_FAMILIES, accel_asc, brute_force_valid
from orbitres import Family, LieType, count_orbits, enumerate_orbits
from orbitres.enumeration import partitions_desc
from orbitres.orbits import VeryEvenLabel


def test_partitions_desc_order_and_count():
    parts = list(partitions_desc(5))
    assert parts[0] == (5,)
    assert parts[-1] == (1, 1, 1, 1, 1)
    assert parts == sorted(parts, reverse=True)
    assert len(parts) == 7  # p(5)


def test_partitions_desc_against_independent_generator():
    for n in (1, 4, 9, 12):
        assert sorted(partitions_desc(n)) == sorted(accel_asc(n))


def test_sl4_orbits_frozen():
    orbits = [o.partition.parts for o in enumerate_orbits(LieType(Family.SL, 4))]
    assert orbits == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_sp2_orbits():
    assert count_orbits(LieType(Family.SP, 2)) == 2


def test_sl1_single_orbit():
    assert count_orbits(LieType(Family.SL, 1)) == 1


def test_so8_very_even_duplication():
    orbits = list(enumerate_orbits(LieType(Family.SO_EVEN, 8)))
    assert len(orbits) == 12
    assert len({o.partition.parts for o in orbits}) == 10
    labelled = [(o.partition.parts, o.very_even_label) for o in orbits if o.is_very_even]
    assert labelled == [
        ((4, 4), VeryEvenLabel.I),
        ((4, 4), VeryEvenLabel.II),
        ((2, 2, 2, 2), VeryEvenLabel.I),
        ((2, 2, 2, 2), VeryEvenLabel.II),
    ]


@pytest.mark.parametrize("family,m", [
    (Family.SP, 10),
    (Family.SO_ODD, 11),
    (Family.SO_EVEN, 12),
    (Family.SL, 9),
])
def test_matches_brute_force_filter(family, m):
    lie_type = LieType(family, m)
    partitions = [o.partition.parts for o in enumerate_orbits(lie_type)]
    expected = [p for p in accel_asc(m) if brute_force_valid(family, p)]
    assert sorted(set(partitions)) == sorted(expected)
    doubled = sum(
        1 for p in expected
        if family is Family.SO_EVEN and all(x % 2 == 0 for x in p)
    )
    assert len(partitions) == len(expected) + doubled


def test_no_duplicate_orbits():
    for family in BCD_FAMILIES:
        m = {Family.SP: 12, Family.SO_ODD: 11, Family.SO_EVEN: 12}[family]
        orbits = list(enumerate_orbits(LieType(family, m)))
        keys = [(o.partition.parts, o.very_even_label) for o in orbits]
        assert len(keys) == len(set(keys))


def test_stream_is_deterministic():
    lie_type = LieType(Family.SO_EVEN, 10)
    first = [(o.partition.parts, o.very_even_label) for o in enumerate_orbits(lie_type)]
    second = [(o.partition.parts, o.very_even_label) for o in enumerate_orbits(lie_type)]
    assert first == second


@pytest.mark.parametrize("family,m", [
    (Family.SL, 30),
    (Family.SP, 30),
    (Family.SO_ODD, 29),
    (Family.SO_EVEN, 30),
])
def test_large_enumeration_all_validate(family, m):
    # construction IS validation; any invalid emission would raise here
    count = count_orbits(LieType(family, m))
    assert count > 0
