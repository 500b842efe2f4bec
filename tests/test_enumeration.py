from __future__ import annotations

import operator
from itertools import islice

import pytest

from common import ALL_FAMILIES, BCD_FAMILIES, accel_asc, brute_force_valid
from orbitres import Family, LieType, count_orbits, enumerate_orbits
from orbitres.enumeration import enumerate_lie_types, partitions_desc
from orbitres.errors import OrbitresError
from orbitres.orbits import Partition, VeryEvenLabel


def expanded(runs: dict[int, int]) -> tuple[int, ...]:
    """The parts of a partition given as its runs, one part at a time."""
    return tuple(value for value, count in runs.items() for _ in range(count))


def test_partitions_desc_order_and_count():
    parts = [expanded(runs) for runs in partitions_desc(5)]
    assert parts[0] == (5,)
    assert parts[-1] == (1, 1, 1, 1, 1)
    assert parts == sorted(parts, reverse=True)
    assert len(parts) == 7  # p(5)


def test_partitions_desc_against_independent_generator():
    # ordered lists: the atlas bytes depend on the order, not just the set;
    # each generator is read one item past the oracle's list, so one that
    # runs on past its last partition, or forever, fails here at once
    for n in range(1, 31):
        every = sorted(accel_asc(n), reverse=True)
        for paired, family in ((None, Family.SL), (0, Family.SO_ODD), (1, Family.SP)):
            expected = [p for p in every if brute_force_valid(family, p)]
            got = islice(partitions_desc(n, paired=paired), len(expected) + 1)
            assert list(map(expanded, got)) == expected
    # parts of parity `paired` come in pairs, so an odd total has none with odd pairs
    for n in range(1, 31, 2):
        assert list(islice(partitions_desc(n, paired=1), 1)) == []
    for paired in (None, 0, 1):
        assert list(islice(partitions_desc(0, paired=paired), 2)) == [{}]


def test_partitions_desc_yields_a_new_dict_each_time():
    """For every family and every m <= 30, each partition comes as its own
    dict, left as it was when the next one is made, of exact-int runs:
    values strictly descending, multiplicities positive, summing to m.
    ``enumerate_orbits`` stores each dict in its Partition without the
    run gate, so this is the shape that gate would have checked, and the
    gate keeps these runs as they are."""
    for family, m in enumerate_lie_types(30):
        paired = family.constrained_parity
        kept = list(partitions_desc(m, paired=paired))
        assert kept, (family, m)
        assert kept == [dict(runs) for runs in partitions_desc(m, paired=paired)]
        assert len({id(runs) for runs in kept}) == len(kept)
        for runs in kept:
            values, counts = list(runs), list(runs.values())
            assert all(type(x) is int for x in values + counts), runs
            assert all(map(operator.gt, values, values[1:])), runs
            assert min(counts) > 0, runs
            assert sum(map(operator.mul, values, counts)) == m, runs
            assert list(Partition.from_runs(runs).counts.items()) == list(runs.items())


def test_enumerate_lie_types_yields_what_the_gate_accepts():
    """The algebras with m <= 40 are exactly the (family, m) pairs the
    LieType gate accepts, in ``Family`` order with m ascending."""
    accepted = []
    for family in Family:
        for m in range(-1, 41):
            try:
                accepted.append(LieType(family, m))
            except OrbitresError:
                pass
    assert list(enumerate_lie_types(40)) == accepted
    assert [lie_type.name for lie_type in enumerate_lie_types(4)] == [
        "sl1", "sl2", "sl3", "sl4", "sp2", "sp4", "so3", "so4"]
    assert list(enumerate_lie_types(0)) == []


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
    labelled = [(o.partition.parts, o.very_even_label) for o in orbits
                if o.very_even_label is not None]
    assert labelled == [
        ((4, 4), VeryEvenLabel.I),
        ((4, 4), VeryEvenLabel.II),
        ((2, 2, 2, 2), VeryEvenLabel.I),
        ((2, 2, 2, 2), VeryEvenLabel.II),
    ]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_matches_brute_force_filter(family):
    # ordered lists: a generator yielding the right set in another order
    # would reorder every atlas, so it must fail here
    for m in range(1, 21):
        try:
            lie_type = LieType(family, m)
        except OrbitresError:
            continue
        expected = []
        valid = (p for p in accel_asc(m) if brute_force_valid(family, p))
        for p in sorted(valid, reverse=True):
            if family is Family.SO_EVEN and all(x % 2 == 0 for x in p):
                expected += [(p, VeryEvenLabel.I), (p, VeryEvenLabel.II)]
            else:
                expected.append((p, None))
        orbits = [(o.partition.parts, o.very_even_label) for o in enumerate_orbits(lie_type)]
        assert orbits == expected, lie_type


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
