"""Shared strategies and oracles for the test suite.

The orbit strategies construct valid partitions directly (constrained-parity
parts are drawn in pairs), so hypothesis spends its budget on interesting
cases rather than on rejection sampling.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import assume
from hypothesis import strategies as st

from orbitres import Family, LieType, validate_orbit
from orbitres.errors import InvalidLieType
from orbitres.orbits import Partition

ALL_FAMILIES = (Family.SL, Family.SP, Family.SO_ODD, Family.SO_EVEN)
BCD_FAMILIES = (Family.SP, Family.SO_ODD, Family.SO_EVEN)


def accel_asc(n: int):
    """Independent partition generator (ascending compositions)."""
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(sorted(a[: k + 1], reverse=True))


def brute_force_valid(family: Family, parts: tuple[int, ...]) -> bool:
    """Multiplicity-constraint oracle, written independently of the package."""
    if family is Family.SL:
        return True
    constrained = 1 if family is Family.SP else 0
    return all(
        count % 2 == 0
        for value, count in Counter(parts).items()
        if value % 2 == constrained
    )


@st.composite
def partitions(draw, max_part: int = 10, max_len: int = 8) -> Partition:
    values = draw(st.lists(st.integers(1, max_part), min_size=1, max_size=max_len))
    return Partition(tuple(sorted(values, reverse=True)))


@st.composite
def valid_orbits(draw, families=ALL_FAMILIES):
    """A validated orbit of a random family with a random valid partition."""
    family = draw(st.sampled_from(families))
    if family is Family.SL:
        parts = tuple(sorted(draw(st.lists(st.integers(1, 8), min_size=1, max_size=8)), reverse=True))
    else:
        constrained = 1 if family is Family.SP else 0
        # constrained-parity values are injected twice each, free values once
        paired_raw = draw(st.lists(st.integers(1, 4), max_size=3))
        free_raw = draw(st.lists(st.integers(1, 4), max_size=5))
        if constrained == 1:
            paired = [2 * v - 1 for v in paired_raw]
            free = [2 * v for v in free_raw]
        else:
            paired = [2 * v for v in paired_raw]
            free = [2 * v - 1 for v in free_raw]
        parts = tuple(sorted(paired * 2 + free, reverse=True))
        assume(parts)
    try:
        lie_type = LieType(family, sum(parts))
    except InvalidLieType:
        assume(False)
    return validate_orbit(lie_type, parts)


def bcd_orbits():
    return valid_orbits(families=BCD_FAMILIES)
