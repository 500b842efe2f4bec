"""A grading oracle for ``orbit_dimension`` and ``is_even_orbit`` on every
classical orbit, sharing nothing with the dual-partition formulas.

Let (e, h, f) be an sl2-triple through the orbit's nilpotent e.  On the
defining space V, h acts on the Jordan block of size d with eigenvalues
d - 1, d - 3, ..., 1 - d.  ad h grades g by the weights of g in terms of
those of V: a - b over pairs of V's weights for sl (V ⊗ V* less the trace),
a + b over pairs of distinct positions for so (Λ²V), and those together
with 2a for sp (S²V).  By Jacobson-Morozov, dim g^e = dim g_0 + dim g_1
(Collingwood-McGovern ch. 3 and §5.3), so dim O = dim g - dim g_0 - dim g_1,
and the orbit is even exactly when g_1 = 0.
"""

from __future__ import annotations

from collections import Counter

from orbitres import Family, enumerate_orbits, orbit_dimension, parse_algebra, validate_orbit
from orbitres.enumeration import enumerate_lie_types
from orbitres.orbits import is_even_orbit


def graded_dimensions(orbit) -> Counter:
    """The dimension of each eigenspace of ad h on g, by eigenvalue."""
    family = orbit.lie_type.family
    weights = Counter()  # h's eigenvalues on V, with multiplicity
    for d, count in orbit.partition.counts.items():
        for i in range(d):
            weights[d - 1 - 2 * i] += count
    graded = Counter()
    for a, x in weights.items():
        for b, y in weights.items():
            if family is Family.SL:
                graded[a - b] += x * y
            elif a < b:
                graded[a + b] += x * y
            elif a == b:  # distinct positions of one weight, and for sp each with itself
                graded[2 * a] += x * (x - 1) // 2 + (x if family is Family.SP else 0)
    if family is Family.SL:
        graded[0] -= 1  # the trace
    return graded


def test_grading_gives_every_dimension_and_evenness():
    """Over every classical orbit with m <= 24, dim g - dim g_0 - dim g_1
    is ``orbit_dimension`` and g_1 = 0 exactly for the even orbits."""
    checked = 0
    for lie_type in enumerate_lie_types(24):
        family, m = lie_type
        dim_g = {Family.SL: m * m - 1, Family.SP: m * (m + 1) // 2}.get(family, m * (m - 1) // 2)
        for orbit in enumerate_orbits(lie_type):
            graded = graded_dimensions(orbit)
            assert sum(graded.values()) == dim_g, orbit
            assert dim_g - graded[0] - graded[1] == orbit_dimension(orbit), orbit
            assert (graded[1] == 0) is is_even_orbit(orbit), orbit
            checked += 1
    assert checked == 10_719


def test_grading_of_small_orbits():
    """Hand-checked values: the regular orbit of sl3 is even and has
    dimension 6, and the minimal orbit of sp4, [2,1^2], is not even and
    has dimension 4."""
    regular = graded_dimensions(validate_orbit(parse_algebra("sl3"), (3,)))
    assert (regular[0], regular[1], regular[2], regular[4]) == (2, 0, 2, 1)
    minimal = graded_dimensions(validate_orbit(parse_algebra("sp4"), (2, 1, 1)))
    assert (minimal[0], minimal[1], minimal[2]) == (4, 2, 1)
