"""The exceptional isomorphisms of small classical algebras as a second
oracle: sl2 = sp2 = so3, sp4 = so5, sl4 = so6, the triality of so8, and
so4 = sl2 x sl2, whose orbits are pairs of sl2 orbits.

Corresponding orbits must agree on every invariant that does not depend on
how the algebra is written: dimension, factoriality, polarizability and
the resolution answer.  The Picard group is left out on purpose: sl4 [4]
is Z/4 while so6 [5,1] is left as an unresolved extension, and sp and so
share the free rank they give, so comparing them could not catch an error
in it.
"""

from __future__ import annotations

import pytest

from orbitres import (
    Family,
    LieType,
    Verdict,
    admits_symplectic_resolution,
    enumerate_orbits,
    orbit_dimension,
    polarizable,
    validate_orbit,
)
from orbitres.orbits import VeryEvenLabel
from orbitres.picard import is_factorial

SO8 = LieType(Family.SO_EVEN, 8)
SL2 = LieType(Family.SL, 2)


def invariants(orbit) -> tuple:
    return (
        orbit_dimension(orbit),
        is_factorial(orbit),
        polarizable(orbit).polarizable,
        admits_symplectic_resolution(orbit).answer,
    )


def by_dimension(lie_type: LieType) -> dict:
    """The orbits of one algebra keyed by dimension, which tells them apart
    in each of the small algebras checked here."""
    orbits = list(enumerate_orbits(lie_type))
    keyed = {orbit_dimension(orbit): orbit for orbit in orbits}
    assert len(keyed) == len(orbits), lie_type
    return keyed


@pytest.mark.parametrize(
    "lie_types",
    [
        ((Family.SL, 2), (Family.SP, 2), (Family.SO_ODD, 3)),
        ((Family.SP, 4), (Family.SO_ODD, 5)),
        ((Family.SL, 4), (Family.SO_EVEN, 6)),
    ],
    ids=["sl2=sp2=so3", "sp4=so5", "sl4=so6"],
)
def test_isomorphic_algebras_agree_orbit_by_orbit(lie_types):
    first, *others = [by_dimension(LieType(family, m)) for family, m in lie_types]
    for other in others:
        assert other.keys() == first.keys()
        for dim, orbit in first.items():
            assert invariants(other[dim]) == invariants(orbit), (orbit, other[dim])


@pytest.mark.parametrize(
    "triple",
    [
        ((2, 2, 2, 2), (2, 2, 2, 2), (3, 1, 1, 1, 1, 1)),
        ((4, 4), (4, 4), (5, 1, 1, 1)),
    ],
    ids=["[2^4] I, II, [3,1^5]", "[4^2] I, II, [5,1^3]"],
)
def test_so8_triality_permutes_three_orbits(triple):
    labels = (VeryEvenLabel.I, VeryEvenLabel.II, None)
    orbits = [validate_orbit(SO8, parts, label) for parts, label in zip(triple, labels)]
    assert len({invariants(orbit) for orbit in orbits}) == 1, orbits


# so4 = sl2 x sl2: each so4 orbit (partition, label) and its pair of sl2
# orbits, regular [2] or zero [1^2]; the two labels of [2^2] are the two
# orbits regular in one factor alone
SO4_AS_SL2_PAIRS = [
    ((3, 1), None, ((2,), (2,))),
    ((2, 2), VeryEvenLabel.I, ((2,), (1, 1))),
    ((2, 2), VeryEvenLabel.II, ((1, 1), (2,))),
    ((1, 1, 1, 1), None, ((1, 1), (1, 1))),
]


def test_so4_orbits_are_pairs_of_sl2_orbits():
    """Dimensions add over the two factors, and an so4 orbit is
    polarizable, or has a symplectic resolution, exactly when both of its
    factors are, or have one.  The Picard group is left out, as above."""
    so4 = LieType(Family.SO_EVEN, 4)
    orbits = [validate_orbit(so4, parts, label) for parts, label, _ in SO4_AS_SL2_PAIRS]
    assert orbits == list(enumerate_orbits(so4))
    assert [orbit_dimension(orbit) for orbit in orbits] == [4, 2, 2, 0]
    for orbit, (_, _, factors) in zip(orbits, SO4_AS_SL2_PAIRS):
        left, right = (validate_orbit(SL2, parts) for parts in factors)
        assert orbit_dimension(orbit) == orbit_dimension(left) + orbit_dimension(right)
        assert polarizable(orbit).polarizable == (
            polarizable(left).polarizable and polarizable(right).polarizable), orbit
        resolved = [admits_symplectic_resolution(o).answer is Verdict.YES for o in (orbit, left, right)]
        assert resolved[0] == (resolved[1] and resolved[2]), orbit
