"""Polarizability, witnesses and orbit dimensions checked against matrices.

For every parabolic of sp_m and so_m, ``matrix_oracle`` takes a generic
element y of its nilradical and reads the induced orbit's partition off
the ranks of y^j and its dimension off rank(ad y): no partition formula of
the package is used.  The orbits reached are exactly the polarizable ones,
the m0 of the Levis that reach an orbit are its Hesselink witnesses q
(m0 = 2 left out for so_even, whose g(2) is a torus and induces what GL_1
does), and rank(ad y) is ``orbit_dimension``.  Orbits are compared by
partition, since Jordan type cannot tell the very even labels I and II
apart.
"""

from __future__ import annotations

import pytest

from matrix_oracle import induced_orbits
from orbitres import Family, LieType, enumerate_orbits, orbit_dimension, polarizable, validate_orbit


def check_induced_orbits(max_m: int) -> int:
    """Compare every sp/so algebra with m <= max_m with its matrices;
    returns the number of induced orbits."""
    reached = 0
    for family, low in ((Family.SP, 2), (Family.SO_ODD, 3), (Family.SO_EVEN, 4)):
        for m in range(low, max_m + 1, 2):
            lie_type = LieType(family, m)
            found = induced_orbits(family is Family.SP, m, seed=f"{family.value}{m}")
            torus = {2} if family is Family.SO_EVEN else set()
            expected = {parts: m0s - torus for parts, (m0s, _) in found.items()}
            got = {}
            for orbit in enumerate_orbits(lie_type):
                pol = polarizable(orbit)
                if pol.polarizable:
                    qs = {w.q for w in pol.witnesses}
                    assert got.setdefault(orbit.partition.parts, qs) == qs, orbit
            assert got == expected, lie_type
            for parts, (_, dimension) in found.items():
                assert dimension == orbit_dimension(validate_orbit(lie_type, parts)), parts
            reached += len(found)
    return reached


def test_matrices_induce_the_polarizable_orbits():
    assert check_induced_orbits(12) == 146


@pytest.mark.sweep
def test_matrices_induce_the_polarizable_orbits_up_to_18():
    assert check_induced_orbits(18) == 564
