from __future__ import annotations

import json
import math

import pytest
from hypothesis import given

from common import bcd_orbits, json_text, valid_orbits
from orbitres import Family, LieType, build_report, enumerate_orbits, picard, validate_orbit
from orbitres.errors import InternalInvariantError
from orbitres.orbits import VeryEvenLabel
from orbitres.picard import (
    AbelianGroupDescriptor,
    QFactorialCertificate,
    UnresolvedExtension,
    is_factorial,
    q_factorial_certificate,
)

SL3 = LieType(Family.SL, 3)
SP6 = LieType(Family.SP, 6)
SO7 = LieType(Family.SO_ODD, 7)
SO8 = LieType(Family.SO_EVEN, 8)
SO10 = LieType(Family.SO_EVEN, 10)


class TestDescriptor:
    def test_trivial(self):
        assert AbelianGroupDescriptor().is_trivial
        assert not AbelianGroupDescriptor(free_rank=1).is_trivial
        assert not AbelianGroupDescriptor(torsion=(2,)).is_trivial
        assert not AbelianGroupDescriptor(
            unresolved_extension=UnresolvedExtension(0)
        ).is_trivial

    def test_torsion_entries_validated(self):
        with pytest.raises(InternalInvariantError, match="^torsion factors must be at least 2$"):
            AbelianGroupDescriptor(torsion=(1,))

    def test_torsion_given_as_an_iterator(self):
        """A torsion read once, as from a generator, is kept and checked."""
        group = AbelianGroupDescriptor(0, (t for t in (2, 4)))
        assert group.torsion == (4, 2) and str(group) == "Z/4 x Z/2"
        with pytest.raises(InternalInvariantError, match="^torsion factors must be at least 2$"):
            AbelianGroupDescriptor(0, (t for t in (3, 1)))

    def test_torsion_and_extension_exclusive(self):
        with pytest.raises(InternalInvariantError, match="^torsion and unresolved extension are"):
            AbelianGroupDescriptor(torsion=(2,), unresolved_extension=UnresolvedExtension(1))

    def test_order(self):
        # the order is read off the fields and the printed form
        trivial = AbelianGroupDescriptor()
        assert (trivial.free_rank, trivial.torsion, str(trivial)) == (0, (), "trivial")
        finite = AbelianGroupDescriptor(torsion=(2, 2, 3))
        assert finite.free_rank == 0 and math.prod(finite.torsion) == 12
        assert str(finite) == "Z/3 x (Z/2)^2"
        assert str(AbelianGroupDescriptor(free_rank=2)) == "Z^2"
        extension = AbelianGroupDescriptor(unresolved_extension=UnresolvedExtension(2))
        assert 2 ** (extension.unresolved_extension.kernel_exponent + 1) == 8
        assert str(extension) == "extension of Z/2 by (Z/2)^2 (order 8)"

    def test_json_schema(self):
        report = build_report(validate_orbit(SO7, (3, 2, 2)))

        def picard_json(group):
            return json.loads(json_text(report._replace(picard=group)))["picard"]

        d = AbelianGroupDescriptor(free_rank=1, torsion=(2,))
        assert picard_json(d) == {
            "free_rank": 1,
            "torsion": [2],
            "unresolved_extension": None,
            "trivial": False,
        }
        e = AbelianGroupDescriptor(unresolved_extension=UnresolvedExtension(3))
        assert picard_json(e)["unresolved_extension"] == {"kernel_exponent": 3}

    def test_str(self):
        assert str(AbelianGroupDescriptor()) == "trivial"
        assert str(AbelianGroupDescriptor(free_rank=1, torsion=(2, 2))) == "Z x (Z/2)^2"
        assert str(AbelianGroupDescriptor(torsion=(3,))) == "Z/3"
        assert str(AbelianGroupDescriptor(unresolved_extension=UnresolvedExtension(0))) == "Z/2"
        # runs of equal factors, largest first, whatever the order given
        many = AbelianGroupDescriptor(free_rank=3, torsion=(2, 4, 2, 3, 4, 2))
        assert str(many) == "Z^3 x (Z/4)^2 x Z/3 x (Z/2)^3"


class TestPicardSL:
    def test_zero_orbit_trivial(self):
        assert picard(validate_orbit(SL3, (1, 1, 1))).is_trivial

    def test_regular_orbit_full_torsion(self):
        group = picard(validate_orbit(SL3, (3,)))
        assert group.free_rank == 0 and group.torsion == (3,)

    def test_subregular(self):
        group = picard(validate_orbit(SL3, (2, 1)))
        assert group.free_rank == 1 and group.torsion == ()

    @pytest.mark.parametrize("n", range(2, 11))
    def test_regular_torsion_is_n(self, n):
        group = picard(validate_orbit(LieType(Family.SL, n), (n,)))
        assert group.torsion == (n,)


class TestPicardBCD:
    def test_sp6_minimal(self):
        group = picard(validate_orbit(SP6, (2, 1, 1, 1, 1)))
        assert group.free_rank == 0 and group.torsion == (2,)

    def test_sp6_all_odd_trivial(self):
        assert picard(validate_orbit(SP6, (3, 3))).is_trivial

    def test_so7_rather_odd_extension(self):
        group = picard(validate_orbit(SO7, (3, 2, 2)))
        assert group.unresolved_extension == UnresolvedExtension(0)
        assert str(group) == "Z/2"
        assert not group.is_trivial

    def test_so_even_rank_one_family(self):
        # [2^{n-1}, 1^2] for odd n: free rank 1, no torsion
        for n in (3, 5, 7):
            lie_type = LieType(Family.SO_EVEN, 2 * n)
            parts = (2,) * (n - 1) + (1, 1)
            group = picard(validate_orbit(lie_type, parts))
            assert group.free_rank == 1 and group.torsion == ()

    def test_very_even_partition_order_two(self):
        group = picard(validate_orbit(SO8, (4, 4)))
        assert group.unresolved_extension == UnresolvedExtension(0)

    def test_so8_two_rather_odd_parts(self):
        group = picard(validate_orbit(SO8, (5, 3)))
        assert group.unresolved_extension == UnresolvedExtension(1)
        assert str(group) == "extension of Z/2 by (Z/2)^1 (order 4)"

    def test_picard_independent_of_label(self):
        one = picard(validate_orbit(SO8, (4, 4), VeryEvenLabel.I))
        two = picard(validate_orbit(SO8, (4, 4), VeryEvenLabel.II))
        assert one == two

    @pytest.mark.parametrize("lie_type", [SL3, SP6, SO7, SO8])
    def test_zero_orbit_picard_trivial(self, lie_type):
        assert picard(validate_orbit(lie_type, (1,) * lie_type.m)).is_trivial

    @given(bcd_orbits())
    def test_free_rank_equals_l(self, orbit):
        assert picard(orbit).free_rank == orbit.profile.l

    @given(bcd_orbits())
    def test_branch_structure(self, orbit):
        prof = orbit.profile
        group = picard(orbit)
        if orbit.lie_type.family is Family.SP:
            assert group.torsion == (2,) * prof.b
            assert group.unresolved_extension is None
        elif prof.rather_odd:
            assert group.unresolved_extension == UnresolvedExtension(max(0, prof.a - 1))
        else:
            assert group.torsion == (2,) * max(0, prof.a - 1)


class TestQFactorial:
    def test_examples(self):
        def certificate(lie_type, parts):
            return q_factorial_certificate(picard(validate_orbit(lie_type, parts)))

        assert certificate(SP6, (2, 1, 1, 1, 1)) is QFactorialCertificate.CERTIFIED
        assert certificate(SO10, (2, 2, 2, 2, 1, 1)) is QFactorialCertificate.NOT_CERTIFIED
        assert certificate(LieType(Family.SL, 4), (2, 2)) is QFactorialCertificate.CERTIFIED
        assert certificate(LieType(Family.SL, 4), (2, 1, 1)) is QFactorialCertificate.NOT_CERTIFIED

    @given(bcd_orbits())
    def test_certificate_tracks_l(self, orbit):
        expected = orbit.profile.l == 0
        certified = q_factorial_certificate(picard(orbit)) is QFactorialCertificate.CERTIFIED
        assert certified == expected

    @pytest.mark.parametrize("family,low", [
        (Family.SL, 1), (Family.SP, 2), (Family.SO_ODD, 3), (Family.SO_EVEN, 4),
    ])
    def test_certificate_restated_from_the_parts(self, family, low):
        # oracle: the certificate read off the raw parts, every orbit with m <= 20
        step = 1 if family is Family.SL else 2
        for m in range(low, 21, step):
            for orbit in enumerate_orbits(LieType(family, m)):
                parts = orbit.partition.parts
                if family is Family.SL:
                    expected = len(set(parts)) == 1
                else:
                    free = 0 if family is Family.SP else 1  # the unconstrained parity
                    expected = not any(
                        p % 2 == free and parts.count(p) == 2 for p in set(parts))
                certified = q_factorial_certificate(picard(orbit)) is QFactorialCertificate.CERTIFIED
                assert certified is expected, orbit


class TestFactorial:
    def test_examples(self):
        assert is_factorial(validate_orbit(SP6, (3, 3))) is True
        assert is_factorial(validate_orbit(LieType(Family.SL, 5), (5,))) is False
        assert is_factorial(validate_orbit(SO7, (3, 3, 1))) is False
        # one distinct odd part with multiplicity 3 (so_odd threshold)
        assert is_factorial(validate_orbit(LieType(Family.SO_ODD, 9), (3, 3, 3))) is True
        # so_even threshold is multiplicity 4
        assert is_factorial(validate_orbit(SO8, (2, 2, 1, 1, 1, 1))) is True
        assert is_factorial(validate_orbit(SO8, (3, 3, 1, 1))) is False

    def test_zero_orbit_excluded(self):
        assert is_factorial(validate_orbit(SL3, (1, 1, 1))) is None
        assert is_factorial(validate_orbit(SO8, (1,) * 8)) is None
        assert is_factorial(validate_orbit(SP6, (1,) * 6)) is None
        # None for the zero orbit of every algebra with m <= 12, sl1 [1] included, and
        # for no other orbit of them
        for family, low in ((Family.SL, 1), (Family.SP, 2), (Family.SO_ODD, 3), (Family.SO_EVEN, 4)):
            for m in range(low, 13, 1 if family is Family.SL else 2):
                for orbit in enumerate_orbits(LieType(family, m)):
                    zero = orbit.partition.parts == (1,) * m
                    assert (is_factorial(orbit) is None) == zero, orbit

    @pytest.mark.parametrize("family,low", [
        (Family.SL, 1), (Family.SP, 2), (Family.SO_ODD, 3), (Family.SO_EVEN, 4),
    ])
    def test_rule_restated_from_the_parts(self, family, low):
        # oracle: the factoriality rule read off the raw parts, every orbit with m <= 20
        step = 1 if family is Family.SL else 2
        for m in range(low, 21, step):
            for orbit in enumerate_orbits(LieType(family, m)):
                parts = orbit.partition.parts
                odd = {p for p in parts if p % 2 == 1}
                if parts == (1,) * m:
                    expected = None
                elif family is Family.SL:
                    expected = False
                elif family is Family.SP:
                    expected = all(p % 2 == 1 for p in parts)
                else:
                    floor = 4 if family is Family.SO_EVEN else 3
                    expected = len(odd) == 1 and parts.count(min(odd)) >= floor
                assert is_factorial(orbit) is expected, orbit

    @given(bcd_orbits())
    def test_factorial_iff_trivial_picard(self, orbit):
        if orbit.partition.parts == (1,) * orbit.lie_type.m:  # the zero orbit
            return
        assert is_factorial(orbit) == picard(orbit).is_trivial

    @given(valid_orbits(families=(Family.SL,)))
    def test_sl_never_factorial(self, orbit):
        if orbit.partition.parts == (1,) * orbit.lie_type.m:  # the zero orbit
            return
        assert is_factorial(orbit) is False
