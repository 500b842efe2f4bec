from __future__ import annotations

import pytest
from hypothesis import given

from common import ALL_FAMILIES, partitions, valid_orbits
from orbitres import (
    Family,
    LieType,
    orbit_dimension,
    parse_algebra,
    parse_partition,
    validate_orbit,
)
from orbitres.errors import (
    InvalidLabel,
    InvalidLieType,
    NonPositivePart,
    NotWeaklyDecreasing,
    ParityMultiplicityViolation,
    ParseError,
    RankTooSmall,
    WrongSum,
)
from orbitres.orbits import Partition, VeryEvenLabel, is_even_orbit, minimal_orbit, profile

SL3 = LieType(Family.SL, 3)
SL4 = LieType(Family.SL, 4)
SP6 = LieType(Family.SP, 6)
SO7 = LieType(Family.SO_ODD, 7)
SO8 = LieType(Family.SO_EVEN, 8)


class TestLieType:
    def test_parity_constraints(self):
        with pytest.raises(InvalidLieType):
            LieType(Family.SP, 7)
        with pytest.raises(InvalidLieType):
            LieType(Family.SO_ODD, 8)
        with pytest.raises(InvalidLieType):
            LieType(Family.SO_EVEN, 7)

    def test_minimum_sizes(self):
        with pytest.raises(InvalidLieType):
            LieType(Family.SO_EVEN, 2)
        with pytest.raises(InvalidLieType):
            LieType(Family.SO_ODD, 1)
        assert LieType(Family.SL, 1).m == 1

    def test_names_and_ranks(self):
        assert SO8.name == "so8" and SO8.cartan_label == "D4" and SO8.rank == 4
        assert SO7.cartan_label == "B3"
        assert SP6.cartan_label == "C3"
        assert LieType(Family.SL, 5).cartan_label == "A4"


class TestPartition:
    def test_shape_errors(self):
        with pytest.raises(NotWeaklyDecreasing):
            Partition((2, 3))
        with pytest.raises(NonPositivePart):
            Partition((2, 0))
        with pytest.raises(NonPositivePart):
            Partition(())

    def test_dual(self):
        assert Partition((3, 1)).dual().parts == (2, 1, 1)
        assert Partition((2, 2)).dual().parts == (2, 2)

    @given(partitions())
    def test_dual_is_an_involution(self, d):
        assert d.dual().dual() == d

    @given(partitions())
    def test_dual_counts(self, d):
        # oracle: direct count over the parts
        expected = [sum(1 for p in d if p >= i) for i in range(1, d.parts[0] + 1)]
        assert list(d.dual()) == expected

    def test_compact_str(self):
        assert Partition((2, 2, 1, 1, 1, 1)).compact_str() == "2^2,1^4"
        assert Partition((3, 2, 2, 1)).compact_str() == "3,2^2,1"
        assert Partition((5,)).compact_str() == "5"


class TestValidateOrbit:
    def test_sp6_411_is_valid(self):
        orbit = validate_orbit(SP6, (4, 1, 1))
        assert orbit.partition.parts == (4, 1, 1)
        assert orbit.very_even_label is None

    def test_so8_parity_violation(self):
        with pytest.raises(ParityMultiplicityViolation) as info:
            validate_orbit(SO8, (4, 2, 1, 1))
        assert info.value.part in (4, 2)
        assert info.value.multiplicity == 1

    def test_sp_parity_violation_names_offender(self):
        with pytest.raises(ParityMultiplicityViolation) as info:
            validate_orbit(SP6, (3, 2, 1))
        assert info.value.part == 3
        assert info.value.multiplicity == 1

    def test_zero_orbit(self):
        orbit = validate_orbit(SL3, (1, 1, 1))
        assert orbit.is_zero

    def test_wrong_sum(self):
        with pytest.raises(WrongSum):
            validate_orbit(SP6, (4, 1))

    def test_very_even_label_defaults_to_I(self):
        orbit = validate_orbit(SO8, (4, 4))
        assert orbit.very_even_label is VeryEvenLabel.I
        other = validate_orbit(SO8, (4, 4), VeryEvenLabel.II)
        assert other.very_even_label is VeryEvenLabel.II

    def test_label_rejected_when_not_very_even(self):
        with pytest.raises(InvalidLabel):
            validate_orbit(SO8, (3, 2, 2, 1), VeryEvenLabel.I)
        with pytest.raises(InvalidLabel):
            validate_orbit(SP6, (2, 2, 2), VeryEvenLabel.I)


class TestProfile:
    def test_sl4_square(self):
        prof = profile(validate_orbit(SL4, (2, 2)))
        assert prof.k == 1 and prof.c == 2
        assert prof.r == {2: 2}
        assert prof.s == {1: 2, 2: 2}

    def test_so8_3221(self):
        prof = profile(validate_orbit(SO8, (3, 2, 2, 1)))
        assert (prof.a, prof.b, prof.l) == (2, 1, 0)
        assert prof.rather_odd is True

    def test_sp6_2211(self):
        prof = profile(validate_orbit(SP6, (2, 2, 1, 1)))
        assert (prof.a, prof.b, prof.l) == (1, 1, 1)

    def test_rather_odd_vacuous_for_all_even(self):
        assert profile(validate_orbit(SO8, (4, 4))).rather_odd is True

    @given(valid_orbits())
    def test_counting_identities(self, orbit):
        prof = profile(orbit)
        # oracle: brute-force counts straight off the parts
        parts = orbit.partition.parts
        assert sum(i * count for i, count in prof.r.items()) == orbit.m
        assert prof.a + prof.b == prof.k
        assert prof.s == {i: sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)}
        assert prof.rather_odd == all(
            count == 1 for v, count in prof.r.items() if v % 2 == 1
        )

    def test_profile_independent_of_label(self):
        one = profile(validate_orbit(SO8, (4, 4), VeryEvenLabel.I))
        two = profile(validate_orbit(SO8, (4, 4), VeryEvenLabel.II))
        assert one == two

    @pytest.mark.parametrize("m", range(1, 21))
    def test_exhaustive_counting_sweep(self, m):
        # every partition of m is a valid sl_m orbit: check the profile
        # identities against brute-force counts over the whole universe
        from common import accel_asc

        lie_type = LieType(Family.SL, m)
        for parts in accel_asc(m):
            orbit = validate_orbit(lie_type, parts)
            prof = profile(orbit)
            assert sum(i * count for i, count in prof.r.items()) == m
            assert prof.r == {v: parts.count(v) for v in set(parts)}
            assert prof.s == {
                i: sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)
            }
            dim = orbit_dimension(orbit)
            assert dim % 2 == 0
            assert (dim == 0) == (parts == (1,) * m)


class TestEvenOrbit:
    def test_examples(self):
        assert is_even_orbit(validate_orbit(SO8, (5, 3))) is True
        assert is_even_orbit(validate_orbit(SO8, (3, 2, 2, 1))) is False
        assert is_even_orbit(validate_orbit(SL4, (2, 1, 1))) is False


class TestOrbitDimension:
    def test_minimal_orbit_dimensions(self):
        # oracles: dim O_min(sp_2n) = 2n, dim O_min(so_m) = 2m - 6
        assert orbit_dimension(validate_orbit(SP6, (2, 1, 1, 1, 1))) == 6
        assert orbit_dimension(validate_orbit(SO8, (2, 2, 1, 1, 1, 1))) == 10
        assert orbit_dimension(validate_orbit(SO7, (2, 2, 1, 1, 1))) == 8

    def test_zero_orbit_dimension(self):
        assert orbit_dimension(validate_orbit(SL3, (1, 1, 1))) == 0

    def test_regular_orbit_dimensions(self):
        # oracles: dim O_reg = dim(g) - rank(g)
        assert orbit_dimension(validate_orbit(SL4, (4,))) == 16 - 4
        assert orbit_dimension(validate_orbit(SP6, (6,))) == 21 - 3
        assert orbit_dimension(validate_orbit(SO7, (7,))) == 21 - 3
        assert orbit_dimension(validate_orbit(SO8, (7, 1))) == 28 - 4

    @given(valid_orbits())
    def test_even_and_zero_iff_trivial(self, orbit):
        dim = orbit_dimension(orbit)
        assert dim % 2 == 0
        assert (dim == 0) == orbit.is_zero


class TestMinimalOrbit:
    def test_known_partitions(self):
        assert minimal_orbit(SO7).partition.parts == (2, 2, 1, 1, 1)
        assert minimal_orbit(SP6).partition.parts == (2, 1, 1, 1, 1)
        assert minimal_orbit(SO8).partition.parts == (2, 2, 1, 1, 1, 1)
        assert minimal_orbit(SL3).partition.parts == (2, 1)

    def test_rank_bounds(self):
        with pytest.raises(RankTooSmall):
            minimal_orbit(LieType(Family.SP, 4))
        with pytest.raises(RankTooSmall):
            minimal_orbit(LieType(Family.SO_EVEN, 6))
        with pytest.raises(RankTooSmall):
            minimal_orbit(LieType(Family.SO_ODD, 3))
        with pytest.raises(RankTooSmall):
            minimal_orbit(LieType(Family.SL, 1))

    @pytest.mark.parametrize("family,ms", [
        (Family.SL, range(2, 11)),
        (Family.SP, range(6, 17, 2)),
        (Family.SO_ODD, range(5, 17, 2)),
        (Family.SO_EVEN, range(8, 17, 2)),
    ])
    def test_minimal_orbits_validate(self, family, ms):
        for m in ms:
            orbit = minimal_orbit(LieType(family, m))
            assert orbit.partition.total == m


class TestParsing:
    def test_parse_partition_plain_and_shorthand(self):
        assert parse_partition("3,2,2,1").parts == (3, 2, 2, 1)
        assert parse_partition("2^2,1^4").parts == (2, 2, 1, 1, 1, 1)
        assert parse_partition(" 3, 2^2 ,1 ").parts == (3, 2, 2, 1)
        assert parse_partition("[4,1,1]").parts == (4, 1, 1)

    def test_parse_partition_errors(self):
        with pytest.raises(ParseError):
            parse_partition("")
        with pytest.raises(ParseError):
            parse_partition("3,x")
        with pytest.raises(ParseError):
            parse_partition("2^0,1")
        with pytest.raises(NotWeaklyDecreasing):
            parse_partition("1,2")

    @given(partitions())
    def test_parse_format_round_trip(self, d):
        assert parse_partition(d.compact_str()) == d

    def test_parse_algebra(self):
        assert parse_algebra("so8") == SO8
        assert parse_algebra("so7") == SO7
        assert parse_algebra("SP6") == SP6
        assert parse_algebra("sl5") == LieType(Family.SL, 5)
        assert parse_algebra("D4") == SO8
        assert parse_algebra("B3") == SO7
        assert parse_algebra("C3") == SP6
        assert parse_algebra("A4") == LieType(Family.SL, 5)

    def test_parse_algebra_errors(self):
        with pytest.raises(ParseError):
            parse_algebra("e8")
        with pytest.raises(ParseError):
            parse_algebra("so")
        with pytest.raises(InvalidLieType):
            parse_algebra("sp7")
