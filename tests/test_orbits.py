from __future__ import annotations

import copy
import json
import math
import pickle

import pytest
from hypothesis import given

from common import ALL_FAMILIES, bcd_orbits_up_to, json_text, partitions, valid_orbits
from orbitres import (
    Family,
    LieType,
    build_report,
    enumerate_orbits,
    orbit_dimension,
    parse_algebra,
    parse_partition,
    validate_orbit,
)
from orbitres.errors import OrbitresError
from orbitres.orbits import Partition, VeryEvenLabel, is_even_orbit, profile

SL3 = LieType(Family.SL, 3)
SL4 = LieType(Family.SL, 4)
SP4 = LieType(Family.SP, 4)
SP6 = LieType(Family.SP, 6)
SO7 = LieType(Family.SO_ODD, 7)
SO8 = LieType(Family.SO_EVEN, 8)


def written_dual(parts) -> tuple[int, ...]:
    """The dual partition as the JSON report writes it, the values of the
    "s" map of the sl orbit of ``parts``, whose keys are 1, 2, ... in order."""
    partition = parts if isinstance(parts, Partition) else Partition(parts)
    orbit = validate_orbit(LieType(Family.SL, partition.total), partition)
    s = json.loads(json_text(build_report(orbit)))["profile"]["s"]
    assert list(s) == [str(i) for i in range(1, len(s) + 1)]
    return tuple(s.values())


class TestFamily:
    def test_fields_are_plain_member_attributes(self):
        """Every field past the value sits in the member's own dict, so the
        per-orbit code reads it without a property call."""
        fields = ("prefix", "letter", "min_m", "constrained_parity")
        assert [tuple(vars(f)[name] for name in fields) for f in Family] == [
            ("sl", "A", 1, None),
            ("sp", "C", 2, 1),
            ("so", "B", 3, 0),
            ("so", "D", 4, 0),
        ]

    def test_order_values_and_lookup(self):
        assert [f.name for f in Family] == ["SL", "SP", "SO_ODD", "SO_EVEN"]
        assert [f.value for f in Family] == ["sl", "sp", "so_odd", "so_even"]
        assert all(Family(f.value) is f for f in Family)
        assert Family("sp") is Family.SP


class TestLieType:
    def test_parity_constraints(self):
        with pytest.raises(OrbitresError, match="^sp requires even matrix size, got 7$"):
            LieType(Family.SP, 7)
        with pytest.raises(OrbitresError, match="^so_odd requires odd matrix size, got 8$"):
            LieType(Family.SO_ODD, 8)
        with pytest.raises(OrbitresError, match="^so_even requires even matrix size, got 7$"):
            LieType(Family.SO_EVEN, 7)

    def test_minimum_sizes(self):
        with pytest.raises(OrbitresError, match="^so_even requires m >= 4, got 2$"):
            LieType(Family.SO_EVEN, 2)
        with pytest.raises(OrbitresError, match="^so_odd requires m >= 3, got 1$"):
            LieType(Family.SO_ODD, 1)
        assert LieType(Family.SL, 1).m == 1

    def test_names_and_ranks(self):
        assert SO8.name == "so8" and SO8.cartan_label == "D4" and SO8.rank == 4
        assert SO7.cartan_label == "B3"
        assert SP6.cartan_label == "C3"
        assert LieType(Family.SL, 5).cartan_label == "A4"

    @pytest.mark.parametrize("m", [4.0, 4.5, "4", None, (4,)])
    def test_non_integer_m_rejected(self, m):
        # floats are not kept as sp4.0, strings are not compared with ints
        with pytest.raises(OrbitresError, match="^matrix size must be an integer, got "):
            LieType(Family.SP, m)

    def test_integer_like_m_coerced(self):
        class Four:
            def __index__(self):
                return 4

        lie_type = LieType(Family.SP, Four())
        assert lie_type == SP4 and type(lie_type.m) is int
        assert lie_type.name == "sp4" and lie_type.cartan_label == "C2"


class TestPartition:
    def test_shape_errors(self):
        with pytest.raises(OrbitresError, match="^parts must be weakly decreasing"):
            Partition((2, 3))
        with pytest.raises(OrbitresError, match="^parts must be positive"):
            Partition((2, 0))
        with pytest.raises(OrbitresError, match="^a partition needs at least one part$"):
            Partition(())

    @pytest.mark.parametrize("parts, offence, message", [  # offence: the rule broken first
        ((2, 0, 3), "NonPositivePart", "parts must be positive, got 0"),
        ((1, 2), "NotWeaklyDecreasing", "parts must be weakly decreasing, got 2 after 1"),
        ((3, -1), "NonPositivePart", "parts must be positive, got -1"),
        ((0,), "NonPositivePart", "parts must be positive, got 0"),
    ])
    def test_gate_names_the_first_offence(self, parts, offence, message):
        # positivity is checked before the order, whichever comes first
        with pytest.raises(OrbitresError) as raised:
            Partition(parts)
        assert type(raised.value) is OrbitresError and str(raised.value) == message

    def test_non_integer_parts_rejected(self):
        # floats are not truncated, strings are not read digit by digit; a
        # message names the offending type, and prints no input it has not checked
        for parts, message in [((2.9, 1), "a part must be an integer, got float"),
                               ("21", "a part must be an integer, got str"),
                               ((2, "x"), "a part must be an integer, got str"),
                               (3, "parts must be an iterable, got int")]:
            with pytest.raises(OrbitresError) as raised:
                validate_orbit(SL3, parts)
            assert str(raised.value) == message

    def test_equal_neighbours_merge_into_one_run(self):
        merged = Partition.from_runs([(2, 1), (2, 3), (1, 1)])
        assert merged.counts == {2: 4, 1: 1}
        assert merged == parse_partition("2,2^3,1") == Partition((2, 2, 2, 2, 1))
        assert list(parse_partition("2,2^3,1").counts.items()) == [(2, 4), (1, 1)]

    @pytest.mark.parametrize("runs, message", [
        ([], "a partition needs at least one part"),
        ([(2, 1), (0, 1)], "parts must be positive, got 0"),
        ([(2, 0)], "multiplicities must be positive, got 0"),
        ([(1, 1), (3, -1)], "multiplicities must be positive, got -1"),
        ([(1, 2), (2, 1)], "parts must be weakly decreasing, got 2 after 1"),
        ({1: 1, 2: 1}, "parts must be weakly decreasing, got 2 after 1"),
        ([(2, 1), (1, 1), (2, 1)], "parts must be weakly decreasing, got 2 after 1"),
        ([(2.0, 1)], "a part must be an integer, got float"),
        ([(2, 1, 1)], "runs must be (value, multiplicity) pairs"),
    ])
    def test_run_gate(self, runs, message):
        with pytest.raises(OrbitresError) as raised:
            Partition.from_runs(runs)
        assert str(raised.value) == message

    def test_runs_are_normalized_to_ints(self):
        partition = Partition.from_runs([(True, 2)])
        assert list(partition.counts.items()) == [(1, 2)]
        assert all(type(x) is int for x in (*partition.counts, *partition.counts.values()))
        assert partition.compact_str() == "1^2" and partition.parts == (1, 1)

    @given(partitions())
    def test_runs_round_trip(self, d):
        # oracle: the parts as drawn, before the gate grouped them
        assert Partition(d.parts).parts == d.parts
        assert Partition(d.parts) == d and hash(Partition(d.parts)) == hash(d)
        assert parse_partition(d.compact_str()) == d
        assert list(d.counts) == sorted(set(d.parts), reverse=True)
        assert d.total == sum(d.parts)
        for twin in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert type(twin) is Partition
            assert twin == d and hash(twin) == hash(d)
            assert list(twin.counts.items()) == list(d.counts.items())
            assert twin.counts is not d.counts

    def test_dual(self):
        assert written_dual((3, 1)) == (2, 1, 1)
        assert written_dual((2, 2)) == (2, 2)

    def test_dual_of_large_parts(self):
        parts = (374, 69, 69)
        expected = tuple(sum(1 for p in parts if p >= i) for i in range(1, 375))
        assert written_dual(parts) == expected == (3,) * 69 + (1,) * 305

    @given(partitions())
    def test_dual_is_an_involution(self, d):
        assert written_dual(written_dual(d)) == d.parts

    @given(partitions())
    def test_dual_counts(self, d):
        # oracle: direct count over the parts
        expected = [sum(1 for p in d.parts if p >= i) for i in range(1, d.parts[0] + 1)]
        assert list(written_dual(d)) == expected

    def test_compact_str(self):
        assert Partition((2, 2, 1, 1, 1, 1)).compact_str() == "2^2,1^4"
        assert Partition((3, 2, 2, 1)).compact_str() == "3,2^2,1"
        assert Partition((5,)).compact_str() == "5"

    def test_compact_str_joins_compact_run(self):
        """``compact_run`` is the one home of the run rule: on every orbit
        with m <= 12, ``compact_str`` is its texts of the runs joined."""
        from orbitres.orbits import compact_run

        assert (compact_run((4, 1)), compact_run((4, 3))) == ("4", "4^3")
        for family in ALL_FAMILIES:
            for m in range(family.min_m, 13, 1 if family is Family.SL else 2):
                for orbit in enumerate_orbits(LieType(family, m)):
                    partition = orbit.partition
                    assert partition.compact_str() == ",".join(
                        map(compact_run, partition.counts.items()))

    @given(partitions())
    def test_counts_decreasing_and_kept(self, d):
        # oracle: direct count over the parts, values in decreasing order
        expected = [(v, d.parts.count(v)) for v in sorted(set(d.parts), reverse=True)]
        assert list(d.counts.items()) == expected
        assert d.counts is d.counts


class TestValidateOrbit:
    def test_sp6_411_is_valid(self):
        orbit = validate_orbit(SP6, (4, 1, 1))
        assert orbit.partition.parts == (4, 1, 1)
        assert orbit.very_even_label is None

    def test_so8_parity_violation(self):
        with pytest.raises(OrbitresError, match=(
                r"^so8 requires the part 4 to have even multiplicity, found multiplicity 1$")):
            validate_orbit(SO8, (4, 2, 1, 1))

    def test_sp_parity_violation_names_offender(self):
        with pytest.raises(OrbitresError, match=(
                r"^sp6 requires the part 3 to have even multiplicity, found multiplicity 1$")):
            validate_orbit(SP6, (3, 2, 1))

    def test_parity_violation_names_the_largest_offender(self):
        with pytest.raises(OrbitresError, match="the part 5 .* found multiplicity 3$"):
            validate_orbit(LieType(Family.SP, 18), (5, 5, 5, 1, 1, 1))

    def test_zero_orbit(self):
        orbit = validate_orbit(SL3, (1, 1, 1))
        assert orbit_dimension(orbit) == 0

    def test_wrong_sum(self):
        with pytest.raises(OrbitresError, match=r"^parts sum to 5, expected m = 6 for sp6$"):
            validate_orbit(SP6, (4, 1))

    def test_very_even_label_defaults_to_I(self):
        orbit = validate_orbit(SO8, (4, 4))
        assert orbit.very_even_label is VeryEvenLabel.I
        other = validate_orbit(SO8, (4, 4), VeryEvenLabel.II)
        assert other.very_even_label is VeryEvenLabel.II

    def test_label_rejected_when_not_very_even(self):
        with pytest.raises(OrbitresError, match=r"^so8 \[3,2\^2,1\] is not very even; no label"):
            validate_orbit(SO8, (3, 2, 2, 1), VeryEvenLabel.I)
        with pytest.raises(OrbitresError, match=r"^sp6 \[2\^3\] is not very even; no label"):
            validate_orbit(SP6, (2, 2, 2), VeryEvenLabel.I)


# the parity whose parts l counts: even for sp, odd for so, none for sl
UNCONSTRAINED = {Family.SP: 0, Family.SO_ODD: 1, Family.SO_EVEN: 1, Family.SL: None}


def restated_profile(orbit) -> tuple:
    """Every profile field, in order, counted straight off the expanded parts."""
    parts = orbit.partition.parts
    distinct = set(parts)
    odd = {v for v in distinct if v % 2}
    free = UNCONSTRAINED[orbit.lie_type.family]
    return (
        len(distinct),  # k
        math.gcd(*parts),  # c
        len(odd),  # a
        len(distinct - odd),  # b
        sum(1 for v in distinct if v % 2 == free and parts.count(v) == 2),  # l
        all(parts.count(v) == 1 for v in odd),  # rather_odd
    )


class TestProfile:
    def test_sl4_square(self):
        orbit = validate_orbit(SL4, (2, 2))
        prof = profile(orbit)
        assert prof.k == 1 and prof.c == 2
        assert orbit.partition.counts == {2: 2}

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
        parts = orbit.partition.parts
        counts = orbit.partition.counts
        assert sum(i * count for i, count in counts.items()) == orbit.lie_type.m
        assert counts == {v: parts.count(v) for v in set(parts)}
        assert prof == restated_profile(orbit)

    def test_restated_on_every_bcd_orbit(self):
        """Every sp/so orbit with m <= 16, where l counts a parity the
        constrained one is not: the one-pass profile against the oracle."""
        for orbit in bcd_orbits_up_to(16):
            assert profile(orbit) == restated_profile(orbit), orbit

    @given(valid_orbits())
    def test_orbit_profile_built_once_from_counts(self, orbit):
        assert orbit.profile is orbit.profile
        assert orbit.profile == profile(orbit)
        assert orbit.partition.counts is orbit.partition.counts

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
            counts = orbit.partition.counts
            assert sum(i * count for i, count in counts.items()) == m
            assert counts == {v: parts.count(v) for v in set(parts)}
            assert profile(orbit) == restated_profile(orbit)
            assert list(written_dual(orbit.partition)) == [
                sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)
            ]
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

    def test_dual_partition_formulas(self):
        # oracle: Collingwood-McGovern 6.1.3 with s the dual partition,
        # counted straight off the parts
        for family in ALL_FAMILIES:
            for m in range(family.min_m, 15, 1 if family is Family.SL else 2):
                for orbit in enumerate_orbits(LieType(family, m)):
                    parts = orbit.partition.parts
                    squares = sum(
                        sum(1 for p in parts if p >= i) ** 2 for i in range(1, parts[0] + 1))
                    odd = sum(1 for p in parts if p % 2)
                    expected = {
                        Family.SL: m * m - squares,
                        Family.SP: (m * m + m - squares - odd) // 2,
                    }.get(family, (m * m - m - squares + odd) // 2)
                    assert orbit_dimension(orbit) == expected, orbit

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
        assert (dim == 0) == (orbit.partition.parts == (1,) * orbit.lie_type.m)


def minimal_parts(lie_type: LieType) -> tuple[int, ...]:
    """[2, 1^(m-2)] for sl and sp, [2^2, 1^(m-4)] for both so families."""
    if lie_type.family in (Family.SL, Family.SP):
        return (2,) + (1,) * (lie_type.m - 2)
    return (2, 2) + (1,) * (lie_type.m - 4)


class TestMinimalOrbit:
    def test_known_partitions(self):
        # oracle: the minimal orbit is the one non-zero orbit of least dimension
        for lie_type in (SO7, SP6, SO8, SL3):
            dims = {o.partition.parts: orbit_dimension(o) for o in enumerate_orbits(lie_type)}
            least = min(d for d in dims.values() if d > 0)
            assert [parts for parts, d in dims.items() if d == least] == [minimal_parts(lie_type)]

    @pytest.mark.parametrize("family,ms", [
        (Family.SL, range(2, 11)),
        (Family.SP, range(6, 17, 2)),
        (Family.SO_ODD, range(5, 17, 2)),
        (Family.SO_EVEN, range(8, 17, 2)),
    ])
    def test_minimal_orbits_validate(self, family, ms):
        for m in ms:
            lie_type = LieType(family, m)
            orbit = validate_orbit(lie_type, minimal_parts(lie_type))
            assert orbit.partition.total == m


class TestParsing:
    def test_parse_partition_plain_and_shorthand(self):
        assert parse_partition("3,2,2,1").parts == (3, 2, 2, 1)
        assert parse_partition("2^2,1^4").parts == (2, 2, 1, 1, 1, 1)
        assert parse_partition(" 3, 2^2 ,1 ").parts == (3, 2, 2, 1)
        assert parse_partition("[4,1,1]").parts == (4, 1, 1)

    def test_parse_partition_errors(self):
        with pytest.raises(OrbitresError, match="^empty partition text$"):
            parse_partition("")
        with pytest.raises(OrbitresError, match="^cannot parse partition term 'x'$"):
            parse_partition("3,x")
        # a zero exponent is a run of no parts, refused by the run gate
        with pytest.raises(OrbitresError, match="^multiplicities must be positive, got 0$"):
            parse_partition("2^0,1")
        with pytest.raises(OrbitresError, match="^parts must be weakly decreasing"):
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

    def test_every_name_parses_back(self):
        # both names of every algebra with m <= 30 name that algebra
        for family in Family:
            for m in range(family.min_m, 31, 1 if family is Family.SL else 2):
                lie_type = LieType(family, m)
                assert parse_algebra(lie_type.name) == lie_type == parse_algebra(lie_type.cartan_label)
                assert parse_algebra(lie_type.cartan_label.lower()) == lie_type

    def test_parse_algebra_errors(self):
        for text in ("e8", "so", "slx5", "\u017fl5"):  # a long s folds to s, but is no prefix
            with pytest.raises(OrbitresError, match="^cannot parse algebra name "):
                parse_algebra(text)
        with pytest.raises(OrbitresError, match=r"\.\.\. is too long$"):
            parse_algebra("sl" + "9" * 5000)  # more digits than int() reads
        with pytest.raises(OrbitresError, match="^sp requires even matrix size, got 7$"):
            parse_algebra("sp7")
