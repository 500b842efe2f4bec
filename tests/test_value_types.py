"""The contract every value type keeps: immutable, copyable and picklable,
and gated types refuse bad data however an instance is made."""

from __future__ import annotations

import copy
import pickle

import pytest

from orbitres import Family, LieType, build_report, validate_orbit
from orbitres.errors import InvalidLabel, InvalidLieType, NotWeaklyDecreasing, WrongSum
from orbitres.hesselink import HesselinkAnalysis, polarizable
from orbitres.orbits import ClassicalOrbit, Partition, VeryEvenLabel
from orbitres.picard import AbelianGroupDescriptor, UnresolvedExtension
from orbitres.resolution import EXCEPTIONAL_TABLE, ResolutionWitness, admits_symplectic_resolution

SO8 = LieType(Family.SO_EVEN, 8)
ORBIT = validate_orbit(SO8, (3, 2, 2, 1))
ANALYSIS = HesselinkAnalysis.of(ORBIT)

# one instance of each value type, with the name of one of its fields
VALUES = {
    "LieType": (SO8, "m"),
    "Partition": (ORBIT.partition, "parts"),
    "ClassicalOrbit": (ORBIT, "partition"),
    "PartitionProfile": (ORBIT.profile, "k"),
    "HesselinkAnalysis": (ANALYSIS, "j0"),
    "HesselinkReport": (ANALYSIS.record(ANALYSIS.admissible_qs()[-1]), "q"),
    "PolarizabilityResult": (polarizable(ORBIT), "witnesses"),
    "UnresolvedExtension": (UnresolvedExtension(1), "kernel_exponent"),
    "AbelianGroupDescriptor": (AbelianGroupDescriptor(free_rank=1, torsion=(2, 4)), "torsion"),
    "ResolutionWitness": (ResolutionWitness(q=2), "q"),
    "ResolutionVerdict": (admits_symplectic_resolution(ORBIT), "answer"),
    "ExceptionalRecord": (EXCEPTIONAL_TABLE[0], "label"),
    "OrbitReport": (build_report(ORBIT), "dimension"),
}

# (instance, bad field changes, the constructor call those changes amount
# to, and the exception that call raises)
GATED = {
    "LieType": (SO8, {"m": -3}, lambda: LieType(Family.SO_EVEN, -3), InvalidLieType),
    "Partition": (
        ORBIT.partition, {"parts": (1, 2)}, lambda: Partition((1, 2)), NotWeaklyDecreasing),
    "ClassicalOrbit": (
        ORBIT, {"partition": Partition((3,))}, lambda: ClassicalOrbit(SO8, Partition((3,))),
        WrongSum),
    "ClassicalOrbit-label": (
        ORBIT, {"very_even_label": VeryEvenLabel.II},
        lambda: ClassicalOrbit(SO8, ORBIT.partition, VeryEvenLabel.II), InvalidLabel),
    "UnresolvedExtension": (
        UnresolvedExtension(1), {"kernel_exponent": -1}, lambda: UnresolvedExtension(-1),
        ValueError),
    "AbelianGroupDescriptor": (
        AbelianGroupDescriptor(free_rank=1), {"torsion": (1,)},
        lambda: AbelianGroupDescriptor(free_rank=1, torsion=(1,)), ValueError),
    "ResolutionWitness": (
        ResolutionWitness(q=2), {"pair_position": 1},
        lambda: ResolutionWitness(q=2, pair_position=1), ValueError),
}


def modified(value, **changes):
    """A copy of ``value`` with ``changes``: ``_replace`` on the named
    tuples; ``Partition`` has one field, so its modified copy is a new one."""
    if isinstance(value, Partition):
        return Partition(**changes)
    return value._replace(**changes)


def raised(make) -> Exception:
    with pytest.raises(Exception) as info:
        make()
    return info.value


@pytest.mark.parametrize("name", VALUES)
def test_fields_and_new_attributes_cannot_be_set(name):
    value, field = VALUES[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("value, fact", [(ORBIT.partition, "counts"), (ORBIT, "profile")],
                         ids=["Partition.counts", "ClassicalOrbit.profile"])
def test_cached_facts_cannot_be_set(value, fact):
    kept = getattr(value, fact)
    with pytest.raises(AttributeError):
        setattr(value, fact, kept)
    with pytest.raises(AttributeError):
        delattr(value, fact)
    assert getattr(value, fact) is kept


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copies_are_equal(name, how):
    value, _ = VALUES[name]
    twin = {
        "copy": copy.copy,
        "deepcopy": copy.deepcopy,
        "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    }[how](value)
    assert type(twin) is type(value)
    assert twin == value
    assert hash(twin) == hash(value)


def test_copied_orbit_keeps_its_facts():
    twin = pickle.loads(pickle.dumps(ORBIT))
    assert twin.profile == ORBIT.profile
    assert twin.partition.counts == ORBIT.partition.counts


@pytest.mark.parametrize("name", GATED)
def test_modified_copy_passes_the_gate(name):
    value, changes, constructor, error = GATED[name]
    expected = raised(constructor)
    got = raised(lambda: modified(value, **changes))
    assert type(expected) is error
    assert type(got) is error
    assert str(got) == str(expected)


def test_modified_copies_are_normalized_like_new_ones():
    sl2 = modified(LieType(Family.SL, 2), m=True)
    assert sl2.m == 1 and type(sl2.m) is int
    assert modified(AbelianGroupDescriptor(), torsion=(2, 4)).torsion == (4, 2)
    very_even = validate_orbit(SO8, (4, 4))
    assert modified(very_even, very_even_label=None).very_even_label is VeryEvenLabel.I
