"""The contract every value type keeps: immutable, copyable and picklable,
and gated types refuse bad data however an instance is made."""

from __future__ import annotations

import copy
import pickle

import pytest

import orbitres.orbits as orbits
from orbitres import Family, LieType, build_report, validate_orbit
from orbitres.errors import InternalInvariantError, OrbitresError
from orbitres.hesselink import HesselinkAnalysis, admissible_reports, polarizable
from orbitres.orbits import ClassicalOrbit, Partition, VeryEvenLabel
from orbitres.picard import AbelianGroupDescriptor
from orbitres.exceptional import EXCEPTIONAL_TABLE
from orbitres.resolution import ResolutionWitness, admits_symplectic_resolution

SO8 = LieType(Family.SO_EVEN, 8)
ORBIT = validate_orbit(SO8, (3, 2, 2, 1))
ANALYSIS = HesselinkAnalysis.of(ORBIT)

# one instance of each value type, with the name of one of its fields
VALUES = {
    "LieType": (SO8, "m"),
    "Partition": (ORBIT.partition, "counts"),
    "ClassicalOrbit": (ORBIT, "partition"),
    "PartitionProfile": (ORBIT.profile, "k"),
    "HesselinkAnalysis": (ANALYSIS, "j0"),
    "HesselinkReport": ([*admissible_reports(polarizable(ORBIT))][-1], "q"),
    "PolarizabilityResult": (polarizable(ORBIT), "witnesses"),
    "AbelianGroupDescriptor": (AbelianGroupDescriptor(free_rank=1, torsion=(2, 4)), "torsion"),
    "ResolutionWitness": (ResolutionWitness(q=2), "q"),
    "ResolutionVerdict": (admits_symplectic_resolution(ORBIT), "answer"),
    "ExceptionalRecord": (EXCEPTIONAL_TABLE[0], "label"),
    "OrbitReport": (build_report(ORBIT), "dimension"),
}

# (instance, bad field changes, the constructor call those changes amount
# to, and the exception that call raises)
GATED = {
    "LieType": (SO8, {"m": -3}, lambda: LieType(Family.SO_EVEN, -3), OrbitresError),
    "Partition": (
        ORBIT.partition, {"parts": (1, 2)}, lambda: Partition((1, 2)), OrbitresError),
    "ClassicalOrbit": (
        ORBIT, {"partition": Partition((3,))}, lambda: ClassicalOrbit(SO8, Partition((3,))),
        OrbitresError),
    "ClassicalOrbit-label": (
        ORBIT, {"very_even_label": VeryEvenLabel.II},
        lambda: ClassicalOrbit(SO8, ORBIT.partition, VeryEvenLabel.II), OrbitresError),
    "AbelianGroupDescriptor-kernel-exponent": (
        AbelianGroupDescriptor(unresolved_extension=1), {"unresolved_extension": -1},
        lambda: AbelianGroupDescriptor(unresolved_extension=-1), InternalInvariantError),
    "AbelianGroupDescriptor-free-rank-and-extension": (
        AbelianGroupDescriptor(unresolved_extension=1), {"free_rank": 2},
        lambda: AbelianGroupDescriptor(2, (), 1), InternalInvariantError),
    "AbelianGroupDescriptor": (
        AbelianGroupDescriptor(free_rank=1), {"torsion": (1,)},
        lambda: AbelianGroupDescriptor(free_rank=1, torsion=(1,)), InternalInvariantError),
    "ResolutionWitness": (
        ResolutionWitness(q=2), {"pair_position": 1},
        lambda: ResolutionWitness(q=2, pair_position=1), InternalInvariantError),
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
    """Neither the stored runs of a partition nor an orbit's cached profile
    can be set or deleted."""
    kept = getattr(value, fact)
    with pytest.raises(AttributeError):
        setattr(value, fact, kept)
    with pytest.raises(AttributeError):
        delattr(value, fact)
    assert getattr(value, fact) is kept


# a fresh instance holding a cached fact, the fact, and the orbits module
# function that computes it
CACHED = {
    "ClassicalOrbit.profile": (lambda: validate_orbit(SO8, (3, 2, 2, 1)), "profile", "profile"),
}


@pytest.mark.parametrize("name", CACHED)
def test_cached_facts_computed_once_per_instance(monkeypatch, name):
    """The first read computes the fact through its module function and
    keeps it in the instance dict; later reads find it there.  It cannot
    be set before that read either."""
    make, fact, function = CACHED[name]
    calls = []
    original = getattr(orbits, function)
    monkeypatch.setattr(orbits, function, lambda arg: calls.append(arg) or original(arg))
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, fact, None)
    assert fact not in vars(value)
    kept = getattr(value, fact)
    assert getattr(value, fact) is kept
    assert vars(value)[fact] is kept
    assert len(calls) == 1


@pytest.mark.parametrize("name", CACHED)
def test_cached_facts_are_never_shared_between_equal_instances(monkeypatch, name):
    make, fact, function = CACHED[name]
    calls = []
    original = getattr(orbits, function)
    monkeypatch.setattr(orbits, function, lambda arg: calls.append(arg) or original(arg))
    one, two = make(), make()
    assert one == two and one is not two
    kept = getattr(one, fact)
    assert fact not in vars(two)
    assert getattr(two, fact) == kept
    assert getattr(two, fact) is not kept
    assert len(calls) == 2


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


@pytest.mark.parametrize("how", [lambda p: p, copy.copy, copy.deepcopy,
                                 lambda p: pickle.loads(pickle.dumps(p))],
                         ids=["itself", "copy", "deepcopy", "pickle"])
def test_partition_runs_are_read_only(how):
    """A partition's runs cannot be edited, in place or in a copy: the
    partition keeps its order, equality and hash, and stays in a set.  The
    read-only runs still pass the gate, and print as a plain dict."""
    partition = how(orbits.parse_partition("3,2^2,1"))
    kept = {partition}
    with pytest.raises(TypeError):
        partition.counts[9] = 1
    with pytest.raises(TypeError):
        del partition.counts[3]
    assert not hasattr(partition.counts, "update") and not hasattr(partition.counts, "pop")
    assert partition == ORBIT.partition and partition in kept
    assert Partition.from_runs(partition.counts) == partition
    assert repr(partition) == "Partition.from_runs({3: 1, 2: 2, 1: 1})"


def test_orbit_is_its_fields_and_its_profile():
    """An orbit forwards no fact through a property: the family and m are
    read from ``lie_type``, very evenness from the label and the zero orbit
    from the runs.  Beyond what a tuple has, its public surface is its
    three fields and its cached profile."""
    assert [name for name, attr in vars(ClassicalOrbit).items() if isinstance(attr, property)] == []
    public = {name for name in dir(ClassicalOrbit) if not name.startswith("_")} - set(dir(tuple))
    assert public == {"lie_type", "partition", "very_even_label", "profile"}


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
