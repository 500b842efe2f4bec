"""Partitions, classical nilpotent orbits, and their derived statistics.

Nilpotent orbits of the classical simple complex Lie algebras are classified
by integer partitions of the matrix size m, subject to a parity constraint:
sp_m requires every odd part to occur with even multiplicity, so_m requires
the same of every even part, and sl_m is unconstrained.  Every verdict the
package produces (Picard group, factoriality, polarizability, existence of a
symplectic resolution) is a function of the partition alone, so this module
owns the validation gate and all the partition statistics the formulas
consume.  A partition stores its runs of equal parts alone, part value ->
multiplicity (``Partition.counts``), checked once by the run gate
``Partition.from_runs``, which enumeration alone skips: its runs are valid
by construction.  An orbit builds its profile once
(``ClassicalOrbit.profile``).  The two resolution routes read the runs but
not the profile, so a wrong shared statistic could not hide from their
cross-check.
A sweep reads a family's fields and members, and an orbit's fields, a dozen
times per orbit, so they are plain member attributes, named-tuple fields and
module globals, not properties and reads through the enum class, which cost
several times as much.

The value types of the package are named tuples, and one rule builds them.
A gated type runs its checks in its own ``__new__`` and then builds itself
in one C-level step, ``tuple.__new__(cls, fields)``; ``_replace``, copies
and unpickling go through that gate.  A type with no gate is built the same
way, positionally, by the code that makes it per orbit.  Keyword
construction still works for library callers.

Conventions used throughout the package:

* parts are 1-indexed, ``d_1 >= d_2 >= ... >= d_N > 0``;
* ``d_j = 0`` for every ``j > N`` (zero padding), so expressions that
  reference ``d_{j+1}`` are always defined;
* a type-D partition with all parts even ("very even") labels two distinct
  orbits; the label is carried as metadata and never changes a computed
  invariant.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from enum import Enum
from types import MappingProxyType

from .errors import OrbitresError


class Family(Enum):
    """The four classical families, each named in its row alone: JSON value,
    algebra-name prefix, Cartan letter, smallest m (sp and so take every m
    of its parity) and ``constrained_parity``, the parity whose parts must
    occur with even multiplicity (None for sl, which constrains nothing).
    sl_1 is the zero algebra with a single (zero) orbit; allowing it keeps
    the enumeration total for every m >= 1.  Each field is a plain member
    attribute: the gate, the profile and the Hesselink analysis read
    ``constrained_parity`` per orbit, and a property costs far more."""

    SL = "sl", "sl", "A", 1, None
    SP = "sp", "sp", "C", 2, 1
    SO_ODD = "so_odd", "so", "B", 3, 0
    SO_EVEN = "so_even", "so", "D", 4, 0

    def __new__(cls, value: str, prefix: str, letter: str, min_m: int,
                constrained_parity: int | None):
        member = object.__new__(cls)
        member._value_ = value
        member.prefix, member.letter, member.min_m = prefix, letter, min_m
        member.constrained_parity = constrained_parity
        return member


# members bound once: a global read costs a tenth of a read through the class
_SL, _SP, _SO_EVEN = Family.SL, Family.SP, Family.SO_EVEN


def _integer(value, name: str) -> int:
    """``value`` through ``operator.index``, if an int that ``str()`` writes: the
    digit rule's one home, run by each gate before any message prints the int."""
    try:
        value = operator.index(value)
        str(value)
    except TypeError:
        raise OrbitresError(f"{name} must be an integer, got {type(value).__name__}") from None
    except ValueError:
        raise OrbitresError(f"{name} has more digits than str() writes") from None
    return value


class LieType(namedtuple("LieType", "family m")):
    """A classical simple Lie algebra identified by family and matrix size.

    ``m`` is the size of the defining matrices, an integer (taken through
    ``operator.index``): n for sl_n, 2n for sp_2n, 2n+1 for so_{2n+1} and
    2n for so_{2n}.
    """

    __slots__ = ()

    def __new__(cls, family: Family, m: int):
        m = _integer(m, "matrix size")
        _integer(m * m, "the square of the matrix size")  # above every figure a report prints
        low = family.min_m
        if m < low:
            raise OrbitresError(f"{family.value} requires m >= {low}, got {m}")
        if family is not _SL and (m - low) % 2:
            parity = "odd" if low % 2 else "even"
            raise OrbitresError(f"{family.value} requires {parity} matrix size, got {m}")
        return tuple.__new__(cls, (family, m))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the gate

    @property
    def rank(self) -> int:
        return self.m - 1 if self.family is _SL else self.m // 2

    @property
    def name(self) -> str:
        return f"{self.family.prefix}{self.m}"

    @property
    def cartan_label(self) -> str:
        return f"{self.family.letter}{self.rank}"

    def __str__(self) -> str:
        return self.name


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the frozen types: nothing can be set."""
    raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}")


class _cached:
    """A fact computed on first read and kept in the instance dict past
    ``_frozen``: a non-data descriptor, so later reads find the entry.  Not
    ``functools.cached_property``, whose lock (before 3.12) doubles a first read."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


def compact_run(run: tuple[int, int]) -> str:
    """A run (value, count) as ``compact_str`` writes it: 'value^count', or 'value' alone."""
    return f"{run[0]}^{run[1]}" if run[1] > 1 else str(run[0])


class Partition:
    """A partition d_1 >= ... >= d_N > 0, zero padded beyond N, stored as
    its runs alone: ``counts`` maps each part value to its multiplicity,
    values strictly descending, behind a read-only view.  Immutable, compared,
    hashed, copied and pickled by its runs.  ``parts`` expands them, in O(N),
    for callers outside the package: no code of its own reads it."""

    __slots__ = ("counts",)
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, parts: tuple[int, ...]):
        try:
            runs = [(part, 1) for part in parts]
        except TypeError:
            raise OrbitresError(f"parts must be an iterable, got {type(parts).__name__}") from None
        return cls.from_runs(runs)

    @classmethod
    def from_runs(cls, runs) -> Partition:
        """The gate: a partition from (value, multiplicity) pairs, in a list
        or a mapping such as ``counts``.  Both must be integers that ``str()``
        writes, then positive, then the values weakly decreasing; equal
        neighbours merge into one run."""
        pairs = runs.items() if isinstance(runs, (dict, MappingProxyType)) else runs
        try:
            pairs = [(_integer(value, "a part"), _integer(count, "a multiplicity"))
                     for value, count in pairs]
        except (TypeError, ValueError):  # the runs, or one of them, are no pairs
            raise OrbitresError("runs must be (value, multiplicity) pairs") from None
        if not pairs:
            raise OrbitresError("a partition needs at least one part")
        for value, count in pairs:
            if min(value, count) <= 0:
                noun, got = ("parts", value) if value <= 0 else ("multiplicities", count)
                raise OrbitresError(f"{noun} must be positive, got {got}")
        counts = {}
        for (left, _), (right, count) in zip(pairs[:1] + pairs, pairs):  # the first: itself
            if left < right:
                raise OrbitresError(f"parts must be weakly decreasing, got {right} after {left}")
            counts[right] = counts.get(right, 0) + count
        return cls._unchecked(counts)

    @classmethod
    def _unchecked(cls, counts: dict[int, int]) -> Partition:
        """The partition over a read-only view of ``counts``, unchecked: for runs
        valid by construction, as ``from_runs`` builds and ``partitions_desc`` yields."""
        self = object.__new__(cls)
        object.__setattr__(self, "counts", MappingProxyType(counts))
        return self

    def __eq__(self, other):
        return self.counts == other.counts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.counts.items()))

    def __repr__(self) -> str:
        return f"Partition.from_runs({dict(self.counts)!r})"

    def __reduce__(self):
        return type(self).from_runs, (dict(self.counts),)

    @property
    def parts(self) -> tuple[int, ...]:
        parts = []
        for value, count in self.counts.items():
            parts += [value] * count
        return tuple(parts)

    @property
    def total(self) -> int:
        return sum(map(operator.mul, self.counts, self.counts.values()))

    def compact_str(self) -> str:
        """Exponent shorthand, e.g. (2, 2, 1, 1, 1, 1) -> '2^2,1^4'."""
        return ",".join(map(compact_run, self.counts.items()))

    def __str__(self) -> str:
        return f"[{self.compact_str()}]"


class VeryEvenLabel(Enum):
    I = "I"
    II = "II"


class ClassicalOrbit(namedtuple("ClassicalOrbit", "lie_type partition very_even_label")):
    """A validated nilpotent orbit: algebra, partition, optional D-label.

    Construction is the validation gate; an instance of this class always
    satisfies the sum and parity-multiplicity constraints of its family.
    For very even type-D partitions the label defaults to I.  The instance
    dict holds the cached ``profile`` alone.  Every other fact is read from
    its owner, with no forwarding property: the family and m from
    ``lie_type``, very evenness as ``very_even_label is not None``, and the
    zero orbit (largest part 1) from the runs, by ``picard.is_factorial``.
    """

    __setattr__ = __delattr__ = _frozen

    def __new__(cls, lie_type: LieType, partition: Partition,
                very_even_label: VeryEvenLabel | None = None):
        if partition.total != lie_type.m:  # a sum is printed only below m, which prints
            said = f"{partition.total}, expected" if partition.total < lie_type.m else "more than"
            raise OrbitresError(f"parts sum to {said} m = {lie_type.m} for {lie_type.name}")
        family = lie_type.family
        constrained = family.constrained_parity
        if constrained is not None:  # sl constrains nothing
            for value, count in partition.counts.items():
                if value % 2 == constrained and count % 2:
                    raise OrbitresError(
                        f"{lie_type.name} requires the part {value} to have even "
                        f"multiplicity, found multiplicity {count}"
                    )
        eligible = family is _SO_EVEN and not any(value % 2 for value in partition.counts)
        if eligible and very_even_label is None:
            very_even_label = VeryEvenLabel.I
        elif not eligible and very_even_label is not None:
            raise OrbitresError(f"{lie_type.name} {partition} is not very even; no label allowed")
        return tuple.__new__(cls, (lie_type, partition, very_even_label))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the gate

    @_cached
    def profile(self) -> PartitionProfile:
        """The orbit's statistics, built by ``profile`` on first use and kept."""
        return profile(self)

    def __str__(self) -> str:
        suffix = f" ({self.very_even_label.value})" if self.very_even_label else ""
        return f"{self.lie_type.name} {self.partition}{suffix}"


def validate_orbit(lie_type, parts, very_even_label=None) -> ClassicalOrbit:
    """Validate raw partition data against an algebra and build the orbit.

    ``parts`` may be any iterable of integers (or a Partition).  Raises
    OrbitresError, naming the broken rule, unless the parts are integers,
    positive, weakly decreasing, sum to m and meet the family's parity
    constraint."""
    partition = parts if isinstance(parts, Partition) else Partition(parts)
    return ClassicalOrbit(lie_type, partition, very_even_label)


class PartitionProfile(namedtuple("PartitionProfile", "k c a b l rather_odd")):
    """The partition statistics the Picard formulas and the renderings read.

    k counts distinct parts, c is the gcd of the parts, a and b count
    distinct odd and even parts, and l counts the distinct part values of
    the family's unconstrained parity that occur exactly twice (even values
    for sp, odd values for so; 0 for sl where no formula consumes it).
    rather_odd means every odd part has multiplicity one, vacuously true
    when there is no odd part.  The profile keeps no copy of another
    owner's fact: the multiplicities are ``Partition.counts`` and evenness
    is ``is_even_orbit``.
    """

    __slots__ = ()


def profile(orbit: ClassicalOrbit) -> PartitionProfile:
    """Compute the full statistics profile of a validated orbit, in one pass
    over the runs; read it as ``orbit.profile``, which calls this once per
    orbit."""
    r = orbit.partition.counts
    constrained = orbit.lie_type.family.constrained_parity
    free = None if constrained is None else 1 - constrained  # the parity l counts; none for sl
    a = l = 0
    rather_odd = True
    for value, count in r.items():
        odd = value % 2
        if odd:
            a += 1
            if count != 1:
                rather_odd = False
        if count == 2 and odd == free:
            l += 1
    k = len(r)
    return tuple.__new__(PartitionProfile, (k, math.gcd(*r), a, k - a, l, rather_odd))


def is_even_orbit(orbit: ClassicalOrbit) -> bool:
    """True when every part has the same parity.

    Even orbits always admit a resolution through the Springer collapsing
    of T*(G/P), which downstream verdicts must reproduce.
    """
    return len({value % 2 for value in orbit.partition.counts}) == 1


def orbit_dimension(orbit: ClassicalOrbit) -> int:
    """Complex dimension of the orbit, via the dual-partition formulas.

    They need the sum of the squared dual parts, taken here as
    sum_j (2j - 1) d_j: s_i^2 is the sum of 2j - 1 over the rows j <= s_i,
    which are the j with d_j >= i, and row j has d_j such columns i.  The
    sum goes one run of equal parts at a time: over the rows start+1..end
    of a run, 2j - 1 adds up to end^2 - start^2.
    """
    family, m = orbit.lie_type
    sum_sq = n_odd = end = 0
    for value, count in orbit.partition.counts.items():  # values descend, so rows ascend
        start, end = end, end + count
        sum_sq += value * (end * end - start * start)
        n_odd += value % 2 * count
    if family is _SL:
        return m * m - sum_sq
    if family is _SP:
        return (m * m + m) // 2 - (sum_sq + n_odd) // 2
    return (m * m - m) // 2 - (sum_sq - n_odd) // 2


_ALGEBRA_RE = re.compile(r"^([a-z]+)\s*(\d+)$", re.IGNORECASE)


def parse_algebra(text: str) -> LieType:
    """Parse 'so8', 'sp6', 'sl5' or the Cartan form 'D4', 'C3', 'B3', 'A4', the
    syntax alone: so names the orthogonal family of m's parity, LieType gates m."""
    match = _ALGEBRA_RE.match(text.strip())
    word = match.group(1) if match else ""
    by_letter = [f for f in Family if f.letter == word.upper()]
    by_prefix = [f for f in Family if f.prefix == word.lower()]
    if not (by_letter or by_prefix):
        raise OrbitresError(f"cannot parse algebra name {text!r} (try 'so8', 'sp6', 'sl5' or 'D4')")
    try:
        n = int(match.group(2))
    except ValueError:  # more digits than int() accepts
        raise OrbitresError(f"algebra name {text.strip()[:40]!r}... is too long") from None
    if by_letter:  # n is the rank: invert LieType.rank
        family = by_letter[0]
        return LieType(family, n + 1 if family is _SL else 2 * n + family.min_m % 2)
    return LieType(next((f for f in by_prefix if (n - f.min_m) % 2 == 0), by_prefix[0]), n)


_TERM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str) -> Partition:
    """Parse comma-separated parts with exponent shorthand, e.g. '2^2,1^4'.

    Each term is one run, never expanded.  Syntax alone is checked: every
    rule on the runs is the ``Partition.from_runs`` gate's, and their sum
    ``ClassicalOrbit``'s.
    """
    cleaned = text.strip()
    if cleaned.startswith("[") and cleaned.endswith("]"):
        cleaned = cleaned[1:-1]
    if not cleaned:
        raise OrbitresError("empty partition text")
    runs: list[tuple[int, int]] = []
    for token in cleaned.split(","):
        match = _TERM_RE.match(token.strip())
        if not match:
            raise OrbitresError(f"cannot parse partition term {token.strip()!r}")
        try:
            runs.append((int(match.group(1)), int(match.group(2) or 1)))
        except ValueError:  # more digits than int() accepts
            raise OrbitresError(f"partition term {token.strip()[:40]!r}... is too long") from None
    return Partition.from_runs(runs)
