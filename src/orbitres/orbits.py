"""Partitions, classical nilpotent orbits, and their derived statistics.

Nilpotent orbits of the classical simple complex Lie algebras are classified
by integer partitions of the matrix size m, subject to a parity constraint:
sp_m requires every odd part to occur with even multiplicity, so_m requires
the same of every even part, and sl_m is unconstrained.  Every verdict the
package produces (Picard group, factoriality, polarizability, existence of a
symplectic resolution) is a function of the partition alone, so this module
owns the validation gate and all the partition statistics the formulas
consume.  A partition counts its parts once (``Partition.counts``) and an
orbit builds its profile once (``ClassicalOrbit.profile``); the gate, the
exponent shorthand, the Picard formulas and the factoriality rule all read
those.  The two resolution routes read neither: each works from the parts
alone, so a wrong shared statistic could not hide from their cross-check.

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
from collections import Counter, namedtuple
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .errors import (
    InvalidLabel,
    InvalidLieType,
    NonPositivePart,
    NotWeaklyDecreasing,
    ParityMultiplicityViolation,
    ParseError,
    PartitionError,
    WrongSum,
)


class Family(Enum):
    """The four classical families, each named in its row alone: JSON value,
    algebra-name prefix, Cartan letter and smallest m (sp and so take every
    m of its parity).  sl_1 is the zero algebra with a single (zero) orbit;
    allowing it keeps the enumeration total for every m >= 1."""

    SL = "sl", "sl", "A", 1
    SP = "sp", "sp", "C", 2
    SO_ODD = "so_odd", "so", "B", 3
    SO_EVEN = "so_even", "so", "D", 4

    def __new__(cls, value: str, prefix: str, letter: str, min_m: int):
        member = object.__new__(cls)
        member._value_ = value
        member.prefix, member.letter, member.min_m = prefix, letter, min_m
        return member

    @property
    def constrained_parity(self) -> int | None:
        """The parity whose parts must occur with even multiplicity: 1 for
        sp, 0 for so, None for sl, which constrains nothing."""
        if self is Family.SP:
            return 1
        return None if self is Family.SL else 0


class LieType(namedtuple("LieType", "family m")):
    """A classical simple Lie algebra identified by family and matrix size.

    ``m`` is the size of the defining matrices, an integer (taken through
    ``operator.index``): n for sl_n, 2n for sp_2n, 2n+1 for so_{2n+1} and
    2n for so_{2n}.
    """

    __slots__ = ()

    def __new__(cls, family: Family, m: int):
        try:
            m = operator.index(m)
        except TypeError:
            raise InvalidLieType(f"matrix size must be an integer, got {m!r}") from None
        low = family.min_m
        if m < low:
            raise InvalidLieType(f"{family.value} requires m >= {low}, got {m}")
        if family is not Family.SL and (m - low) % 2:
            parity = "odd" if low % 2 else "even"
            raise InvalidLieType(f"{family.value} requires {parity} matrix size, got {m}")
        return super().__new__(cls, family, m)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the gate

    @property
    def rank(self) -> int:
        return self.m - 1 if self.family is Family.SL else self.m // 2

    @property
    def name(self) -> str:
        return f"{self.family.prefix}{self.m}"

    @property
    def cartan_label(self) -> str:
        return f"{self.family.letter}{self.rank}"

    def __str__(self) -> str:
        return self.name


def _frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the types that cache a fact:
    neither a field, a cached fact nor a new attribute can be set."""
    raise AttributeError(f"cannot set or delete {type(self).__name__}.{name}")


class Partition:
    """A weakly decreasing tuple of positive integers, zero padded beyond N.

    Immutable, compared and hashed by its parts; the instance dict holds
    the cached ``counts`` alone, and a copy or a pickle rebuilds the
    partition through the gate from its parts.
    """

    __slots__ = ("parts", "__dict__")
    __setattr__ = __delattr__ = _frozen

    def __new__(cls, parts: tuple[int, ...]):
        try:
            parts = tuple(map(operator.index, parts))
        except TypeError:
            raise PartitionError(f"parts must be integers, got {parts!r}") from None
        if parts and parts[-1] > 0 and all(map(operator.ge, parts, parts[1:])):
            self = object.__new__(cls)  # weakly decreasing down to a positive last part
            object.__setattr__(self, "parts", parts)
            return self
        if not parts:
            raise NonPositivePart("a partition needs at least one part")
        for p in parts:
            if p <= 0:
                raise NonPositivePart(f"parts must be positive, got {p}")
        for left, right in zip(parts, parts[1:]):
            if left < right:
                raise NotWeaklyDecreasing(
                    f"parts must be weakly decreasing, got {right} after {left}"
                )

    def __eq__(self, other):
        return self.parts == other.parts if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

    def __reduce__(self):
        return type(self), (self.parts,)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def dual(self) -> tuple[int, ...]:
        """The parts of the transposed Young diagram: dual_i = #{j : d_j >= i},
        which is the same for every i between two consecutive part values.
        A plain tuple: it is built in order, so it skips the ``Partition``
        gate."""
        dual = []
        at_least, below = len(self.parts), 0
        for value, count in reversed(self.counts.items()):  # values ascending
            dual += [at_least] * (value - below)
            at_least -= count
            below = value
        return tuple(dual)

    @cached_property
    def counts(self) -> dict[int, int]:
        """Part value -> multiplicity, keys in decreasing order: the one map
        built from the parts, on first use, and kept."""
        return dict(Counter(self.parts))  # parts descend, so the keys do too

    def compact_str(self) -> str:
        """Exponent shorthand, e.g. (2, 2, 1, 1, 1, 1) -> '2^2,1^4'."""
        return ",".join(
            f"{value}^{count}" if count > 1 else f"{value}" for value, count in self.counts.items()
        )

    def __str__(self) -> str:
        return f"[{self.compact_str()}]"


class VeryEvenLabel(Enum):
    I = "I"
    II = "II"


def parity_violation(family: Family, partition: Partition) -> tuple[int, int] | None:
    """First (part, multiplicity) breaking the family's parity constraint
    (``Family.constrained_parity``), None when the family admits the parts."""
    constrained = family.constrained_parity
    if constrained is None:
        return None
    for value, count in partition.counts.items():
        if value % 2 == constrained and count % 2 != 0:
            return value, count
    return None


class ClassicalOrbit(namedtuple("ClassicalOrbit", "lie_type partition very_even_label")):
    """A validated nilpotent orbit: algebra, partition, optional D-label.

    Construction is the validation gate; an instance of this class always
    satisfies the sum and parity-multiplicity constraints of its family.
    For very even type-D partitions the label defaults to I.  The instance
    dict holds the cached ``profile`` alone.
    """

    __setattr__ = __delattr__ = _frozen

    def __new__(cls, lie_type: LieType, partition: Partition,
                very_even_label: VeryEvenLabel | None = None):
        if partition.total != lie_type.m:
            raise WrongSum(
                f"parts sum to {partition.total}, expected m = {lie_type.m} "
                f"for {lie_type.name}"
            )
        offender = parity_violation(lie_type.family, partition)
        if offender is not None:
            raise ParityMultiplicityViolation(lie_type.name, *offender)
        eligible = lie_type.family is Family.SO_EVEN and all(p % 2 == 0 for p in partition)
        if eligible and very_even_label is None:
            very_even_label = VeryEvenLabel.I
        elif not eligible and very_even_label is not None:
            raise InvalidLabel(f"{lie_type.name} {partition} is not very even; no label allowed")
        return super().__new__(cls, lie_type, partition, very_even_label)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the gate

    @property
    def family(self) -> Family:
        return self.lie_type.family

    @property
    def m(self) -> int:
        return self.lie_type.m

    @property
    def is_very_even(self) -> bool:
        return self.very_even_label is not None

    @property
    def is_zero(self) -> bool:
        """True for the zero orbit, partition [1^m]."""
        return self.partition.parts[0] == 1

    @cached_property
    def profile(self) -> PartitionProfile:
        """The orbit's statistics, built by ``profile`` on first use and kept."""
        return profile(self)

    def __str__(self) -> str:
        suffix = f" ({self.very_even_label.value})" if self.very_even_label else ""
        return f"{self.lie_type.name} {self.partition}{suffix}"


def validate_orbit(lie_type, parts, very_even_label=None) -> ClassicalOrbit:
    """Validate raw partition data against an algebra and build the orbit.

    ``parts`` may be any iterable of integers (or a Partition).  Raises
    PartitionError unless the parts are an iterable of integers, and
    NotWeaklyDecreasing, NonPositivePart, WrongSum or
    ParityMultiplicityViolation when the data is inadmissible.
    """
    partition = parts if isinstance(parts, Partition) else Partition(parts)
    return ClassicalOrbit(lie_type, partition, very_even_label)


class PartitionProfile(NamedTuple):
    """The partition statistics the Picard formulas and the renderings read.

    k counts distinct parts, c is the gcd of the parts, a and b count
    distinct odd and even parts, and l counts the distinct part values of
    the family's unconstrained parity that occur exactly twice (even values
    for sp, odd values for so; 0 for sl where no formula consumes it).
    rather_odd means every odd part has multiplicity one, vacuously true
    when there is no odd part.  The profile keeps no copy of another
    owner's fact: the multiplicities are ``Partition.counts``, evenness is
    ``is_even_orbit``, and the dual partition is ``Partition.dual``.
    """

    k: int
    c: int
    a: int
    b: int
    l: int
    rather_odd: bool


def profile(orbit: ClassicalOrbit) -> PartitionProfile:
    """Compute the full statistics profile of a validated orbit; read it as
    ``orbit.profile``, which calls this once per orbit."""
    r = orbit.partition.counts
    odd_values = [v for v in r if v % 2 == 1]
    constrained = orbit.family.constrained_parity
    l = 0 if constrained is None else sum(
        1 for v, count in r.items() if v % 2 != constrained and count == 2)
    return PartitionProfile(
        k=len(r),
        c=math.gcd(*r),
        a=len(odd_values),
        b=len(r) - len(odd_values),
        l=l,
        rather_odd=all(r[v] == 1 for v in odd_values),
    )


def is_even_orbit(orbit: ClassicalOrbit) -> bool:
    """True when every part has the same parity.

    Even orbits always admit a resolution through the Springer collapsing
    of T*(G/P), which downstream verdicts must reproduce.
    """
    return len({p % 2 for p in orbit.partition}) == 1


def orbit_dimension(orbit: ClassicalOrbit) -> int:
    """Complex dimension of the orbit, via the dual-partition formulas.

    They need the sum of the squared dual parts, taken here as
    sum_j (2j - 1) d_j: s_i^2 is the sum of 2j - 1 over the rows j <= s_i,
    which are the j with d_j >= i, and row j has d_j such columns i.  The
    sum goes one run of equal parts at a time: over the rows start+1..end
    of a run, 2j - 1 adds up to end^2 - start^2.
    """
    m = orbit.m
    sum_sq = n_odd = end = 0
    for value, count in orbit.partition.counts.items():  # values descend, so rows ascend
        start, end = end, end + count
        sum_sq += value * (end * end - start * start)
        n_odd += value % 2 * count
    if orbit.family is Family.SL:
        return m * m - sum_sq
    if orbit.family is Family.SP:
        return (m * m + m) // 2 - (sum_sq + n_odd) // 2
    return (m * m - m) // 2 - (sum_sq - n_odd) // 2


_ALGEBRA_RE = re.compile(r"^([a-z]+)\s*(\d+)$", re.IGNORECASE)


def parse_algebra(text: str) -> LieType:
    """Parse 'so8', 'sp6', 'sl5' or the Cartan form 'D4', 'C3', 'B3', 'A4';
    so names the orthogonal family of m's parity."""
    match = _ALGEBRA_RE.match(text.strip())
    word = match.group(1) if match else ""
    by_letter = [f for f in Family if f.letter == word.upper()]
    by_prefix = [f for f in Family if f.prefix == word.lower()]
    if not (by_letter or by_prefix):
        raise ParseError(f"cannot parse algebra name {text!r} (try 'so8', 'sp6', 'sl5' or 'D4')")
    try:
        n = int(match.group(2))
    except ValueError:  # more digits than int() accepts
        raise ParseError(f"algebra name {text.strip()[:40]!r}... is too long") from None
    if by_letter:  # n is the rank: invert LieType.rank
        family = by_letter[0]
        return LieType(family, n + 1 if family is Family.SL else 2 * n + family.min_m % 2)
    return LieType(next((f for f in by_prefix if (n - f.min_m) % 2 == 0), by_prefix[0]), n)


_TERM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str, total: int | None = None) -> Partition:
    """Parse comma-separated parts with exponent shorthand, e.g. '2^2,1^4'.

    Shape violations (unsorted, non-positive) surface as the corresponding
    partition errors; malformed syntax raises ParseError.  With ``total``
    (the algebra's m), parts that already sum past it raise WrongSum
    before the term that overshoots is expanded, and a zero term raises
    NonPositivePart before it is expanded, so no list longer than m is
    ever built.
    """
    cleaned = text.strip()
    if cleaned.startswith("[") and cleaned.endswith("]"):
        cleaned = cleaned[1:-1]
    if not cleaned:
        raise ParseError("empty partition text")
    parts: list[int] = []
    running = 0
    for token in cleaned.split(","):
        match = _TERM_RE.match(token.strip())
        if not match:
            raise ParseError(f"cannot parse partition term {token.strip()!r}")
        try:
            value = int(match.group(1))
            count = int(match.group(2)) if match.group(2) else 1
        except ValueError:  # more digits than int() accepts
            raise ParseError(f"partition term {token.strip()[:40]!r}... is too long") from None
        if count < 1:
            raise ParseError(f"exponent must be at least 1 in {token.strip()!r}")
        if value < 1:  # a zero term never moves the running sum, so stop it here
            raise NonPositivePart(f"parts must be positive, got {value}")
        running += value * count
        if total is not None and running > total:
            raise WrongSum(f"parts sum to at least {running}, expected m = {total}")
        parts.extend([value] * count)
    return Partition(tuple(parts))
