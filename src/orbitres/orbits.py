"""Partitions, classical nilpotent orbits, and their derived statistics.

Nilpotent orbits of the classical simple complex Lie algebras are classified
by integer partitions of the matrix size m, subject to a parity constraint:
sp_m requires every odd part to occur with even multiplicity, so_m requires
the same of every even part, and sl_m is unconstrained.  Every verdict the
package produces (Picard group, factoriality, polarizability, existence of a
symplectic resolution) is a function of the partition alone, so this module
owns the validation gate and all the partition statistics the formulas
consume.

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
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import (
    InvalidLabel,
    InvalidLieType,
    NonPositivePart,
    NotWeaklyDecreasing,
    ParityMultiplicityViolation,
    ParseError,
    RankTooSmall,
    WrongSum,
)


class Family(Enum):
    """The four classical families, keyed by matrix size parity for so."""

    SL = "sl"
    SP = "sp"
    SO_ODD = "so_odd"
    SO_EVEN = "so_even"

    @property
    def is_bcd(self) -> bool:
        """True for sp and so, the families with a parity constraint."""
        return self is not Family.SL


# sl_1 is the zero algebra with a single (zero) orbit; allowing it keeps the
# enumeration total for every m >= 1.
_MIN_M = {Family.SL: 1, Family.SP: 2, Family.SO_ODD: 3, Family.SO_EVEN: 4}


@dataclass(frozen=True)
class LieType:
    """A classical simple Lie algebra identified by family and matrix size.

    ``m`` is the size of the defining matrices: n for sl_n, 2n for sp_2n,
    2n+1 for so_{2n+1} and 2n for so_{2n}.
    """

    family: Family
    m: int

    def __post_init__(self):
        low = _MIN_M[self.family]
        if self.m < low:
            raise InvalidLieType(f"{self.family.value} requires m >= {low}, got {self.m}")
        if self.family is Family.SP and self.m % 2 != 0:
            raise InvalidLieType(f"sp requires even matrix size, got {self.m}")
        if self.family is Family.SO_ODD and self.m % 2 != 1:
            raise InvalidLieType(f"so_odd requires odd matrix size, got {self.m}")
        if self.family is Family.SO_EVEN and self.m % 2 != 0:
            raise InvalidLieType(f"so_even requires even matrix size, got {self.m}")

    @property
    def rank(self) -> int:
        if self.family is Family.SL:
            return self.m - 1
        if self.family is Family.SO_ODD:
            return (self.m - 1) // 2
        return self.m // 2

    @property
    def name(self) -> str:
        prefix = "sl" if self.family is Family.SL else ("sp" if self.family is Family.SP else "so")
        return f"{prefix}{self.m}"

    @property
    def cartan_label(self) -> str:
        letter = {
            Family.SL: "A",
            Family.SO_ODD: "B",
            Family.SP: "C",
            Family.SO_EVEN: "D",
        }[self.family]
        return f"{letter}{self.rank}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers, zero padded beyond N."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if not self.parts:
            raise NonPositivePart("a partition needs at least one part")
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        for p in self.parts:
            if p <= 0:
                raise NonPositivePart(f"parts must be positive, got {p}")
        for left, right in zip(self.parts, self.parts[1:]):
            if left < right:
                raise NotWeaklyDecreasing(
                    f"parts must be weakly decreasing, got {right} after {left}"
                )

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def dual(self) -> "Partition":
        """The transposed Young diagram: dual_i = #{j : d_j >= i}."""
        counts = []
        j = len(self.parts)  # parts descend, so #{j : d_j >= i} only falls as i grows
        for i in range(1, self.parts[0] + 1):
            while self.parts[j - 1] < i:
                j -= 1
            counts.append(j)
        return Partition(tuple(counts))

    def compact_str(self) -> str:
        """Exponent shorthand, e.g. (2, 2, 1, 1, 1, 1) -> '2^2,1^4'."""
        pieces = []
        for value, count in sorted(Counter(self.parts).items(), reverse=True):
            pieces.append(f"{value}^{count}" if count > 1 else f"{value}")
        return ",".join(pieces)

    def __str__(self) -> str:
        return f"[{self.compact_str()}]"


class VeryEvenLabel(Enum):
    I = "I"
    II = "II"


def parity_violation(family: Family, parts: tuple[int, ...]) -> tuple[int, int] | None:
    """First (part, multiplicity) breaking the family's parity constraint.

    Returns None when the partition is admissible for the family.  sp
    constrains odd parts, so constrains even parts, sl constrains nothing.
    """
    if family is Family.SL:
        return None
    constrained = 1 if family is Family.SP else 0
    for value, count in sorted(Counter(parts).items(), reverse=True):
        if value % 2 == constrained and count % 2 != 0:
            return value, count
    return None


@dataclass(frozen=True)
class ClassicalOrbit:
    """A validated nilpotent orbit: algebra, partition, optional D-label.

    Construction is the validation gate; an instance of this class always
    satisfies the sum and parity-multiplicity constraints of its family.
    For very even type-D partitions the label defaults to I.
    """

    lie_type: LieType
    partition: Partition
    very_even_label: VeryEvenLabel | None = None

    def __post_init__(self):
        if self.partition.total != self.lie_type.m:
            raise WrongSum(
                f"parts sum to {self.partition.total}, expected m = {self.lie_type.m} "
                f"for {self.lie_type.name}"
            )
        offender = parity_violation(self.family, self.partition.parts)
        if offender is not None:
            raise ParityMultiplicityViolation(self.lie_type.name, *offender)
        eligible = self.family is Family.SO_EVEN and all(p % 2 == 0 for p in self.partition)
        if eligible and self.very_even_label is None:
            object.__setattr__(self, "very_even_label", VeryEvenLabel.I)
        elif not eligible and self.very_even_label is not None:
            raise InvalidLabel(
                f"{self.lie_type.name} {self.partition} is not very even; no label allowed"
            )

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

    def __str__(self) -> str:
        suffix = f" ({self.very_even_label.value})" if self.very_even_label else ""
        return f"{self.lie_type.name} {self.partition}{suffix}"


def validate_orbit(lie_type, parts, very_even_label=None) -> ClassicalOrbit:
    """Validate raw partition data against an algebra and build the orbit.

    ``parts`` may be any iterable of integers (or a Partition).  Raises
    NotWeaklyDecreasing, NonPositivePart, WrongSum or
    ParityMultiplicityViolation when the data is inadmissible.
    """
    partition = parts if isinstance(parts, Partition) else Partition(tuple(parts))
    return ClassicalOrbit(lie_type, partition, very_even_label)


@dataclass(frozen=True)
class PartitionProfile:
    """All the partition statistics the downstream formulas consume.

    r maps a part value to its multiplicity, s is the dual partition
    (s_i = #{j : d_j >= i}), k counts distinct parts, c is the gcd of the
    parts, a and b count distinct odd and even parts, and l counts the
    distinct part values of the family's unconstrained parity that occur
    exactly twice (even values for sp, odd values for so; 0 for sl where no
    formula consumes it).  rather_odd means every odd part has multiplicity
    one, vacuously true when there is no odd part.
    """

    r: dict[int, int]
    s: dict[int, int]
    k: int
    c: int
    a: int
    b: int
    l: int
    rather_odd: bool
    all_same_parity: bool


def profile(orbit: ClassicalOrbit) -> PartitionProfile:
    """Compute the full statistics profile of a validated orbit."""
    parts = orbit.partition.parts
    r = dict(Counter(parts))
    s = {i: count for i, count in enumerate(orbit.partition.dual(), start=1)}
    odd_values = [v for v in r if v % 2 == 1]
    even_values = [v for v in r if v % 2 == 0]
    if orbit.family is Family.SL:
        l = 0
    elif orbit.family is Family.SP:
        l = sum(1 for v in even_values if r[v] == 2)
    else:
        l = sum(1 for v in odd_values if r[v] == 2)
    return PartitionProfile(
        r=r,
        s=s,
        k=len(r),
        c=math.gcd(*parts),
        a=len(odd_values),
        b=len(even_values),
        l=l,
        rather_odd=all(r[v] == 1 for v in odd_values),
        all_same_parity=len({p % 2 for p in parts}) == 1,
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
    which are the j with d_j >= i, and row j has d_j such columns i.
    """
    m = orbit.m
    sum_sq = sum((2 * j - 1) * p for j, p in enumerate(orbit.partition.parts, start=1))
    n_odd = sum(1 for p in orbit.partition if p % 2 == 1)
    if orbit.family is Family.SL:
        return m * m - sum_sq
    if orbit.family is Family.SP:
        return (m * m + m) // 2 - (sum_sq + n_odd) // 2
    return (m * m - m) // 2 - (sum_sq - n_odd) // 2


def minimal_orbit(lie_type: LieType) -> ClassicalOrbit:
    """The minimal non-zero nilpotent orbit of the algebra.

    [2, 1^{m-2}] for sl and sp, [2^2, 1^{m-4}] for both so families.  The
    ranks below which the statement is not made (sl_n n < 2, sp_2n n < 3,
    so_{2n+1} n < 2, so_{2n} n < 4) are rejected.
    """
    family, m = lie_type.family, lie_type.m
    floor = {Family.SL: 2, Family.SP: 6, Family.SO_ODD: 5, Family.SO_EVEN: 8}[family]
    if m < floor:
        raise RankTooSmall(f"no minimal orbit tracked for {lie_type.name} (need m >= {floor})")
    if family in (Family.SL, Family.SP):
        parts = (2,) + (1,) * (m - 2)
    else:
        parts = (2, 2) + (1,) * (m - 4)
    return validate_orbit(lie_type, parts)


_ALGEBRA_RE = re.compile(r"^(sl|sp|so)\s*(\d+)$", re.IGNORECASE)
_CARTAN_RE = re.compile(r"^([abcd])\s*(\d+)$", re.IGNORECASE)


def parse_algebra(text: str) -> LieType:
    """Parse 'so8', 'sp6', 'sl5' or the Cartan form 'D4', 'C3', 'B3', 'A4'."""
    cleaned = text.strip()
    match = _ALGEBRA_RE.match(cleaned)
    if match:
        prefix, m = match.group(1).lower(), int(match.group(2))
        if prefix == "sl":
            family = Family.SL
        elif prefix == "sp":
            family = Family.SP
        else:
            family = Family.SO_ODD if m % 2 == 1 else Family.SO_EVEN
        return LieType(family, m)
    match = _CARTAN_RE.match(cleaned)
    if match:
        letter, n = match.group(1).upper(), int(match.group(2))
        if letter == "A":
            return LieType(Family.SL, n + 1)
        if letter == "B":
            return LieType(Family.SO_ODD, 2 * n + 1)
        if letter == "C":
            return LieType(Family.SP, 2 * n)
        return LieType(Family.SO_EVEN, 2 * n)
    raise ParseError(f"cannot parse algebra name {text!r} (try 'so8', 'sp6', 'sl5' or 'D4')")


_TERM_RE = re.compile(r"^(\d+)(?:\^(\d+))?$")


def parse_partition(text: str, total: int | None = None) -> Partition:
    """Parse comma-separated parts with exponent shorthand, e.g. '2^2,1^4'.

    Shape violations (unsorted, non-positive) surface as the corresponding
    partition errors; malformed syntax raises ParseError.  With ``total``
    (the algebra's m), parts that already sum past it raise WrongSum
    before the term that overshoots is expanded, so no list longer than m
    is ever built.
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
        running += value * count
        if total is not None and running > total:
            raise WrongSum(f"parts sum to at least {running}, expected m = {total}")
        parts.extend([value] * count)
    return Partition(tuple(parts))
