"""Picard groups of classical nilpotent orbits and (Q-)factoriality verdicts.

The Picard group of the orbit (equivalently the divisor class group of the
normalized closure) is a finitely generated abelian group computed in closed
form from the partition profile:

* sl_n:  Z^{k-1} + Z/c, with k the number of distinct parts and c their gcd;
* sp_2n: (Z/2)^b + Z^l;
* so_m, partition not rather odd: (Z/2)^{max(0, a-1)} + Z^l;
* so_m, partition rather odd: an extension of Z/2 by (Z/2)^{max(0, a-1)}
  whose isomorphism type is not pinned down by the formulas.

The unresolved extension in the rather-odd case is represented faithfully
rather than guessed: it is never trivial, and triviality is the only query
the factoriality checks put to the group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .errors import ZeroOrbit
from .orbits import ClassicalOrbit, Family, PartitionProfile, profile


@dataclass(frozen=True)
class UnresolvedExtension:
    """An extension of Z/2 by (Z/2)^kernel_exponent of undetermined type."""

    kernel_exponent: int

    def __post_init__(self):
        if self.kernel_exponent < 0:
            raise ValueError("kernel exponent must be non-negative")


@dataclass(frozen=True)
class AbelianGroupDescriptor:
    """Free rank plus torsion cyclic factors, or an unresolved 2-group.

    ``torsion`` and ``unresolved_extension`` are mutually exclusive; an
    unresolved extension always has order 2^(t+1) >= 2 and so is never
    trivial.
    """

    free_rank: int = 0
    torsion: tuple[int, ...] = ()
    unresolved_extension: UnresolvedExtension | None = None

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        if any(t < 2 for t in self.torsion):
            raise ValueError("torsion factors must be at least 2")
        if self.torsion and self.unresolved_extension is not None:
            raise ValueError("torsion and unresolved extension are mutually exclusive")
        object.__setattr__(self, "torsion", tuple(sorted(self.torsion, reverse=True)))

    @property
    def is_trivial(self) -> bool:
        return (
            self.free_rank == 0
            and not self.torsion
            and self.unresolved_extension is None
        )

    def to_json_dict(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "torsion": list(self.torsion),
            "unresolved_extension": (
                None
                if self.unresolved_extension is None
                else {"kernel_exponent": self.unresolved_extension.kernel_exponent}
            ),
            "trivial": self.is_trivial,
        }

    def __str__(self) -> str:
        if self.is_trivial:
            return "trivial"
        if self.unresolved_extension is not None:
            t = self.unresolved_extension.kernel_exponent
            if t == 0:
                return "Z/2"  # extension of Z/2 by the trivial group
            return f"extension of Z/2 by (Z/2)^{t} (order {2 ** (t + 1)})"
        pieces = []
        if self.free_rank == 1:
            pieces.append("Z")
        elif self.free_rank > 1:
            pieces.append(f"Z^{self.free_rank}")
        for value, count in sorted(Counter(self.torsion).items(), reverse=True):
            pieces.append(f"Z/{value}" if count == 1 else f"(Z/{value})^{count}")
        return " x ".join(pieces)


def picard(orbit: ClassicalOrbit, prof: PartitionProfile | None = None) -> AbelianGroupDescriptor:
    """Pic of the orbit from its profile, by the family's formula.

    ``prof`` is the orbit's profile when the caller already has it.
    """
    prof = profile(orbit) if prof is None else prof
    if orbit.family is Family.SL:
        torsion = (prof.c,) if prof.c >= 2 else ()
        return AbelianGroupDescriptor(free_rank=prof.k - 1, torsion=torsion)
    if orbit.family is Family.SP:
        return AbelianGroupDescriptor(free_rank=prof.l, torsion=(2,) * prof.b)
    two_torsion = max(0, prof.a - 1)
    if prof.rather_odd:
        return AbelianGroupDescriptor(
            free_rank=0, unresolved_extension=UnresolvedExtension(two_torsion)
        )
    return AbelianGroupDescriptor(free_rank=prof.l, torsion=(2,) * two_torsion)


class QFactorialCertificate(Enum):
    """One-sided certificate: CERTIFIED proves Q-factoriality of the
    normalized closure, NOT_CERTIFIED proves nothing (the sufficient
    condition simply does not apply)."""

    CERTIFIED = "certified"
    NOT_CERTIFIED = "not_certified"


def q_factorial_certificate(
    orbit: ClassicalOrbit, prof: PartitionProfile | None = None
) -> QFactorialCertificate:
    """Certify Q-factoriality when the sufficient condition applies.

    For sp/so the condition is l = 0 (torsion Picard group), for sl it is
    k = 1 (a rectangular partition).  Orbits with l > 0 can genuinely fail
    to be Q-factorial, so NOT_CERTIFIED must not be read as a refutation.
    ``prof`` is the orbit's profile when the caller already has it.
    """
    prof = profile(orbit) if prof is None else prof
    if orbit.family is Family.SL:
        certified = prof.k == 1
    else:
        certified = prof.l == 0
    return QFactorialCertificate.CERTIFIED if certified else QFactorialCertificate.NOT_CERTIFIED


def is_factorial(orbit: ClassicalOrbit) -> bool:
    """Whether the normalized closure of a non-zero orbit is factorial.

    sl: never.  sp: iff every part is odd.  so_{2n}: iff there is exactly
    one distinct odd part and it has multiplicity at least 4.  so_{2n+1}:
    the same with multiplicity at least 3.  The zero orbit is outside the
    statement and is rejected.
    """
    if orbit.is_zero:
        raise ZeroOrbit(f"factoriality criterion excludes the zero orbit {orbit}")
    parts = orbit.partition.parts
    if orbit.family is Family.SL:
        return False
    if orbit.family is Family.SP:
        return all(p % 2 == 1 for p in parts)
    odd_mults = [count for value, count in Counter(parts).items() if value % 2 == 1]
    floor = 4 if orbit.family is Family.SO_EVEN else 3
    return len(odd_mults) == 1 and odd_mults[0] >= floor
