"""Picard groups of classical nilpotent orbits and (Q-)factoriality verdicts.

The Picard group of the orbit (equivalently the divisor class group of the
normalized closure) is a finitely generated abelian group computed in closed
form from the orbit's profile (``orbit.profile``, built once per orbit):

* sl_n:  Z^{k-1} + Z/c, with k the number of distinct parts and c their gcd;
* sp_2n: (Z/2)^b + Z^l;
* so_m, partition not rather odd: (Z/2)^{max(0, a-1)} + Z^l;
* so_m, partition rather odd: an extension of Z/2 by (Z/2)^{max(0, a-1)}
  whose isomorphism type is not pinned down by the formulas.

The unresolved extension in the rather-odd case is represented faithfully
rather than guessed: it is never trivial and has free rank 0.
``q_factorial_certificate`` reads the group's free rank alone, with no rule
per family.  Factoriality reads the parts' multiplicities
(``orbit.partition.counts``), not the profile.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import InternalInvariantError
from .orbits import ClassicalOrbit, Family

_SL, _SP, _SO_EVEN = Family.SL, Family.SP, Family.SO_EVEN


class UnresolvedExtension(namedtuple("UnresolvedExtension", "kernel_exponent")):
    """An extension of Z/2 by (Z/2)^kernel_exponent of undetermined type."""

    __slots__ = ()

    def __new__(cls, kernel_exponent: int):
        if kernel_exponent < 0:
            raise InternalInvariantError("kernel exponent must be non-negative")
        return tuple.__new__(cls, (kernel_exponent,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the gate


class AbelianGroupDescriptor(
    namedtuple("AbelianGroupDescriptor", "free_rank torsion unresolved_extension")
):
    """Free rank plus torsion cyclic factors, or an unresolved 2-group.

    ``torsion`` and ``unresolved_extension`` are mutually exclusive; an
    unresolved extension always has order 2^(t+1) >= 2 and so is never
    trivial.
    """

    __slots__ = ()

    def __new__(cls, free_rank: int = 0, torsion: tuple[int, ...] = (),
                unresolved_extension: UnresolvedExtension | None = None):
        # first, so that every check reads the tuple: an iterator can be read once
        torsion = tuple(sorted(torsion, reverse=True)) if torsion else ()
        if free_rank < 0:
            raise InternalInvariantError("free rank must be non-negative")
        if torsion and torsion[-1] < 2:
            raise InternalInvariantError("torsion factors must be at least 2")
        if torsion and unresolved_extension is not None:
            raise InternalInvariantError("torsion and unresolved extension are mutually exclusive")
        return tuple.__new__(cls, (free_rank, torsion, unresolved_extension))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the gate

    @property
    def is_trivial(self) -> bool:
        return (
            self.free_rank == 0
            and not self.torsion
            and self.unresolved_extension is None
        )

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
        for value in dict.fromkeys(self.torsion):  # descending, as the torsion is sorted
            count = self.torsion.count(value)
            pieces.append(f"Z/{value}" if count == 1 else f"(Z/{value})^{count}")
        return " x ".join(pieces)


def picard(orbit: ClassicalOrbit) -> AbelianGroupDescriptor:
    """Pic of the orbit from its profile, by the family's formula."""
    prof, family = orbit.profile, orbit.lie_type.family
    if family is _SL:
        return AbelianGroupDescriptor(prof.k - 1, (prof.c,) if prof.c >= 2 else ())
    if family is _SP:
        return AbelianGroupDescriptor(prof.l, (2,) * prof.b)
    two_torsion = max(0, prof.a - 1)
    if prof.rather_odd:
        return AbelianGroupDescriptor(0, (), UnresolvedExtension(two_torsion))
    return AbelianGroupDescriptor(prof.l, (2,) * two_torsion)


class QFactorialCertificate(Enum):
    """One-sided certificate: CERTIFIED proves Q-factoriality of the
    normalized closure, NOT_CERTIFIED proves nothing (the sufficient
    condition simply does not apply)."""

    CERTIFIED = "certified"
    NOT_CERTIFIED = "not_certified"


def q_factorial_certificate(group: AbelianGroupDescriptor) -> QFactorialCertificate:
    """Certify Q-factoriality of the normalized closure from the orbit's
    Picard group (``picard``): CERTIFIED exactly when the group is finite,
    that is of free rank 0.  NOT_CERTIFIED must not be read as a refutation.
    """
    certified = group.free_rank == 0
    return QFactorialCertificate.CERTIFIED if certified else QFactorialCertificate.NOT_CERTIFIED


def is_factorial(orbit: ClassicalOrbit) -> bool | None:
    """Whether the normalized closure of a non-zero orbit is factorial.

    sl: never.  sp: iff every part is odd.  so_{2n}: iff there is exactly
    one distinct odd part and it has multiplicity at least 4.  so_{2n+1}:
    the same with multiplicity at least 3.  The zero orbit is outside the
    statement, so the answer for it is None; this is the one place that
    excludes it, and it reads the runs for that itself: the zero orbit is
    the one whose largest part is 1.
    """
    counts = orbit.partition.counts
    if next(iter(counts)) == 1:
        return None
    family = orbit.lie_type.family
    if family is _SL:
        return False
    if family is _SP:
        return all(value % 2 == 1 for value in counts)
    odd_mults = [count for value, count in counts.items() if value % 2 == 1]
    floor = 4 if family is _SO_EVEN else 3
    return len(odd_mults) == 1 and odd_mults[0] >= floor
