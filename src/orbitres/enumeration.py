"""Exhaustive generation of the valid orbits of one classical algebra.

Only the partitions the family allows are generated: parts of the
family's constrained parity are taken two at a time, so every partition
of m whose constrained parts occur with even multiplicity is emitted once,
in lexicographically decreasing order, and no other.  Each one still
passes the ClassicalOrbit validation gate.  A very even type-D partition
corresponds to two distinct orbits and is emitted twice, with labels I
then II, so downstream counts are orbit counts rather than partition
counts.
"""

from __future__ import annotations

from typing import Iterator

from .orbits import ClassicalOrbit, LieType, Partition, VeryEvenLabel


def partitions_desc(
    total: int, max_part: int | None = None, paired: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Partitions of ``total`` in decreasing lexicographic order.

    With ``paired`` set to 0 or 1, only those in which every part of that
    parity occurs with even multiplicity: such parts are taken in pairs.
    """
    if max_part is None or max_part > total:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        if first % 2 == paired:
            if 2 * first <= total:
                for rest in partitions_desc(total - 2 * first, first, paired):
                    yield (first, first, *rest)
        else:
            for rest in partitions_desc(total - first, first, paired):
                yield (first, *rest)


def enumerate_orbits(lie_type: LieType) -> Iterator[ClassicalOrbit]:
    """Every nilpotent orbit of the algebra, exactly once, in stable order."""
    for parts in partitions_desc(lie_type.m, paired=lie_type.family.constrained_parity):
        orbit = ClassicalOrbit(lie_type, Partition(parts))
        yield orbit
        if orbit.is_very_even:
            yield ClassicalOrbit(lie_type, orbit.partition, VeryEvenLabel.II)


def count_orbits(lie_type: LieType) -> int:
    return sum(1 for _ in enumerate_orbits(lie_type))
