"""Exhaustive generation of the valid orbits of one classical algebra.

Only the partitions the family allows are generated: parts of the
family's constrained parity are taken two at a time, so every partition
of m whose constrained parts occur with even multiplicity is emitted once,
in lexicographically decreasing order, and no other.  Its runs are valid
by construction, so each dict yielded becomes a ``Partition`` as it is,
without the run gate; each orbit still passes the ClassicalOrbit gate.  A
very even type-D partition corresponds to two distinct orbits and is
emitted twice, with labels I then II, so downstream counts are orbit
counts rather than partition counts.

``partitions_desc`` keeps one dict of runs, part value -> multiplicity
with the values descending (the form a ``Partition`` stores; Andrews'
frequency notation, Knuth TAOCP 7.2.1.4), and edits its last runs in
place.  A part of the paired parity is one unit with its equal twin, any
other part a unit alone.  To step to the next partition it pops the run of
trailing 1s, which cannot be lowered, then takes one unit off the last run
left; the weight taken is refilled greedily, below that part, with as many
of the largest allowed part as fit, then the next largest, one run each.
The refill never gets stuck: a pair of 1s (sp) or a single 1 (so, sl)
completes any weight left, since every sp unit has even weight and so
leaves an even weight behind.  An odd sp total, the one case with no
partition at all, yields nothing.  Each partition yielded costs one copy
of the dict, O(k) for its k distinct parts.
"""

from __future__ import annotations

from collections.abc import Iterator

from .orbits import ClassicalOrbit, LieType, Partition, VeryEvenLabel


def partitions_desc(total: int, paired: int | None = None) -> Iterator[dict[int, int]]:
    """Partitions of ``total`` in decreasing lexicographic order, each a new
    dict of its runs, part value -> multiplicity, values descending.

    With ``paired`` set to 0 or 1, only those in which every part of that
    parity occurs with even multiplicity: such parts are taken in pairs.
    """
    if paired == 1 and total % 2:
        return  # every sp unit has even weight
    runs: dict[int, int] = {}
    rest = part = total  # the weight still to place, the largest part allowed
    while True:
        while rest:
            if part > rest:
                part = rest
            count = rest // part
            if part % 2 == paired:
                count &= -2  # an even number of copies
                if not count:  # no pair fits, so one smaller part does
                    part -= 1
                    count = rest // part
            runs[part] = count
            rest -= part * count
        yield runs.copy()
        rest = runs.pop(1, 0)  # the trailing 1s, which cannot be lowered
        if not runs:
            return
        part, count = runs.popitem()
        unit = 2 if part % 2 == paired else 1  # its twin goes with it
        if count > unit:
            runs[part] = count - unit
        rest += part * unit
        part -= 1


def enumerate_orbits(lie_type: LieType) -> Iterator[ClassicalOrbit]:
    """Every nilpotent orbit of the algebra, exactly once, in stable order."""
    for runs in partitions_desc(lie_type.m, paired=lie_type.family.constrained_parity):
        orbit = ClassicalOrbit(lie_type, Partition._unchecked(runs))
        yield orbit
        if orbit.very_even_label is not None:
            yield ClassicalOrbit(lie_type, orbit.partition, VeryEvenLabel.II)


def count_orbits(lie_type: LieType) -> int:
    return sum(1 for _ in enumerate_orbits(lie_type))
