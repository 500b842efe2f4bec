"""Polarizability by Lusztig-Spaltenstein induction from the zero orbit, a
route that shares nothing with Hesselink's index sets.

An sp/so orbit is polarizable (Richardson) when it is induced from the zero
orbit of a Levi GL_p1 x ... x GL_pk x g(m0), and the m0 that reach it are
its Hesselink witnesses q, m0 = 2 left out for so_even (CM Lemma 6.3.3 and
Thm 7.3.3; Hesselink 1978).  Inducing through GL_p adds 2 to the first p
parts and takes the C-collapse (sp) or the B/D-collapse (so).  Orbits are
compared by partition: Jordan type cannot tell the very even labels I and
II apart.  ``polarizable`` is called only to compare.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from common import collapse
from orbitres import Family, LieType, enumerate_orbits, polarizable

MAX_M = 30


@lru_cache(maxsize=None)
def induced(paired: int, m0: int) -> dict[int, set]:
    """size -> the partitions induced from [1^m0], for sizes up to MAX_M."""
    reached = defaultdict(set, {m0: {(1,) * m0}})
    for size in range(m0, MAX_M + 1, 2):
        for parts in reached[size]:
            for p in range(1, (MAX_M - size) // 2 + 1):
                padded = [*parts, *[0] * (p - len(parts))]
                reached[size + 2 * p].add(collapse([x + 2 for x in padded[:p]] + padded[p:], paired))
    return reached


def test_induction_reaches_the_polarizable_orbits_from_their_witnesses():
    checked = 0
    for family, low in ((Family.SP, 2), (Family.SO_ODD, 3), (Family.SO_EVEN, 4)):
        paired = 1 if family is Family.SP else 0  # the parity whose parts come in pairs
        for m in range(low, MAX_M + 1, 2):
            expected = defaultdict(set)
            for m0 in range(m % 2, m + 1, 2):
                for parts in induced(paired, m0)[m]:
                    expected[parts] |= {m0} - ({2} if family is Family.SO_EVEN else set())
            got = {}
            for orbit in enumerate_orbits(LieType(family, m)):
                pol = polarizable(orbit)
                checked += 1
                if pol.polarizable:
                    qs = {w.q for w in pol.witnesses}
                    assert got.setdefault(orbit.partition.parts, qs) == qs, orbit
            assert got == expected, (family, m)
    assert checked == 10_756
