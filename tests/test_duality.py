"""Polarizability by Barbasch-Vogan-Spaltenstein duality, a route that
shares nothing with Hesselink's index sets or with iterated induction.

The orbit induced from the zero orbit of a Levi GL_p1 x ... x GL_pk x g(m0)
is the dual d of the regular orbit of the dual Levi GL_p1 x ... x g'(m0),
saturated to the dual algebra (Barbasch-Vogan 1985, Appendix; Spaltenstein
1982; CM 6.3).  sp_2r and so_2r+1 are dual to each other, so_2r to itself.
The saturation takes each p_i twice, with the regular orbit of g'(m0):
[2r+1] of so_2r+1 for sp (m0 = 2r), [2r] of sp_2r for so_odd (m0 = 2r + 1),
and [2r-1, 1] of so_2r for so_even (m0 = 2r).  so_even leaves out m0 = 2,
as so_2 is a torus.  The duals are

    d_C(l) = ((l^T)^+)_B,   d_B(l) = ((l^T)^-)_C,   d_D(l) = (l^T)_D,

with ^+ adding 1 to the largest part, ^- taking 1 from the smallest and _X
the collapse.  So the polarizable orbits are the duals reached, and the m0
that reach one are its witnesses q.  Orbits are compared by partition, as
Jordan type cannot tell the very even labels I and II apart; only
``polarizable(orbit).polarizable`` and the witnesses' q are read.
"""

from __future__ import annotations

from collections import defaultdict

from common import accel_asc, collapse
from orbitres import Family, enumerate_orbits, polarizable
from orbitres.enumeration import enumerate_lie_types

MAX_M = 30


def transpose(parts) -> list[int]:
    return [sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)] if parts else []


def dual(family: Family, parts) -> tuple[int, ...]:
    """d of a partition of the algebra dual to ``family``'s, landing in ``family``'s."""
    t = transpose(parts)
    if family is Family.SO_ODD:  # d_C: from sp_2n to so_2n+1
        t[0] += 1
        return collapse(t, 0)
    if family is Family.SP:  # d_B: from so_2n+1 to sp_2n
        t[-1] -= 1
        return collapse([x for x in t if x], 1)
    return collapse(t, 0)  # d_D


def levi_partitions(n: int):
    """The multisets p_1 >= ... >= p_k of the GL blocks, summing to n."""
    return accel_asc(n) if n else [()]


def reached(family: Family, m: int) -> dict[tuple[int, ...], set[int]]:
    """Each orbit of ``family``'s m induced from a zero orbit, with its m0."""
    found = defaultdict(set)
    for m0 in range(m % 2, m + 1, 2):
        r = m0 // 2
        if family is Family.SP:
            regular = [2 * r + 1]
        elif family is Family.SO_ODD:
            regular = [2 * r] if r else []
        elif r == 1:  # so_2 is a torus
            continue
        else:
            regular = [2 * r - 1, 1] if r else []
        for blocks in levi_partitions((m - m0) // 2):
            saturated = sorted([*blocks, *blocks, *regular], reverse=True)
            found[dual(family, saturated)].add(m0)
    return found


def test_duality_reaches_the_polarizable_orbits_from_their_witnesses():
    checked = 0
    for lie_type in enumerate_lie_types(MAX_M):
        family, m = lie_type
        if family is Family.SL:
            continue
        got = {}
        for orbit in enumerate_orbits(lie_type):
            pol = polarizable(orbit)
            checked += 1
            if pol.polarizable:
                qs = {w.q for w in pol.witnesses}
                assert got.setdefault(orbit.partition.parts, qs) == qs, orbit
        assert got == reached(family, m), (family, m)
    assert checked == 10_756

