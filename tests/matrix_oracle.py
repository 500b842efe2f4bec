"""Nilpotent orbits of sp_m and so_m read off matrices: an oracle that
shares nothing with the partition formulas.  Standard library only.

The algebra is g = {X : X^T J + J X = 0}, for J antidiagonal with
J[k][m-1-k] = 1, or -1 on the second half of the rows for sp.  Then
X -> X - J^-1 X^T J is twice the projection onto g, and an element y of g
has y[a][b] = -e(a) e(b) y[m-1-b][m-1-a], with e(a) = J[m-1-a][a].

A composition (p1..pk) with m0 = m - 2 (p1 + ... + pk) >= 0 gives the
parabolic P whose Levi is GL_p1 x ... x GL_pk x g(m0): the block-upper-
triangular matrices for the blocks (p1..pk, m0, pk..p1).  By Richardson
(Collingwood-McGovern 7.1), P.y is dense in the nilradical n_P for a
generic y in it, and G.y is the orbit induced from the zero orbit of the
Levi.  ``generic_element`` fills the strictly block-upper-triangular
entries with residues mod the prime 2^31 - 1 drawn from a seeded
generator and projects onto g.  ``jordan_type`` reads the partition off
the ranks of y^j, and ``orbit_dimension`` is rank(ad y) on g.  Ranks are
taken mod the prime: a random y has the generic ranks except with
probability about m^2 / 2^31, and a fixed seed makes every run the same.
Jordan type cannot tell the very even labels I and II apart, so orbits
are compared by partition.
"""

from __future__ import annotations

import random

PRIME = (1 << 31) - 1


def signs(sp: bool, m: int) -> list[int]:
    """e(a) = J[m-1-a][a]: 1 for so; for sp, -1 for a < m/2 and 1 after."""
    return [-1 if sp and a < m // 2 else 1 for a in range(m)]


def compositions(most: int):
    """Every composition (p1..pk), k >= 0, of a total at most ``most``."""
    yield ()
    for first in range(1, most + 1):
        for rest in compositions(most - first):
            yield (first, *rest)


def generic_element(sp: bool, m: int, composition, rng: random.Random) -> list[list[int]]:
    """A generic y in n_P, for the parabolic P of ``composition``."""
    m0 = m - 2 * sum(composition)
    sizes = [*composition, m0, *reversed(composition)]
    block = [index for index, size in enumerate(sizes) for _ in range(size)]
    x = [[rng.randrange(PRIME) if block[a] < block[b] else 0 for b in range(m)]
         for a in range(m)]
    e = signs(sp, m)
    y = [[(x[a][b] - e[a] * e[b] * x[m - 1 - b][m - 1 - a]) % PRIME for b in range(m)]
         for a in range(m)]
    assert all((y[a][b] + e[a] * e[b] * y[m - 1 - b][m - 1 - a]) % PRIME == 0
               for a in range(m) for b in range(m)), "y is not in g"
    return y


def rank(rows: list[list[int]]) -> int:
    """The rank mod PRIME of the matrix of ``rows``, by elimination."""
    rows = [row for row in rows if any(row)]
    found = 0
    for column in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(found, len(rows)) if rows[i][column]), None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        inverse = pow(rows[found][column], PRIME - 2, PRIME)
        top = rows[found] = [value * inverse % PRIME for value in rows[found]]
        for i in range(found + 1, len(rows)):
            factor = rows[i][column]
            if factor:
                rows[i] = [(value - factor * t) % PRIME for value, t in zip(rows[i], top)]
        found += 1
    return found


def jordan_type(y: list[list[int]]) -> tuple[int, ...]:
    """The sizes of the Jordan blocks of the nilpotent y, descending: with
    r_j = rank(y^j), r_(j-1) - r_j blocks have size at least j."""
    m = len(y)
    ranks, power = [m], y
    columns = [*zip(*y)]
    while ranks[-1]:
        ranks.append(rank(power))
        power = [[sum(map(int.__mul__, row, column)) % PRIME for column in columns]
                 for row in power]
    at_least = [ranks[j - 1] - ranks[j] for j in range(1, len(ranks))]
    parts = []
    for size in range(len(at_least), 0, -1):
        more = at_least[size] if size < len(at_least) else 0
        parts += [size] * (at_least[size - 1] - more)
    return tuple(parts)


def orbit_dimension(sp: bool, y: list[list[int]]) -> int:
    """dim G.y = rank(ad y) on g.  g is spanned by the E_ij - e(k) e(l) E_kl,
    (k, l) = (m-1-j, m-1-i), over the (i, j) on or above the antidiagonal
    (strictly above for so, whose antidiagonal entries are 0), and an
    element of g is fixed by its entries there."""
    m = len(y)
    e = signs(sp, m)
    positions = [(i, j) for i in range(m) for j in range(m)
                 if i + j < m - 1 or (sp and i + j == m - 1)]
    rows = []
    for i, j in positions:
        k, l = m - 1 - j, m - 1 - i
        bracket = [[0] * m for _ in range(m)]
        for coefficient, (s, t) in ((1, (i, j)), (-e[k] * e[l], (k, l))):  # [y, E_st]
            for a in range(m):
                bracket[a][t] += coefficient * y[a][s]
                bracket[s][a] -= coefficient * y[t][a]
        rows.append([bracket[a][b] % PRIME for a, b in positions])
    return rank(rows)


def induced_orbits(sp: bool, m: int, seed: int | str) -> dict:
    """Partition -> (the m0 of every composition whose generic y has that
    Jordan type, rank(ad y) of the first such y), over every parabolic of
    sp_m (``sp``) or so_m, the residues drawn from ``seed``."""
    rng = random.Random(seed)
    found: dict[tuple[int, ...], tuple[set[int], int]] = {}
    for composition in compositions(m // 2):
        y = generic_element(sp, m, composition, rng)
        parts = jordan_type(y)
        if parts not in found:
            found[parts] = (set(), orbit_dimension(sp, y))
        found[parts][0].add(m - 2 * sum(composition))
    return found
