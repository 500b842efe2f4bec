"""Polarizability and collapsing degrees via Hesselink's combinatorics.

For sp_m and so_m the Richardson (polarizable) orbits, and among them those
whose cotangent-bundle collapsing T*(G/P) -> closure is birational, are
decided by a purely combinatorial test on the partition d:

* a parameter q is admissible when 0 <= q <= m and q = m (mod 2), with
  q = 2 excluded in the orthogonal case;
* the orbit is polarizable iff for some admissible q the partition passes
  the image test of the Spaltenstein map attached to q;
* when it does, the collapsing degree of the associated polarization is a
  power of 2 whose exponent u is half of +-(#odd parts - q), an integer
  since both have the parity of m; a resolution exists iff some admissible
  q yields degree 1.

None of the sets behind these tests depends on q.  HesselinkAnalysis is the
one API for them: it is built once per orbit, with one step per run of
equal parts, and holds the marked set J, the interval bounds j1 and j0 (j1
is None when no marked position carries an odd part, printed as -inf), the
drop set B, the adjacent-pair parity check and the number of odd parts.
The image is the admissible q in [j1, j0) when the pairing holds, and j0 is
at most N+2 for N parts, so the witnesses of ``polarizable`` are read off
that interval in O(N), however large m is.  The per-q record,
HesselinkReport (q, the integer u, the image test, N_P), is the one
q-dependent answer, read off the analysis in constant time: only
``admissible_reports``, which the JSON report alone calls, pays O(m), one
record per admissible q.  ``record(q)`` is the public per-q query and
rejects any q outside ``admissible_qs``.

All index sets are evaluated on the zero-padded sequence d_1, d_2, ... with
d_j = 0 for j > N.  The padding matters: zero entries join the marked set J
from position N+1 (orthogonal case) or N+1/N+2 (symplectic case) onwards,
which caps j0 and thereby the usable range of q.  Dropping the padding would
admit (d, q) pairs with a negative degree exponent.

epsilon is the family's ``Family.constrained_parity``, 1 for sp_m and 0
for so_m: the parity whose parts must occur with even multiplicity in a
valid partition.  It drives every set definition below.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple

from .errors import InadmissibleQ, NonIntegralExponent, WrongFamily
from .orbits import ClassicalOrbit, Family


class HesselinkAnalysis(NamedTuple):
    """The q-independent facts about one partition d_1 >= ... >= d_N.

    J holds the marked positions within 1..N: j is marked when d_j has the
    constrained parity, and j and j+1 both are when j = m (mod 2) and
    d_j = d_{j+1}.  Position N never pairs that way, since d_N > 0 = d_{N+1}.
    The zero-padded tail is marked too, from position N+1 in the orthogonal
    case (zero parts are even) and, in the symplectic case, from the first
    position past N congruent to m mod 2 (N+1 or N+2), where two zero parts
    form an equal adjacent pair.  The tail is not listed in J: its parts are
    even, so it can only lower j0, never raise j1.

    j1 is the largest marked position with an odd part, None when there is
    none; j0 is the smallest marked position with an even part, the tail
    included, so it is always finite and at most N+2.  B holds the positions
    j in 1..N where d_j > d_{j+1} with d_j of the unconstrained parity (odd
    parts for so, even parts for sp).  pairing_ok says d_j and d_{j+1}
    share parity at every j <= N congruent to m+1 mod 2 (padded positions
    beyond N pass trivially), and n_odd counts odd parts.  m is the matrix
    size and epsilon the constrained parity, 1 for sp_m and 0 for so_m.
    Besides ``of``, the public methods are ``admissible_qs`` and ``record``.
    """

    m: int
    epsilon: int
    J: tuple[int, ...]
    j1: int | None
    j0: int
    B: tuple[int, ...]
    pairing_ok: bool
    n_odd: int

    @classmethod
    def of(cls, orbit: ClassicalOrbit) -> "HesselinkAnalysis":
        """The analysis of an sp or so orbit; raises WrongFamily for sl.

        It takes one step per run of equal parts d_start = ... = d_end.  A
        run of the constrained parity is marked whole; any other run has
        its pairs (j, j+1) with j = m (mod 2) marked, one block from the
        first such j.  Only a run's end can break the pairing or drop."""
        epsilon = orbit.family.constrained_parity
        if epsilon is None:
            raise WrongFamily("Hesselink machinery applies to sp and so only")
        m = orbit.m
        runs = [(value, len(list(run))) for value, run in groupby(orbit.partition.parts)]
        marked, drops = [], []
        j1 = j0 = None
        pairing_ok = True
        n_odd = end = 0
        for (value, count), (nxt, _) in zip(runs, runs[1:] + [(0, 0)]):
            start, end = end + 1, end + count
            odd = value % 2
            if odd == epsilon:
                first, stop = start, end + 1
            else:
                first = start + (start - m) % 2
                stop = first + (end + 1 - first) // 2 * 2
                drops.append(end)
            if first < stop:
                marked.extend(range(first, stop))
                if odd:
                    j1 = stop - 1
                elif j0 is None:
                    j0 = first
            if (end - m) % 2 and (value - nxt) % 2:
                pairing_ok = False
            n_odd += odd * count
        if j0 is None:  # the first marked padded position
            j0 = end + 1 if epsilon == 0 or end % 2 else end + 2
        return cls(
            m=m,
            epsilon=epsilon,
            J=tuple(marked),
            j1=j1,
            j0=j0,
            B=tuple(drops),
            pairing_ok=pairing_ok,
            n_odd=n_odd,
        )

    def admissible_qs(self) -> list[int]:
        """Every admissible q, ascending."""
        return self._admissible(0, self.m + 1)

    def _admissible(self, low: int, high: int) -> list[int]:
        """The admissible q with low <= q < high, ascending: the q in 0..m
        congruent to m mod 2, with 2 left out for so.  This is the one
        admissibility rule."""
        low = max(low, 0)
        low += (low - self.m) % 2
        return [q for q in range(low, min(high, self.m + 1), 2) if q != 2 or self.epsilon]

    def _image(self) -> list[int]:
        """The admissible q passing the image test of the Spaltenstein map:
        j1 <= q < j0 (no lower bound when j1 is None) when the parity
        pairing holds, and none when it fails."""
        if not self.pairing_ok:
            return []
        return self._admissible(0 if self.j1 is None else self.j1, self.j0)

    def record(self, q: int) -> HesselinkReport:
        """The record of q; raises InadmissibleQ unless q is an int in
        admissible_qs()."""
        if type(q) is not int or not self._admissible(q, q + 1):
            raise InadmissibleQ(
                f"q = {q!r} is not admissible for m = {self.m}, epsilon = {self.epsilon}"
            )
        return self._record(q, q in self._image())

    def _record(self, q: int, in_image: bool) -> HesselinkReport:
        """The record of an admissible q, given the outcome of its image test.

        2u = (-1)^epsilon (n_odd - q) is even, as n_odd = m = q (mod 2).  On
        the image N_P = 2^u, or 2^(u-1) when q = epsilon = 0 and B is not
        empty, and the padded tail keeps that exponent non-negative.  Either
        failing is a convention bug, raised as NonIntegralExponent."""
        twice_u = q - self.n_odd if self.epsilon else self.n_odd - q
        if twice_u % 2:
            raise NonIntegralExponent(
                f"degree exponent {twice_u}/2 is not an integer for q = {q}, "
                f"epsilon = {self.epsilon}, {self.n_odd} odd parts"
            )
        u = twice_u // 2
        if not in_image:
            return HesselinkReport(q, u, False, None)
        exponent = u if q + self.epsilon >= 1 or not self.B else u - 1
        if exponent < 0:
            raise NonIntegralExponent(
                f"degree exponent {exponent} is negative for q = {q}, "
                f"epsilon = {self.epsilon}, {self.n_odd} odd parts"
            )
        return HesselinkReport(q, u, True, 2 ** exponent)


class HesselinkReport(NamedTuple):
    """One admissible q: its integer degree exponent u, whether it passes the
    image test, and the collapsing degree N_P there (None off the image)."""

    q: int
    u: int
    in_image: bool
    N_P: int | None


class PolarizabilityResult(NamedTuple):
    """The polarizing q of one orbit, read off its analysis.

    ``witnesses`` are the records of the admissible q in the image;
    ``analysis`` is the HesselinkAnalysis they came from, None for sl
    orbits, where the q-machinery does not apply.
    """

    witnesses: tuple[HesselinkReport, ...]
    analysis: HesselinkAnalysis | None

    @property
    def polarizable(self) -> bool:
        """Every sl orbit is; an sp/so orbit is when some q is a witness."""
        return self.analysis is None or bool(self.witnesses)


def polarizable(orbit: ClassicalOrbit) -> PolarizabilityResult:
    """The admissible q in 0..m passing the image test, with degrees, read
    off the image interval.

    Every sl orbit is polarizable; the result for sl carries no witnesses
    and no analysis.
    """
    if orbit.family is Family.SL:
        return PolarizabilityResult(witnesses=(), analysis=None)
    analysis = HesselinkAnalysis.of(orbit)
    witnesses = tuple([analysis._record(q, True) for q in analysis._image()])
    return PolarizabilityResult(witnesses=witnesses, analysis=analysis)


def resolution_by_search(pol: PolarizabilityResult) -> bool:
    """Search verdict: some polarization collapses with degree 1."""
    if pol.analysis is None:
        raise WrongFamily("the search route applies to sp and so orbits only")
    return any(w.N_P == 1 for w in pol.witnesses)


def admissible_reports(pol: PolarizabilityResult) -> tuple[HesselinkReport, ...]:
    """Reports for every admissible q in 0..m; empty for sl orbits."""
    analysis = pol.analysis
    if analysis is None:
        return ()
    image = set(analysis._image())
    record = analysis._record
    return tuple([record(q, q in image) for q in analysis.admissible_qs()])
