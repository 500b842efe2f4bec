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
one API for them: it is built once per orbit, with one step per stored run
of equal parts (``Partition.counts``), and holds the marked set J, the
interval bounds j1 and j0 (j1 is None when no marked position carries an
odd part, printed as -inf), the drop set B, the adjacent-pair parity check
and the number of odd parts, each O(k) for k distinct parts: J holds one
range of positions per run.  The image is the admissible q in [j1, j0)
when the pairing holds, and j0 is at most N+2, so the witnesses of
``polarizable`` are read off that interval, however large m is.  The
per-q record, HesselinkReport (q, the integer u, N_P, None off the image),
is the one q-dependent answer, read off the analysis in constant time.  The
witnesses of ``polarizable`` are the records of the image, each built once;
``admissible_reports`` (every admissible q, for the JSON report) holds them
between the runs of (q, u) off the image, below and above it, since u moves
by one per step.

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

from collections import namedtuple
from itertools import chain, repeat

from .errors import InternalInvariantError, OrbitresError
from .orbits import ClassicalOrbit, Family

_SL = Family.SL


class HesselinkAnalysis(
    namedtuple("HesselinkAnalysis", "m epsilon J j1 j0 B pairing_ok n_odd")
):
    """The q-independent facts about one partition d_1 >= ... >= d_N.

    J holds the marked positions within 1..N, one ascending ``range`` per
    run of equal parts that has any: j is marked when d_j has the
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
    Besides ``of``, the public method is ``admissible_qs``.
    """

    __slots__ = ()

    @classmethod
    def of(cls, orbit: ClassicalOrbit) -> "HesselinkAnalysis":
        """The analysis of an sp or so orbit; raises OrbitresError for sl.

        It takes one step per run of equal parts d_start = ... = d_end.  A
        run of the constrained parity is marked whole; any other run has
        its pairs (j, j+1) with j = m (mod 2) marked, one block from the
        first such j.  Only a run's end can break the pairing or drop."""
        family, m = orbit.lie_type
        epsilon = family.constrained_parity
        if epsilon is None:
            raise OrbitresError("Hesselink machinery applies to sp and so only")
        counts = orbit.partition.counts
        marked, drops = [], []
        j1 = j0 = None
        pairing_ok = True
        n_odd = end = 0
        for (value, count), nxt in zip(counts.items(), [*counts, 0][1:]):  # nxt: d_{end+1}
            start, end = end + 1, end + count
            odd = value % 2
            if odd == epsilon:
                first, stop = start, end + 1
            else:
                first = start + (start - m) % 2
                stop = first + (end + 1 - first) // 2 * 2
                drops.append(end)
            if first < stop:
                marked.append(range(first, stop))
                if odd:
                    j1 = stop - 1
                elif j0 is None:
                    j0 = first
            if (end - m) % 2 and (value - nxt) % 2:
                pairing_ok = False
            n_odd += odd * count
        if j0 is None:  # the first marked padded position
            j0 = end + 1 if epsilon == 0 or end % 2 else end + 2
        return tuple.__new__(cls, (m, epsilon, tuple(marked), j1, j0, tuple(drops), pairing_ok,
                                   n_odd))

    def admissible_qs(self) -> list[int]:
        """Every admissible q, ascending."""
        return [q for qs in self._admissible(0, self.m + 1) for q in qs]

    def _admissible(self, low: int, high: int) -> tuple[range, ...]:
        """The admissible q with low <= q < high as ranges of step 2, two
        (either may be empty) around q = 2 for so: the q in 0..m congruent
        to m mod 2, with 2 left out for so.  This is the one admissibility rule."""
        low = max(low, 0)
        qs = range(low + (low - self.m) % 2, min(high, self.m + 1), 2)
        if self.epsilon or 2 not in qs:
            return (qs,)
        return (range(qs.start, 2, 2), range(4, qs.stop, 2))

    def _image_bounds(self) -> tuple[int, int]:
        """The image test as bounds [low, high) on q, low <= high: j1 <= q <
        j0 (no lower bound when j1 is None) when the parity pairing holds,
        else empty."""
        low = self.j1 or 0
        return (low, max(low, self.j0)) if self.pairing_ok else (0, 0)

    def _us(self, qs: range) -> range:
        """The exponents u over a run of admissible q (step 2), one apart:
        2u = (-1)^epsilon (n_odd - q) is even, as n_odd = m = q (mod 2); an
        odd 2u is a convention bug.  Read off the run's ends, not its
        length, which ``len`` cannot count past ``sys.maxsize``."""
        sign = 1 if self.epsilon else -1
        twice_u = sign * (qs.start - self.n_odd)
        if twice_u % 2:
            raise InternalInvariantError(f"degree exponent {twice_u}/2 is not an integer for q = "
                                         f"{qs.start}, epsilon = {self.epsilon}, "
                                         f"{self.n_odd} odd parts")
        return range(twice_u // 2, sign * (qs[-1] - self.n_odd) // 2 + sign, sign)

    def _witness(self, q: int, u: int) -> HesselinkReport:
        """The record of a q in the image: N_P = 2^u, or 2^(u-1) when q =
        epsilon = 0 and B is not empty.  The padded tail keeps that exponent
        non-negative; a negative one is a convention bug."""
        exponent = u if q + self.epsilon >= 1 or not self.B else u - 1
        if exponent < 0:
            raise InternalInvariantError(f"degree exponent {exponent} is negative for q = {q}, "
                                         f"epsilon = {self.epsilon}, {self.n_odd} odd parts")
        return tuple.__new__(HesselinkReport, (q, u, 2 ** exponent))


class HesselinkReport(namedtuple("HesselinkReport", "q u N_P")):
    """One admissible q: its integer degree exponent u and the collapsing
    degree N_P when q passes the image test, None off the image."""

    __slots__ = ()

    @property
    def in_image(self) -> bool:
        """Whether q passes the image test: it has a degree."""
        return self.N_P is not None


class PolarizabilityResult(namedtuple("PolarizabilityResult", "witnesses analysis")):
    """The polarizing q of one orbit, read off its analysis.

    ``witnesses`` are the records of the admissible q in the image;
    ``analysis`` is the HesselinkAnalysis they came from, None for sl
    orbits, where the q-machinery does not apply.
    """

    __slots__ = ()

    @property
    def polarizable(self) -> bool:
        """Every sl orbit is; an sp/so orbit is when some q is a witness."""
        return self.analysis is None or bool(self.witnesses)


# The result of every sl orbit: no witnesses and no analysis.  It is
# immutable, so all sl orbits share this one instance.
SL_POLARIZABILITY = PolarizabilityResult(witnesses=(), analysis=None)


def polarizable(orbit: ClassicalOrbit) -> PolarizabilityResult:
    """The admissible q in 0..m passing the image test, with degrees, read
    off the image interval.

    Every sl orbit is polarizable; its result is ``SL_POLARIZABILITY``.
    """
    if orbit.lie_type.family is _SL:
        return SL_POLARIZABILITY
    analysis = HesselinkAnalysis.of(orbit)
    low, high = analysis._image_bounds()
    witnesses = tuple([analysis._witness(q, u) for qs in analysis._admissible(low, high) if qs
                       for q, u in zip(qs, analysis._us(qs))]) if low < high else ()
    return tuple.__new__(PolarizabilityResult, (witnesses, analysis))


def resolution_by_search(pol: PolarizabilityResult) -> bool:
    """Search verdict: some polarization collapses with degree 1."""
    if pol.analysis is None:
        raise OrbitresError("the search route applies to sp and so orbits only")
    for witness in pol.witnesses:
        if witness.N_P == 1:
            return True
    return False


def admissible_reports(pol: PolarizabilityResult):
    """The reports of every admissible q in 0..m, held as the runs off the
    image and the witnesses (a ``RecordRuns``); empty for sl orbits."""
    analysis = pol.analysis
    if analysis is None:
        return ()
    low, high = analysis._image_bounds()
    below, above = ([(qs, analysis._us(qs)) for qs in analysis._admissible(*bounds) if qs]
                    for bounds in ((0, low), (high, analysis.m + 1)))
    return RecordRuns(below, pol.witnesses, above)


class RecordRuns:
    """The reports of every admissible q: the runs ``(qs, us)`` of q below
    the image and their exponents, the witnesses, and the runs above the
    image.  Iterating yields the reports ascending, building those off the
    image, and the length is their number."""

    __slots__ = ("below", "witnesses", "above")

    def __init__(self, below, witnesses, above):
        self.below, self.witnesses, self.above = below, witnesses, above

    def __len__(self) -> int:
        return len(self.witnesses) + sum(len(qs) for qs, _ in self.below + self.above)

    def __iter__(self):
        below, above = ([map(HesselinkReport, qs, us, repeat(None))
                         for qs, us in runs] for runs in (self.below, self.above))
        return chain(*below, self.witnesses, *above)
