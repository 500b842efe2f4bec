"""Polarizability and collapsing degrees via Hesselink's combinatorics.

For sp_m and so_m the Richardson (polarizable) orbits, and among them those
whose cotangent-bundle collapsing T*(G/P) -> closure is birational, are
decided by a purely combinatorial test on the partition d:

* a parameter q >= 0 is admissible when q = m (mod 2), with q = 2 excluded
  in the orthogonal case;
* the orbit is polarizable iff for some admissible q the partition passes
  the image test of the Spaltenstein map attached to q;
* when it does, the collapsing degree of the associated polarization is a
  power of 2 whose exponent is computed from the count of odd parts; a
  resolution exists iff some admissible q yields degree 1.

None of the sets behind these tests depends on q.  HesselinkAnalysis is the
one API for them: it is built once per orbit, in O(N) time for its N
parts, and holds the marked set J, the interval bounds j1 and j0 (j1 is None
when no marked position carries an odd part, printed as -inf), the drop set
B, the adjacent-pair parity check and the number of odd parts.  Every
q-dependent answer (image test, degree exponent, collapsing degree, per-q
record) is then read off the analysis in constant time, so walking all
admissible q costs O(N + m) rather than O(m * N).  ``polarizable`` builds
the analysis of an orbit and keeps it in its result; the degree search and
the per-q records read that result instead of building their own.

All index sets are evaluated on the zero-padded sequence d_1, d_2, ... with
d_j = 0 for j > N.  The padding matters: zero entries join the marked set J
from position N+1 (orthogonal case) or N+1/N+2 (symplectic case) onwards,
which caps j0 and thereby the usable range of q.  Dropping the padding would
admit (d, q) pairs with a negative degree exponent.

epsilon is 1 for sp_m and 0 for so_m: it is the parity whose parts must
occur with even multiplicity in a valid partition, and it drives every set
definition below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InadmissibleQ, NonIntegralExponent, NotInImage, WrongFamily
from .orbits import ClassicalOrbit, Family


@dataclass(frozen=True)
class HesselinkAnalysis:
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
        """The analysis of an sp or so orbit; raises WrongFamily for sl."""
        if orbit.family is Family.SL:
            raise WrongFamily("Hesselink machinery applies to sp and so only")
        m = orbit.m
        epsilon = 1 if orbit.family is Family.SP else 0
        parts = orbit.partition.parts
        n = len(parts)
        marked = [p % 2 == epsilon for p in parts]  # marked[j - 1]: j in J
        pairing_ok = True
        drops = []
        for j, (p, nxt) in enumerate(zip(parts, parts[1:] + (0,)), start=1):
            if (j - m) % 2 == 0:
                if p == nxt:
                    marked[j - 1] = marked[j] = True
            elif (p - nxt) % 2:
                pairing_ok = False
            if p > nxt and p % 2 != epsilon:
                drops.append(j)
        J = tuple(j for j in range(1, n + 1) if marked[j - 1])
        tail = n + 1 if epsilon == 0 or n % 2 else n + 2  # first marked padded position
        return cls(
            m=m,
            epsilon=epsilon,
            J=J,
            j1=max((j for j in J if parts[j - 1] % 2), default=None),
            j0=min((j for j in J if parts[j - 1] % 2 == 0), default=tail),
            B=tuple(drops),
            pairing_ok=pairing_ok,
            n_odd=sum(p % 2 for p in parts),
        )

    def is_admissible(self, q: int) -> bool:
        """q must be non-negative, congruent to m mod 2, and not 2 when so."""
        return q >= 0 and (q - self.m) % 2 == 0 and not (self.epsilon == 0 and q == 2)

    def admissible_qs(self) -> list[int]:
        """Every admissible q in 0..m, ascending: the q of m's parity, 2 left
        out for so."""
        return [q for q in range(self.m % 2, self.m + 1, 2) if q != 2 or self.epsilon]

    def in_image(self, q: int) -> bool:
        """Image test for the Spaltenstein map at admissible q.

        The partition lies in the image iff j1 <= q < j0 (no lower bound
        when j1 is None) and the adjacent parity-pairing condition holds.
        Only the interval depends on q.
        """
        if not self.is_admissible(q):
            raise InadmissibleQ(
                f"q = {q} is not admissible for m = {self.m}, epsilon = {self.epsilon}"
            )
        return (self.j1 is None or self.j1 <= q) and q < self.j0 and self.pairing_ok

    def u(self, q: int) -> Fraction:
        """Exact degree exponent: half of (-1)^epsilon times (#odd parts - q).

        Kept as a rational on purpose; it is converted to an integer exponent
        only after validation, so a convention error can never be silently
        truncated away.
        """
        sign = -1 if self.epsilon == 1 else 1
        return Fraction(sign * (self.n_odd - q), 2)

    def N_P(self, q: int) -> int:
        """Collapsing degree of the polarization attached to q.

        2^u in general, 2^(u-1) when q = epsilon = 0 with a strict drop at an
        odd part.  Defined only on the image of the Spaltenstein map; raises
        NonIntegralExponent if the exponent fails to be a non-negative
        integer (empirically impossible for valid classical data, kept as a
        guard).
        """
        if not self.in_image(q):
            raise NotInImage(
                f"not in the image of the Spaltenstein map at q = {q}: interval "
                f"[{_lower_bound(self.j1)}, {self.j0}), "
                f"pairing {'holds' if self.pairing_ok else 'fails'}"
            )
        return self._degree(q)

    def _degree(self, q: int) -> int:
        """N_P for a q already known to pass the image test."""
        u = self.u(q)
        exponent = u if q + self.epsilon >= 1 or not self.B else u - 1
        if exponent.denominator != 1 or exponent < 0:
            raise NonIntegralExponent(
                f"degree exponent {exponent} for q = {q}, epsilon = {self.epsilon}, "
                f"{self.n_odd} odd parts"
            )
        return 2 ** int(exponent)

    def record(self, q: int) -> HesselinkReport:
        """The per-q record; q must be admissible."""
        in_image = self.in_image(q)
        return HesselinkReport(
            q=q,
            J=self.J,
            j1=self.j1,
            j0=self.j0,
            B=self.B,
            u=self.u(q),
            in_image=in_image,
            N_P=self._degree(q) if in_image else None,
        )


@dataclass(frozen=True)
class PolarizationWitness:
    """An admissible q passing the image test, with its collapsing degree."""

    q: int
    N_P: int


@dataclass(frozen=True)
class PolarizabilityResult:
    """The polarizing q of one orbit, read off its analysis.

    ``analysis`` is the HesselinkAnalysis the witnesses came from, None
    for sl orbits, where the q-machinery does not apply.
    """

    polarizable: bool
    witnesses: tuple[PolarizationWitness, ...]
    analysis: HesselinkAnalysis | None


def polarizable(orbit: ClassicalOrbit) -> PolarizabilityResult:
    """All admissible q in 0..m passing the image test, with degrees.

    Every sl orbit is polarizable; the result for sl carries no witnesses
    and no analysis.
    """
    if orbit.family is Family.SL:
        return PolarizabilityResult(polarizable=True, witnesses=(), analysis=None)
    analysis = HesselinkAnalysis.of(orbit)
    witnesses = tuple(
        PolarizationWitness(q, analysis._degree(q))
        for q in analysis.admissible_qs()
        if analysis.in_image(q)
    )
    return PolarizabilityResult(
        polarizable=bool(witnesses), witnesses=witnesses, analysis=analysis
    )


def resolution_by_search(pol: PolarizabilityResult) -> bool:
    """Search verdict: some polarization collapses with degree 1."""
    if pol.analysis is None:
        raise WrongFamily("the search route applies to sp and so orbits only")
    return any(w.N_P == 1 for w in pol.witnesses)


@dataclass(frozen=True)
class HesselinkReport:
    """Everything the image test and degree formula saw for one q."""

    q: int
    J: tuple[int, ...]
    j1: int | None
    j0: int
    B: tuple[int, ...]
    u: Fraction
    in_image: bool
    N_P: int | None

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "J": list(self.J),
            "j1": _lower_bound(self.j1),
            "j0": self.j0,
            "B": list(self.B),
            "u": str(self.u),
            "in_image": self.in_image,
            "N_P": self.N_P,
        }


def _lower_bound(j1: int | None) -> int | str:
    """j1 as printed: -inf when no marked position carries an odd part."""
    return "-inf" if j1 is None else j1


def admissible_reports(pol: PolarizabilityResult) -> tuple[HesselinkReport, ...]:
    """Reports for every admissible q in 0..m; empty for sl orbits."""
    if pol.analysis is None:
        return ()
    return tuple(pol.analysis.record(q) for q in pol.analysis.admissible_qs())
