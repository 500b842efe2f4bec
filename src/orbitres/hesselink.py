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

None of the sets behind these tests depends on q.  A HesselinkAnalysis is
built once per partition, in one linear pass each over its N parts: the
marked set J, the interval bounds j1 and j0, the drop set B, the
adjacent-pair parity check and the number of odd parts.  Every q-dependent
answer (image test, degree exponent, collapsing degree, per-q record) is
then read off the analysis in constant time, so walking all admissible q
costs O(N + m) rather than O(m * N).

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
from .orbits import ClassicalOrbit, Family, LieType, Partition

NEG_INF: float = float("-inf")
POS_INF: float = float("inf")


@dataclass(frozen=True)
class HesselinkContext:
    """Matrix size and the constrained parity (1 for sp_m, 0 for so_m)."""

    m: int
    epsilon: int

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise ValueError(f"epsilon must be 0 or 1, got {self.epsilon}")
        if self.m < 1:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.epsilon == 1 and self.m % 2 != 0:
            raise ValueError("epsilon = 1 (symplectic) requires even m")

    @classmethod
    def for_lie_type(cls, lie_type: LieType) -> "HesselinkContext":
        if lie_type.family is Family.SL:
            raise WrongFamily("Hesselink machinery applies to sp and so only")
        return cls(m=lie_type.m, epsilon=1 if lie_type.family is Family.SP else 0)

    @classmethod
    def for_orbit(cls, orbit: ClassicalOrbit) -> "HesselinkContext":
        return cls.for_lie_type(orbit.lie_type)


def is_admissible(ctx: HesselinkContext, q: int) -> bool:
    """q must be non-negative, congruent to m mod 2, and not 2 when so."""
    return q >= 0 and (q - ctx.m) % 2 == 0 and not (ctx.epsilon == 0 and q == 2)


def _padded(d: Partition) -> tuple[int, ...]:
    """The parts followed by one zero, so d_{j+1} is defined for j <= N."""
    return d.parts + (0,)


def compute_J(ctx: HesselinkContext, d: Partition) -> frozenset[int]:
    """The marked positions within 1..N.

    A position j is marked when d_j has the constrained parity, or when j
    or j-1 sits at a position congruent to m mod 2 with two equal adjacent
    parts.  On the zero-padded tail every position from
    _first_padded_member(ctx, N) onwards is marked as well; those are not
    materialized here and are accounted for in the analysis (they carry
    part 0, so they can only lower j0, never raise j1).
    """
    parts = _padded(d)
    marked = {j for j, p in enumerate(parts[:-1], start=1) if p % 2 == ctx.epsilon}
    for j in range(2 - ctx.m % 2, len(parts), 2):
        if parts[j - 1] == parts[j]:
            marked.update((j, j + 1))
    # j = N never pairs with the padding since d_N > 0 = d_{N+1}
    return frozenset(marked)


def _first_padded_member(ctx: HesselinkContext, n_parts: int) -> int:
    """Smallest padded index belonging to J.

    Zero parts are even: in the orthogonal case they match epsilon = 0
    immediately at N+1; in the symplectic case they enter through an equal
    adjacent pair at the first position past N congruent to m mod 2.
    """
    if ctx.epsilon == 0 or n_parts % 2 == 1:
        return n_parts + 1
    return n_parts + 2


def compute_B(ctx: HesselinkContext, d: Partition) -> frozenset[int]:
    """Positions where the partition strictly drops with a part of the
    unconstrained parity (odd parts for so, even parts for sp)."""
    parts = _padded(d)
    return frozenset(
        j
        for j in range(1, len(parts))
        if parts[j - 1] > parts[j] and parts[j - 1] % 2 != ctx.epsilon
    )


@dataclass(frozen=True)
class HesselinkAnalysis:
    """The q-independent facts about one partition, each computed once.

    J and B are sorted positions within 1..N.  j1 is the largest marked
    position with an odd part (-inf when there is none); j0 is the smallest
    marked position with an even part, the zero-padded tail included, so it
    is finite and at most N+2.  pairing_ok says adjacent parts share parity
    at every position congruent to m+1 mod 2, and n_odd counts odd parts.
    """

    ctx: HesselinkContext
    J: tuple[int, ...]
    j1: int | float
    j0: int
    B: tuple[int, ...]
    pairing_ok: bool
    n_odd: int

    @classmethod
    def of(cls, ctx: HesselinkContext, d: Partition) -> "HesselinkAnalysis":
        parts = _padded(d)
        marked = tuple(sorted(compute_J(ctx, d)))
        j1 = max((j for j in marked if parts[j - 1] % 2 == 1), default=NEG_INF)
        j0 = min((j for j in marked if parts[j - 1] % 2 == 0), default=POS_INF)
        # padded positions beyond N satisfy the pairing check trivially
        pairing_ok = all(
            (parts[j - 1] - parts[j]) % 2 == 0
            for j in range(2 - (ctx.m + 1) % 2, len(parts), 2)
        )
        return cls(
            ctx=ctx,
            J=marked,
            j1=j1,
            j0=min(j0, _first_padded_member(ctx, len(d))),
            B=tuple(sorted(compute_B(ctx, d))),
            pairing_ok=pairing_ok,
            n_odd=sum(p % 2 for p in d.parts),
        )

    @classmethod
    def for_orbit(cls, orbit: ClassicalOrbit) -> "HesselinkAnalysis":
        return cls.of(HesselinkContext.for_orbit(orbit), orbit.partition)

    def admissible_qs(self) -> list[int]:
        """Every admissible q in 0..m, ascending."""
        return [q for q in range(self.ctx.m + 1) if is_admissible(self.ctx, q)]

    def in_image(self, q: int) -> bool:
        """Image test for the Spaltenstein map at admissible q.

        The partition lies in the image iff j1 <= q < j0 and the adjacent
        parity-pairing condition holds.  Only the interval depends on q.
        """
        if not is_admissible(self.ctx, q):
            raise InadmissibleQ(
                f"q = {q} is not admissible for m = {self.ctx.m}, epsilon = {self.ctx.epsilon}"
            )
        return self.j1 <= q < self.j0 and self.pairing_ok

    def u(self, q: int) -> Fraction:
        """Exact degree exponent: half of (-1)^epsilon times (#odd parts - q).

        Kept as a rational on purpose; it is converted to an integer exponent
        only after validation, so a convention error can never be silently
        truncated away.
        """
        sign = -1 if self.ctx.epsilon == 1 else 1
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
                f"[{self.j1}, {self.j0}), pairing {'holds' if self.pairing_ok else 'fails'}"
            )
        u = self.u(q)
        exponent = u if q + self.ctx.epsilon >= 1 or not self.B else u - 1
        if exponent.denominator != 1 or exponent < 0:
            raise NonIntegralExponent(
                f"degree exponent {exponent} for q = {q}, epsilon = {self.ctx.epsilon}, "
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
            N_P=self.N_P(q) if in_image else None,
        )


def compute_j1_j0(ctx: HesselinkContext, d: Partition) -> tuple[int | float, int | float]:
    """(largest marked position with odd part, smallest with even part).

    Sentinels: -inf when no marked position carries an odd part.  The
    padded tail always contributes even (zero) parts, so the second value
    is finite, at most N+2.
    """
    analysis = HesselinkAnalysis.of(ctx, d)
    return analysis.j1, analysis.j0


def in_image_Sq(ctx: HesselinkContext, d: Partition, q: int) -> bool:
    """Image test for the Spaltenstein map at admissible q (one-off form of
    HesselinkAnalysis.in_image)."""
    return HesselinkAnalysis.of(ctx, d).in_image(q)


def compute_u(ctx: HesselinkContext, d: Partition, q: int) -> Fraction:
    """Exact degree exponent (one-off form of HesselinkAnalysis.u)."""
    return HesselinkAnalysis.of(ctx, d).u(q)


def N_P(ctx: HesselinkContext, d: Partition, q: int) -> int:
    """Collapsing degree of the polarization attached to (d, q) (one-off
    form of HesselinkAnalysis.N_P)."""
    return HesselinkAnalysis.of(ctx, d).N_P(q)


@dataclass(frozen=True)
class PolarizationWitness:
    """An admissible q passing the image test, with its collapsing degree."""

    q: int
    N_P: int


@dataclass(frozen=True)
class PolarizabilityResult:
    polarizable: bool
    witnesses: tuple[PolarizationWitness, ...]


def polarizable(orbit: ClassicalOrbit) -> PolarizabilityResult:
    """All admissible q in 0..m passing the image test, with degrees.

    Every sl orbit is polarizable; the result for sl carries no witnesses
    since the q-machinery does not apply there.
    """
    if orbit.family is Family.SL:
        return PolarizabilityResult(polarizable=True, witnesses=())
    analysis = HesselinkAnalysis.for_orbit(orbit)
    witnesses = tuple(
        PolarizationWitness(q, analysis.N_P(q))
        for q in analysis.admissible_qs()
        if analysis.in_image(q)
    )
    return PolarizabilityResult(polarizable=bool(witnesses), witnesses=witnesses)


def resolution_by_search(orbit: ClassicalOrbit) -> bool:
    """Search verdict: some polarization collapses with degree 1."""
    if orbit.family is Family.SL:
        raise WrongFamily("the search route applies to sp and so orbits only")
    return any(w.N_P == 1 for w in polarizable(orbit).witnesses)


@dataclass(frozen=True)
class HesselinkReport:
    """Everything the image test and degree formula saw for one q."""

    q: int
    J: tuple[int, ...]
    j1: int | float
    j0: int | float
    B: tuple[int, ...]
    u: Fraction
    in_image: bool
    N_P: int | None

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "J": list(self.J),
            "j1": _sentinel_json(self.j1),
            "j0": _sentinel_json(self.j0),
            "B": list(self.B),
            "u": str(self.u),
            "in_image": self.in_image,
            "N_P": self.N_P,
        }


def _sentinel_json(value: int | float) -> int | str:
    if value == NEG_INF:
        return "-inf"
    if value == POS_INF:
        return "+inf"
    return int(value)


def hesselink_report(ctx: HesselinkContext, d: Partition, q: int) -> HesselinkReport:
    """Assemble the per-q record; q must be admissible."""
    return HesselinkAnalysis.of(ctx, d).record(q)


def admissible_reports(orbit: ClassicalOrbit) -> tuple[HesselinkReport, ...]:
    """Reports for every admissible q in 0..m; empty for sl orbits."""
    if orbit.family is Family.SL:
        return ()
    analysis = HesselinkAnalysis.for_orbit(orbit)
    return tuple(analysis.record(q) for q in analysis.admissible_qs())
