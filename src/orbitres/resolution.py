"""Symplectic-resolution verdicts: closed forms, cross-checked dispatch,
and the exceptional-type lookup table.

The closed-form criteria decide, from the partition alone, whether the
orbit closure admits a symplectic resolution:

* sl_n: always;
* sp_2n: iff for some even q >= 0 the first q parts are odd and the rest
  even (q is then necessarily the number of odd parts);
* so_{2n+1}: the same with q odd;
* so_{2n}: the prefix form with even q != 2, or exactly two odd parts
  sitting at positions 2k-1 and 2k.

The dispatcher runs both this closed form and the independent Hesselink
degree search and refuses to return anything if they disagree: the
equivalence of the two routes is a theorem, so a mismatch can only be an
implementation or convention bug.

Exceptional types are served from an embedded table restricted to the
orbits with a settled or explicitly open status; everything else is a
lookup miss with guidance, never a guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import CrossCheckMismatch, NotInDatabase, UnknownAlgebra
from .hesselink import PolarizabilityResult, polarizable, resolution_by_search
from .orbits import ClassicalOrbit, Family


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Route(Enum):
    CLOSED_FORM = "closed_form"
    ALWAYS_SLN = "always_sln"


@dataclass(frozen=True)
class ResolutionWitness:
    """Either the prefix length q or the pair index k of the closed form."""

    q: int | None = None
    pair_position: int | None = None

    def __post_init__(self):
        if (self.q is None) == (self.pair_position is None):
            raise ValueError("exactly one of q and pair_position must be set")

    def to_json_dict(self) -> dict:
        if self.q is not None:
            return {"q": self.q}
        return {"pair_position": self.pair_position}


@dataclass(frozen=True)
class ResolutionVerdict:
    """An answer, its route and its closed-form witness.

    ``polarizability`` is the Hesselink result the dispatcher checked the
    answer against (sl's trivial result for sl orbits), None for a bare
    closed form; it stays out of the JSON form.
    """

    answer: Verdict
    route: Route
    witness: ResolutionWitness | None
    polarizability: PolarizabilityResult | None
    cross_checked: bool

    def to_json_dict(self) -> dict:
        return {
            "answer": self.answer.value,
            "route": self.route.value,
            "witness": None if self.witness is None else self.witness.to_json_dict(),
            "cross_checked": self.cross_checked,
        }


def _odd_prefix_length(parts: tuple[int, ...]) -> int | None:
    """q such that parts 1..q are odd and the rest even, or None.

    When it exists, q equals the number of odd parts, so there is at most
    one candidate to examine.
    """
    n_odd = sum(1 for p in parts if p % 2 == 1)
    if all(parts[j] % 2 == 1 for j in range(n_odd)):
        return n_odd
    return None


def _adjacent_odd_pair(parts: tuple[int, ...]) -> int | None:
    """k when exactly two parts are odd and they occupy positions 2k-1, 2k."""
    positions = [j for j, p in enumerate(parts, start=1) if p % 2 == 1]
    if len(positions) == 2 and positions[0] % 2 == 1 and positions[1] == positions[0] + 1:
        return (positions[0] + 1) // 2
    return None


def _closed_form_witness(orbit: ClassicalOrbit) -> ResolutionWitness | None:
    """The clause of the sp/so closed form that holds, or None."""
    parts = orbit.partition.parts
    q = _odd_prefix_length(parts)
    if orbit.family is Family.SP:
        return ResolutionWitness(q=q) if q is not None and q % 2 == 0 else None
    if orbit.family is Family.SO_ODD:
        return ResolutionWitness(q=q) if q is not None and q % 2 == 1 else None
    # so_{2n}: the even prefix with q = 2 excluded, then the adjacent pair
    if q is not None and q % 2 == 0 and q != 2:
        return ResolutionWitness(q=q)
    k = _adjacent_odd_pair(parts)
    return None if k is None else ResolutionWitness(pair_position=k)


def closed_form_verdict(orbit: ClassicalOrbit) -> ResolutionVerdict:
    """Resolution verdict from the family's closed-form criterion."""
    if orbit.family is Family.SL:
        return ResolutionVerdict(
            Verdict.YES, Route.ALWAYS_SLN, witness=None, polarizability=None, cross_checked=False
        )
    witness = _closed_form_witness(orbit)
    return ResolutionVerdict(
        Verdict.NO if witness is None else Verdict.YES,
        Route.CLOSED_FORM,
        witness=witness,
        polarizability=None,
        cross_checked=False,
    )


def admits_symplectic_resolution(orbit: ClassicalOrbit) -> ResolutionVerdict:
    """Final classical verdict, cross-validated along both routes.

    For sl the closed form stands alone.  For sp/so the closed form and
    the Hesselink degree search must agree; a mismatch raises
    CrossCheckMismatch instead of preferring either route.  The verdict
    carries the orbit's polarizability, which the search read.
    """
    closed = closed_form_verdict(orbit)
    pol = polarizable(orbit)
    if orbit.family is Family.SL:
        return ResolutionVerdict(closed.answer, closed.route, None, pol, cross_checked=False)
    search_says_yes = resolution_by_search(pol)
    if (closed.answer is Verdict.YES) != search_says_yes:
        raise CrossCheckMismatch(
            f"closed form says {closed.answer.value} but the degree search says "
            f"{'yes' if search_says_yes else 'no'} for {orbit}"
        )
    return ResolutionVerdict(closed.answer, closed.route, closed.witness, pol, cross_checked=True)


class ExceptionalAlgebra(Enum):
    G2 = "G2"
    F4 = "F4"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"


@dataclass(frozen=True)
class ExceptionalRecord:
    """One Bala-Carter labelled orbit with its stored verdict."""

    algebra: ExceptionalAlgebra
    label: str
    verdict: Verdict
    note: str

    def to_json_dict(self) -> dict:
        return {
            "algebra": self.algebra.value,
            "label": self.label,
            "verdict": self.verdict.value,
            "note": self.note,
        }


_SIMPLY_CONNECTED = "non-even Richardson orbit, simply connected; any polarization collapses with degree one"
_TRIVIAL_COMPONENT = "non-even Richardson orbit with trivial component group; any polarization collapses with degree one"
_ORDER_TWO_OPEN = "non-even Richardson orbit with component group of order 2; no degree-one polarization is known and none is ruled out"

EXCEPTIONAL_TABLE: tuple[ExceptionalRecord, ...] = (
    ExceptionalRecord(ExceptionalAlgebra.F4, "C3", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord(ExceptionalAlgebra.E6, "2A1", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord(ExceptionalAlgebra.E6, "A2+2A1", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord(ExceptionalAlgebra.E6, "A3", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord(ExceptionalAlgebra.E6, "A4+A1", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord(ExceptionalAlgebra.E6, "D5(a1)", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord(ExceptionalAlgebra.E7, "D5+A1", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord(ExceptionalAlgebra.E7, "D6(a1)", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord(ExceptionalAlgebra.E7, "D4(a1)+A1", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord(ExceptionalAlgebra.E7, "A4+A1", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord(ExceptionalAlgebra.E7, "D5(a1)", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord(ExceptionalAlgebra.E8, "A4+A2+A1", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord(ExceptionalAlgebra.E8, "A6+A1", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord(ExceptionalAlgebra.E8, "E7(a1)", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord(ExceptionalAlgebra.E8, "D6(a1)", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord(ExceptionalAlgebra.E8, "D7(a2)", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord(ExceptionalAlgebra.E8, "E6(a1)+A1", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord(ExceptionalAlgebra.E8, "E7(a3)", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
)

NOT_IN_DATABASE_GUIDANCE = (
    "the embedded table lists only the non-even Richardson orbits whose status is settled "
    "or explicitly open; any even orbit admits a resolution through the Springer collapsing "
    "of T*(G/P), but checking evenness or Richardson-ness of other labels needs external "
    "orbit tables"
)


def _normalize_label(label: str) -> str:
    return "".join(label.split()).casefold()


def _coerce_algebra(algebra) -> ExceptionalAlgebra:
    if isinstance(algebra, ExceptionalAlgebra):
        return algebra
    try:
        return ExceptionalAlgebra(str(algebra).strip().upper())
    except ValueError:
        raise UnknownAlgebra(
            f"unknown exceptional algebra {algebra!r} (expected G2, F4, E6, E7 or E8)"
        ) from None


def lookup_exceptional(algebra, label: str) -> ExceptionalRecord:
    """Find the stored record for a Bala-Carter label, or raise.

    Raises UnknownAlgebra for algebras outside G2/F4/E6/E7/E8 and
    NotInDatabase (with guidance) for labels the table does not cover.
    """
    alg = _coerce_algebra(algebra)
    wanted = _normalize_label(label)
    for record in EXCEPTIONAL_TABLE:
        if record.algebra is alg and _normalize_label(record.label) == wanted:
            return record
    raise NotInDatabase(f"{alg.value} orbit {label!r} is not in the database: {NOT_IN_DATABASE_GUIDANCE}")


def exceptional_table_json() -> list[dict]:
    """The full embedded table, exportable for audit."""
    return [record.to_json_dict() for record in EXCEPTIONAL_TABLE]
