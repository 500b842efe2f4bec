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

Both clauses ask the odd parts to fill one block of consecutive positions,
so the closed form reads the parts in one pass over the runs of equal
parts, and reads neither ``Partition.counts``, the profile nor Hesselink.

The dispatcher runs both this closed form and the independent Hesselink
degree search and refuses to return anything if they disagree: the
equivalence of the two routes is a theorem, so a mismatch can only be an
implementation or convention bug.

Exceptional types are served from an embedded table restricted to the
orbits with a settled or explicitly open status; everything else is a
lookup miss with guidance (NotInDatabase), never a guess.  An algebra is
named by its string in EXCEPTIONAL_ALGEBRAS, and any other name is bad
input (OrbitresError).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import groupby

from .errors import InternalInvariantError, NotInDatabase, OrbitresError
from .hesselink import SL_POLARIZABILITY, polarizable, resolution_by_search
from .orbits import ClassicalOrbit, Family


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Route(Enum):
    CLOSED_FORM = "closed_form"
    ALWAYS_SLN = "always_sln"


class ResolutionWitness(namedtuple("ResolutionWitness", "q pair_position")):
    """Either the prefix length q or the pair index k of the closed form."""

    __slots__ = ()

    def __new__(cls, q: int | None = None, pair_position: int | None = None):
        if (q is None) == (pair_position is None):
            raise InternalInvariantError("exactly one of q and pair_position must be set")
        return super().__new__(cls, q, pair_position)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the gate


class ResolutionVerdict(
    namedtuple("ResolutionVerdict", "answer route witness polarizability")
):
    """An answer, its route and its closed-form witness.

    ``polarizability`` is the Hesselink result the dispatcher checked the
    answer against (sl's trivial result for sl orbits), None for a bare
    closed form; it stays out of the JSON form.
    """

    __slots__ = ()

    @property
    def cross_checked(self) -> bool:
        """Whether the Hesselink degree search confirmed the answer: exactly
        when the verdict carries a Hesselink analysis (sp and so)."""
        return self.polarizability is not None and self.polarizability.analysis is not None


# The verdicts of every sl orbit, bare and checked: both are immutable, so
# all sl orbits share them.
_SL_CLOSED_FORM = ResolutionVerdict(Verdict.YES, Route.ALWAYS_SLN, witness=None, polarizability=None)
_SL_VERDICT = _SL_CLOSED_FORM._replace(polarizability=SL_POLARIZABILITY)


def closed_form_verdict(orbit: ClassicalOrbit) -> ResolutionVerdict:
    """Resolution verdict from the family's closed-form criterion.

    For sp/so one pass over the runs of equal parts finds the block of odd
    parts at positions start..start+q-1 (start = q = 0 when none is odd),
    and stops where a second block starts, since no clause then holds.  The
    orbit's validation gate already forces q to the family's parity and a
    lone so_{2n} pair of odd parts to an odd start; both checks stay, as
    they restate the paper's clauses."""
    family = orbit.family
    if family is Family.SL:
        return _SL_CLOSED_FORM
    witness = None
    start = q = read = 0  # read: the parts before the current run
    for value, run in groupby(orbit.partition.parts):
        count = len(list(run))
        if value % 2:
            if q and start + q <= read:  # an even part sits between: a second block
                break
            start, q = start or read + 1, q + count
        read += count
    else:  # one block at most: the prefix clause, then so_{2n}'s pair clause
        pair = family is Family.SO_EVEN and q == 2
        if start <= 1 and q % 2 == (family is Family.SO_ODD) and not pair:
            witness = ResolutionWitness(q=q)
        elif pair and start % 2:
            witness = ResolutionWitness(pair_position=(start + 1) // 2)
    answer = Verdict.NO if witness is None else Verdict.YES
    return ResolutionVerdict(answer, Route.CLOSED_FORM, witness, polarizability=None)


def admits_symplectic_resolution(orbit: ClassicalOrbit) -> ResolutionVerdict:
    """Final classical verdict, cross-validated along both routes.

    For sl the closed form stands alone.  For sp/so the closed form and
    the Hesselink degree search must agree; a mismatch raises
    InternalInvariantError instead of preferring either route.  The verdict
    carries the orbit's polarizability, which the search read.
    """
    closed = closed_form_verdict(orbit)
    pol = polarizable(orbit)
    if pol is SL_POLARIZABILITY:
        return _SL_VERDICT
    search_says_yes = resolution_by_search(pol)
    if (closed.answer is Verdict.YES) != search_says_yes:
        raise InternalInvariantError(
            f"closed form says {closed.answer.value} but the degree search says "
            f"{'yes' if search_says_yes else 'no'} for {orbit}"
        )
    return ResolutionVerdict(closed.answer, closed.route, closed.witness, pol)


EXCEPTIONAL_ALGEBRAS = ("G2", "F4", "E6", "E7", "E8")


class ExceptionalRecord(namedtuple("ExceptionalRecord", "algebra label verdict note")):
    """One Bala-Carter labelled orbit with its stored verdict; ``algebra``
    is one of EXCEPTIONAL_ALGEBRAS."""

    __slots__ = ()


_SIMPLY_CONNECTED = "non-even Richardson orbit, simply connected; any polarization collapses with degree one"
_TRIVIAL_COMPONENT = "non-even Richardson orbit with trivial component group; any polarization collapses with degree one"
_ORDER_TWO_OPEN = "non-even Richardson orbit with component group of order 2; no degree-one polarization is known and none is ruled out"

EXCEPTIONAL_TABLE: tuple[ExceptionalRecord, ...] = (
    ExceptionalRecord("F4", "C3", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord("E6", "2A1", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord("E6", "A2+2A1", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord("E6", "A3", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord("E6", "A4+A1", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord("E6", "D5(a1)", Verdict.YES, _SIMPLY_CONNECTED),
    ExceptionalRecord("E7", "D5+A1", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord("E7", "D6(a1)", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord("E7", "D4(a1)+A1", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord("E7", "A4+A1", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord("E7", "D5(a1)", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord("E8", "A4+A2+A1", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord("E8", "A6+A1", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord("E8", "E7(a1)", Verdict.YES, _TRIVIAL_COMPONENT),
    ExceptionalRecord("E8", "D6(a1)", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord("E8", "D7(a2)", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord("E8", "E6(a1)+A1", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
    ExceptionalRecord("E8", "E7(a3)", Verdict.UNKNOWN, _ORDER_TWO_OPEN),
)

NOT_IN_DATABASE_GUIDANCE = (
    "the embedded table lists only the non-even Richardson orbits whose status is settled "
    "or explicitly open; any even orbit admits a resolution through the Springer collapsing "
    "of T*(G/P), but checking evenness or Richardson-ness of other labels needs external "
    "orbit tables"
)


def _normalize_label(label: str) -> str:
    return "".join(label.split()).casefold()


def _coerce_algebra(algebra: str) -> str:
    name = algebra.strip().upper()
    if name not in EXCEPTIONAL_ALGEBRAS:
        raise OrbitresError(f"unknown exceptional algebra {algebra!r} (expected G2, F4, E6, E7 or E8)")
    return name


def lookup_exceptional(algebra: str, label: str) -> ExceptionalRecord:
    """Find the stored record for a Bala-Carter label, or raise.

    Raises OrbitresError for algebras outside G2/F4/E6/E7/E8 and
    NotInDatabase (with guidance) for labels the table does not cover.
    """
    alg = _coerce_algebra(algebra)
    wanted = _normalize_label(label)
    for record in EXCEPTIONAL_TABLE:
        if record.algebra == alg and _normalize_label(record.label) == wanted:
            return record
    raise NotInDatabase(f"{alg} orbit {label!r} is not in the database: {NOT_IN_DATABASE_GUIDANCE}")


def exceptional_records(algebra: str | None = None) -> tuple[ExceptionalRecord, ...]:
    """The embedded table, or the records of one algebra, for audit.

    Raises OrbitresError for an algebra outside G2/F4/E6/E7/E8.
    """
    if algebra is None:
        return EXCEPTIONAL_TABLE
    alg = _coerce_algebra(algebra)
    return tuple(record for record in EXCEPTIONAL_TABLE if record.algebra == alg)
