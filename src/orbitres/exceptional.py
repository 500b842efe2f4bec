"""The exceptional-type verdict table, imported by the ``exceptional``
command alone.  It lists the orbits with a settled or explicitly open
status; everything else is a lookup miss with guidance (NotInDatabase),
never a guess.  An algebra is named by its string in EXCEPTIONAL_ALGEBRAS,
and any other name is bad input (OrbitresError).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import NotInDatabase, OrbitresError
from .resolution import Verdict

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
    "or explicitly open, and does not cover this label; any even orbit admits a resolution "
    "through the Springer collapsing of T*(G/P)"
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
