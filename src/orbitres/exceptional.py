"""The exceptional-type verdict table and the ``exceptional`` command's text,
imported by that command alone.  It lists the orbits with a settled or
explicitly open status, keyed once by algebra and normalized label; any other
label is a lookup miss with guidance (NotInDatabase), never a guess.  An
algebra is named by its string in EXCEPTIONAL_ALGEBRAS, and any other name is
bad input (OrbitresError)."""

from __future__ import annotations

import json
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


_BY_LABEL = {(r.algebra, _normalize_label(r.label)): r for r in EXCEPTIONAL_TABLE}


def _coerce_algebra(algebra: str) -> str:
    name = algebra.strip().upper()
    if name not in EXCEPTIONAL_ALGEBRAS:
        *most, last = EXCEPTIONAL_ALGEBRAS
        raise OrbitresError(f"unknown exceptional algebra {algebra!r} (expected {', '.join(most)} or {last})")
    return name


def _find(name: str, label: str) -> ExceptionalRecord:
    record = _BY_LABEL.get((name, _normalize_label(label)))
    if record is None:
        raise NotInDatabase(f"{name} orbit {label!r} is not in the database: {NOT_IN_DATABASE_GUIDANCE}")
    return record


def lookup_exceptional(algebra: str, label: str) -> ExceptionalRecord:
    """The stored record of a Bala-Carter label; a miss raises NotInDatabase with guidance."""
    return _find(_coerce_algebra(algebra), label)


def exceptional_records(algebra: str | None = None) -> tuple[ExceptionalRecord, ...]:
    """The embedded table, or the records of one algebra, for audit."""
    if algebra is None:
        return EXCEPTIONAL_TABLE
    name = _coerce_algebra(algebra)
    return tuple(record for record in EXCEPTIONAL_TABLE if record.algebra == name)


def exceptional_answer(algebra: str, label: str) -> str:
    """The ``exceptional`` command's text: the record's line, or the miss line and guidance."""
    name = _coerce_algebra(algebra)
    try:
        record = _find(name, label)
    except NotInDatabase as exc:
        return f"{name} {label}: not in database\n{exc}"
    return f"{record.algebra} {record.label}: {record.verdict.value}  ({record.note})"


def exceptional_export(algebra: str | None = None) -> str:
    """``exceptional_records(algebra)`` as JSON text, each record from its own fields."""
    return json.dumps([{**r._asdict(), "verdict": r.verdict.value}
                       for r in exceptional_records(algebra)], indent=2)
