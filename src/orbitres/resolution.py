"""Symplectic-resolution verdicts: closed forms and cross-checked dispatch.

The closed-form criteria decide, from the partition alone, whether the
orbit closure admits a symplectic resolution:

* sl_n: always;
* sp_2n: iff for some even q >= 0 the first q parts are odd and the rest
  even (q is then necessarily the number of odd parts);
* so_{2n+1}: the same with q odd;
* so_{2n}: the prefix form with even q != 2, or exactly two odd parts
  sitting at positions 2k-1 and 2k.

Both clauses ask the odd parts to fill one block of consecutive positions,
so the closed form takes one step per run of equal parts, as the
partition stores them (``Partition.counts``), and reads neither the
profile nor Hesselink.

For sp/so the dispatcher runs both this closed form and the independent
Hesselink degree search and refuses to return anything if they disagree:
the equivalence of the two routes is a theorem, so a mismatch can only be
an implementation or convention bug.  For sl, which has no degree search
to check against, it returns the closed form's verdict (always yes) before
either route runs.  The exceptional types are looked up in
``orbitres.exceptional``.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .errors import InternalInvariantError
from .hesselink import SL_POLARIZABILITY, polarizable, resolution_by_search
from .orbits import ClassicalOrbit, Family


class Verdict(Enum):
    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


class Route(Enum):
    CLOSED_FORM = "closed_form"
    ALWAYS_SLN = "always_sln"


# members bound once: a global read costs a tenth of a read through the class
_SL, _SO_ODD, _SO_EVEN = Family.SL, Family.SO_ODD, Family.SO_EVEN
_YES, _NO, _CLOSED_FORM = Verdict.YES, Verdict.NO, Route.CLOSED_FORM


class ResolutionWitness(namedtuple("ResolutionWitness", "q pair_position")):
    """Either the prefix length q or the pair index k of the closed form."""

    __slots__ = ()

    def __new__(cls, q: int | None = None, pair_position: int | None = None):
        if (q is None) == (pair_position is None):
            raise InternalInvariantError("exactly one of q and pair_position must be set")
        return tuple.__new__(cls, (q, pair_position))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace runs the gate


class ResolutionVerdict(
    namedtuple("ResolutionVerdict", "answer route witness polarizability")
):
    """An answer, its route and its closed-form witness.

    ``polarizability`` is the Hesselink result the dispatcher checked the
    answer against (sl's trivial result for sl orbits, closed form or not),
    None only for a bare sp/so closed form; it stays out of the JSON form.
    """

    __slots__ = ()

    @property
    def cross_checked(self) -> bool:
        """Whether the Hesselink degree search confirmed the answer: exactly
        when the verdict carries a Hesselink analysis (sp and so)."""
        return self.polarizability is not None and self.polarizability.analysis is not None


# every sl orbit's verdict, from the closed form and the dispatcher alike: immutable, so shared
_SL_VERDICT = ResolutionVerdict(_YES, Route.ALWAYS_SLN, None, SL_POLARIZABILITY)


def closed_form_verdict(orbit: ClassicalOrbit) -> ResolutionVerdict:
    """Resolution verdict from the family's closed-form criterion.

    For sp/so one pass over the runs of equal parts finds the block of odd
    parts at positions start..start+q-1 (start = q = 0 when none is odd),
    and stops where a second block starts, since no clause then holds.  The
    orbit's validation gate already forces q to the family's parity and a
    lone so_{2n} pair of odd parts to an odd start; both checks stay, as
    they restate the paper's clauses."""
    family = orbit.lie_type.family
    if family is _SL:
        return _SL_VERDICT
    witness = None
    start = q = read = 0  # read: the parts before the current run
    for value, count in orbit.partition.counts.items():
        if value % 2:
            if q and start + q <= read:  # an even part sits between: a second block
                break
            start, q = start or read + 1, q + count
        read += count
    else:  # one block at most: the prefix clause, then so_{2n}'s pair clause
        pair = family is _SO_EVEN and q == 2
        if start <= 1 and q % 2 == (family is _SO_ODD) and not pair:
            witness = ResolutionWitness(q)
        elif pair and start % 2:
            witness = ResolutionWitness(pair_position=(start + 1) // 2)
    answer = _NO if witness is None else _YES
    return tuple.__new__(ResolutionVerdict, (answer, _CLOSED_FORM, witness, None))


def admits_symplectic_resolution(orbit: ClassicalOrbit) -> ResolutionVerdict:
    """Final classical verdict, cross-validated along both routes.

    For sl the closed form stands alone: its verdict is returned before
    either route runs.  For sp/so both routes run, and the closed form and
    the Hesselink degree search must agree; a mismatch raises
    InternalInvariantError instead of preferring either route.  The verdict
    carries the orbit's polarizability, which the search read.
    """
    if orbit.lie_type.family is _SL:
        return _SL_VERDICT
    closed = closed_form_verdict(orbit)
    pol = polarizable(orbit)
    search_says_yes = resolution_by_search(pol)
    if (closed.answer is _YES) != search_says_yes:
        raise InternalInvariantError(
            f"closed form says {closed.answer.value} but the degree search says "
            f"{'yes' if search_says_yes else 'no'} for {orbit}"
        )
    return tuple.__new__(ResolutionVerdict, (closed.answer, closed.route, closed.witness, pol))
