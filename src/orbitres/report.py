"""Assembly of full per-orbit reports and their text/JSON/table renderings.

A report bundles everything the package can say about one orbit: dimension,
Picard group, the Q-factoriality certificate read off it, factoriality,
and the cross-checked resolution verdict with the polarizability it
checked.  The renderings read the orbit's own profile, multiplicities
(``orbit.partition.counts``) and evenness (``is_even_orbit``).  Every JSON
layout of the CLI is written here alone.  ``report_json`` renders an
orbit's JSON text straight from its report, one template byte-identical to
``json.dumps(indent=2)``, and alone builds the per-q Hesselink records and
the dual partition; the text and table renderings build neither.
``atlas_json`` streams an atlas's array of them, and ``exceptional_json``
gives the exceptional table as dicts for ``json.dumps``.
"""

from __future__ import annotations

import csv
import io
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .hesselink import PolarizabilityResult, admissible_reports
from .orbits import ClassicalOrbit, is_even_orbit, orbit_dimension
from .picard import (
    AbelianGroupDescriptor,
    QFactorialCertificate,
    is_factorial,
    picard,
    q_factorial_certificate,
)
from .resolution import ExceptionalRecord, ResolutionVerdict, Verdict, admits_symplectic_resolution


class OrbitReport(NamedTuple):
    orbit: ClassicalOrbit
    dimension: int
    picard: AbelianGroupDescriptor
    q_factorial: QFactorialCertificate
    factorial: bool | None  # None for the zero orbit, which the criterion excludes
    resolution: ResolutionVerdict


def build_report(orbit: ClassicalOrbit) -> OrbitReport:
    """Run every analysis on one orbit and bundle the results."""
    group = picard(orbit)
    return OrbitReport(
        orbit=orbit,
        dimension=orbit_dimension(orbit),
        picard=group,
        q_factorial=q_factorial_certificate(group),
        factorial=is_factorial(orbit),
        resolution=admits_symplectic_resolution(orbit),
    )


def report_json(report: OrbitReport, nl: str = "\n") -> str:
    """The text of ``json.dumps(<the report as a JSON object>, indent=2)``,
    written straight from the report.

    ``nl`` is a newline followed by the indentation the object sits at, so
    an atlas can write each orbit as an item of its array.  Strings go
    through the stdlib's ASCII encoder; every other value is an int, a bool
    or None, written in place.  The per-q Hesselink records are built here
    alone, by ``admissible_reports``, and so is the dual partition ``s``.
    """
    orbit = report.orbit
    label = orbit.very_even_label
    prof = orbit.profile
    even = _LITERAL[is_even_orbit(orbit)]
    group = report.picard
    extension = group.unresolved_extension
    verdict = report.resolution
    witness = verdict.witness
    pol = verdict.polarizability
    i1 = nl + "  "
    i2 = i1 + "  "
    i3 = i2 + "  "
    i4 = i3 + "  "
    if extension is None:
        extension_text = "null"
    else:
        extension_text = f'{{{i3}"kernel_exponent": {extension.kernel_exponent}{i2}}}'
    if pol.witnesses:
        witnesses = ("," + i3).join(
            f'{{{i4}"q": {w.q},{i4}"N_P": {w.N_P}{i3}}}' for w in pol.witnesses)
        witnesses = f"[{i3}{witnesses}{i2}]"
    else:
        witnesses = "[]"
    if witness is None:
        witness_text = "null"
    elif witness.q is not None:
        witness_text = f'{{{i3}"q": {witness.q}{i2}}}'
    else:
        witness_text = f'{{{i3}"pair_position": {witness.pair_position}{i2}}}'
    return (
        f'{{{i1}"algebra": {_str(orbit.lie_type.name)}'
        f',{i1}"cartan_type": {_str(orbit.lie_type.cartan_label)}'
        f',{i1}"family": {_str(orbit.family.value)}'
        f',{i1}"m": {orbit.m}'
        f',{i1}"partition": {_ints(orbit.partition.parts, i1)}'
        f',{i1}"partition_compact": {_str(orbit.partition.compact_str())}'
        f',{i1}"very_even_label": {"null" if label is None else _str(label.value)}'
        f',{i1}"profile": {{{i2}"k": {prof.k},{i2}"c": {prof.c},{i2}"a": {prof.a}'
        f',{i2}"b": {prof.b},{i2}"l": {prof.l},{i2}"rather_odd": {_LITERAL[prof.rather_odd]}'
        f',{i2}"all_same_parity": {even}'
        f',{i2}"r": {_int_map(reversed(orbit.partition.counts.items()), i2)}'
        f',{i2}"s": {_int_map(enumerate(orbit.partition.dual(), start=1), i2)}{i1}}}'
        f',{i1}"even_orbit": {even}'
        f',{i1}"dimension": {report.dimension}'
        f',{i1}"picard": {{{i2}"free_rank": {group.free_rank}'
        f',{i2}"torsion": {_ints(group.torsion, i2)},{i2}"unresolved_extension": {extension_text}'
        f',{i2}"trivial": {_LITERAL[group.is_trivial]}{i1}}}'
        f',{i1}"q_factorial_certificate": {_str(report.q_factorial.value)}'
        f',{i1}"factorial": {_LITERAL[report.factorial]}'
        f',{i1}"polarizable": {{{i2}"polarizable": {_LITERAL[pol.polarizable]}'
        f',{i2}"witnesses": {witnesses}{i1}}}'
        f',{i1}"hesselink": {_hesselink_json(pol, i1)}'
        f',{i1}"resolution": {{{i2}"answer": {_str(verdict.answer.value)}'
        f',{i2}"route": {_str(verdict.route.value)},{i2}"witness": {witness_text}'
        f',{i2}"cross_checked": {_LITERAL[verdict.cross_checked]}{i1}}}'
        f"{nl}}}"
    )


def atlas_json(reports, out) -> None:
    """Write an iterable of reports to the text stream ``out`` as the text
    of ``json.dumps(<their list>, indent=2)`` and a newline, one report at a
    time as the iterable yields it: when producing a report raises, ``out``
    holds the array so far, unclosed."""
    separator = "["
    for report in reports:
        out.write(separator + "\n  " + report_json(report, "\n  "))
        separator = ","
    out.write("[]\n" if separator == "[" else "\n]\n")


def _hesselink_json(pol: PolarizabilityResult, nl: str) -> str:
    """The array of per-q records, one per admissible q, at the indentation
    of ``nl``.  Every record repeats the analysis's J, j1, j0 and B between
    its q and its u.  That text is written once per orbit and joined in
    between the pieces around it: one record's tail with the next one's
    head, both written from texts made once per orbit."""
    records = admissible_reports(pol)
    if not records:
        return "[]"
    analysis = pol.analysis
    i1 = nl + "  "
    i2 = i1 + "  "
    j1 = '"-inf"' if analysis.j1 is None else analysis.j1
    shared = (
        f',{i2}"J": {_ints(analysis.J, i2)},{i2}"j1": {j1},{i2}"j0": {analysis.j0}'
        f',{i2}"B": {_ints(analysis.B, i2)},{i2}"u": "'
    )
    head = f'{{{i2}"q": '
    in_image = f'",{i2}"in_image": true,{i2}"N_P": '
    off_image = f'",{i2}"in_image": false,{i2}"N_P": null'
    between = f"{i1}}},{i1}{head}"  # closes one record and opens the next, up to its q
    pieces = [f"[{i1}{head}{records[0].q}"]
    pieces += [
        f"{r.u}{in_image}{r.N_P}{between}{nxt.q}" if r.in_image
        else f"{r.u}{off_image}{between}{nxt.q}"
        for r, nxt in zip(records, records[1:])
    ]
    last = records[-1]
    tail = f"{last.u}{in_image}{last.N_P}" if last.in_image else f"{last.u}{off_image}"
    pieces.append(f"{tail}{i1}}}{nl}]")
    return shared.join(pieces)


_str = encode_basestring_ascii
_LITERAL = {True: "true", False: "false", None: "null"}  # bool and None values only


def _ints(values, nl: str) -> str:
    """An array of ints at the indentation of ``nl``."""
    if not values:
        return "[]"
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(map(int.__repr__, values))}{nl}]"


def _int_map(pairs, nl: str) -> str:
    """An object from (int key, int count) pairs, keys ascending, each key
    written as a string."""
    inner = nl + "  "
    return "{" + inner + ("," + inner).join(
        f'"{key}": {count}' for key, count in pairs) + nl + "}"


def exceptional_json(records: tuple[ExceptionalRecord, ...]) -> list[dict]:
    """The exported exceptional table, one dict per record."""
    return [
        {"algebra": r.algebra.value, "label": r.label, "verdict": r.verdict.value, "note": r.note}
        for r in records
    ]


def _witness_text(report: OrbitReport) -> str:
    witness = report.resolution.witness
    if witness is None:
        return "-"
    if witness.q is not None:
        return f"q={witness.q}"
    return f"pair at positions {2 * witness.pair_position - 1},{2 * witness.pair_position}"


def _polarizable_text(report: OrbitReport) -> str:
    pol = report.resolution.polarizability
    if not pol.polarizable:
        return "no"
    if not pol.witnesses:
        return "yes (every sl orbit is polarizable)"
    degrees = ", ".join(f"q={w.q} (degree {w.N_P})" for w in pol.witnesses)
    return f"yes: {degrees}"


def report_text(report: OrbitReport) -> str:
    """Human-readable multi-line rendering of one report."""
    orbit = report.orbit
    prof = orbit.profile
    verdict = report.resolution
    lines = [
        f"{orbit.lie_type.name} {orbit.partition}"
        + (f"  (very even, label {orbit.very_even_label.value})" if orbit.is_very_even else ""),
        f"  cartan type    {orbit.lie_type.cartan_label}",
        f"  dimension      {report.dimension}",
        f"  even orbit     {'yes' if is_even_orbit(orbit) else 'no'}",
        f"  profile        k={prof.k} c={prof.c} a={prof.a} b={prof.b} l={prof.l}"
        f" rather_odd={'yes' if prof.rather_odd else 'no'}",
        f"  picard         {report.picard}",
        f"  q-factorial    {report.q_factorial.value}",
        f"  factorial      "
        + ("n/a (zero orbit)" if report.factorial is None else ("yes" if report.factorial else "no")),
        f"  polarizable    {_polarizable_text(report)}",
        f"  resolution     {verdict.answer.value}"
        + (f", witness {_witness_text(report)}" if verdict.witness is not None else "")
        + f"  [route {verdict.route.value}"
        + (", cross-checked]" if verdict.cross_checked else "]"),
    ]
    return "\n".join(lines)


_ATLAS_COLUMNS = (
    "partition", "label", "dim", "even", "k", "c", "a", "b", "l", "rather_odd",
    "picard", "q_factorial", "factorial", "polarizable", "witnesses", "resolution", "witness",
)


def _atlas_row(report: OrbitReport) -> tuple[str, ...]:
    """One atlas row, its cells in ``_ATLAS_COLUMNS`` order."""
    orbit = report.orbit
    prof = orbit.profile
    pol = report.resolution.polarizability
    return (
        orbit.partition.compact_str(),
        orbit.very_even_label.value if orbit.very_even_label else "",
        str(report.dimension),
        "yes" if is_even_orbit(orbit) else "no",
        str(prof.k),
        str(prof.c),
        str(prof.a),
        str(prof.b),
        str(prof.l),
        "yes" if prof.rather_odd else "no",
        str(report.picard),
        report.q_factorial.value,
        "n/a" if report.factorial is None else ("yes" if report.factorial else "no"),
        "yes" if pol.polarizable else "no",
        ";".join(f"{w.q}:{w.N_P}" for w in pol.witnesses),
        report.resolution.answer.value,
        _witness_text(report),
    )


def atlas_markdown(reports: list[OrbitReport], title: str) -> str:
    lines = [f"# {title}", ""]
    lines.append("| " + " | ".join(_ATLAS_COLUMNS) + " |")
    lines.append("|" + "|".join("---" for _ in _ATLAS_COLUMNS) + "|")
    for report in reports:
        lines.append("| " + " | ".join(_atlas_row(report)) + " |")
    yes = sum(1 for r in reports if r.resolution.answer is Verdict.YES)
    lines.append("")
    lines.append(f"{len(reports)} orbits, {yes} admit a symplectic resolution, {len(reports) - yes} do not.")
    return "\n".join(lines)


def atlas_csv(reports: list[OrbitReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_ATLAS_COLUMNS)
    writer.writerows(map(_atlas_row, reports))
    return buffer.getvalue()
