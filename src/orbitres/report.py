"""Assembly of full per-orbit reports and their text/JSON/table renderings.

A report bundles everything the package can say about one orbit: profile
statistics, dimension, Picard group, factoriality, polarization witnesses,
the per-q Hesselink records, and the cross-checked resolution verdict.
The JSON form round-trips losslessly and is the schema the CLI emits;
``json_text`` writes it, and every other JSON output of the CLI.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from .hesselink import HesselinkReport, admissible_reports
from .orbits import ClassicalOrbit, PartitionProfile, orbit_dimension, profile
from .picard import (
    AbelianGroupDescriptor,
    QFactorialCertificate,
    is_factorial,
    picard,
    q_factorial_certificate,
)
from .resolution import ResolutionVerdict, Verdict, admits_symplectic_resolution


@dataclass(frozen=True)
class OrbitReport:
    orbit: ClassicalOrbit
    profile: PartitionProfile
    dimension: int
    picard: AbelianGroupDescriptor
    q_factorial: QFactorialCertificate
    factorial: bool | None  # None for the zero orbit, which the criterion excludes
    hesselink: tuple[HesselinkReport, ...]
    resolution: ResolutionVerdict


def build_report(orbit: ClassicalOrbit) -> OrbitReport:
    """Run every analysis on one orbit and bundle the results.

    The profile is computed once and handed to every formula that reads it;
    the per-q records are read off the polarizability that the resolution
    verdict carries.
    """
    prof = profile(orbit)
    resolution = admits_symplectic_resolution(orbit)
    return OrbitReport(
        orbit=orbit,
        profile=prof,
        dimension=orbit_dimension(orbit),
        picard=picard(orbit, prof),
        q_factorial=q_factorial_certificate(orbit, prof),
        factorial=None if orbit.is_zero else is_factorial(orbit),
        hesselink=admissible_reports(resolution.polarizability),
        resolution=resolution,
    )


def report_json(report: OrbitReport) -> dict:
    """JSON-ready dict; every value is a native JSON type."""
    orbit = report.orbit
    prof = report.profile
    pol = report.resolution.polarizability
    return {
        "algebra": orbit.lie_type.name,
        "cartan_type": orbit.lie_type.cartan_label,
        "family": orbit.family.value,
        "m": orbit.m,
        "partition": list(orbit.partition.parts),
        "partition_compact": orbit.partition.compact_str(),
        "very_even_label": None if orbit.very_even_label is None else orbit.very_even_label.value,
        "profile": {
            "k": prof.k,
            "c": prof.c,
            "a": prof.a,
            "b": prof.b,
            "l": prof.l,
            "rather_odd": prof.rather_odd,
            "all_same_parity": prof.all_same_parity,
            "r": {str(i): count for i, count in sorted(prof.r.items())},
            "s": {str(i): count for i, count in sorted(prof.s.items())},
        },
        "even_orbit": prof.all_same_parity,
        "dimension": report.dimension,
        "picard": report.picard.to_json_dict(),
        "q_factorial_certificate": report.q_factorial.value,
        "factorial": report.factorial,
        "polarizable": {
            "polarizable": pol.polarizable,
            "witnesses": [{"q": w.q, "N_P": w.N_P} for w in pol.witnesses],
        },
        "hesselink": [h.to_json_dict() for h in report.hesselink],
        "resolution": report.resolution.to_json_dict(),
    }


def json_text(obj, nl: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2)``, byte for byte.

    ``nl`` is a newline followed by the indentation ``obj`` sits at, so an
    item of an enclosing array can be rendered and written on its own.
    ``obj`` is a tree of dict (str keys), list, str, int, bool and None,
    exact types only; anything else, tuples and floats included, raises
    TypeError.  Scalars are rendered in their parent's loop, a list of
    plain ints with one join, and each such list once per call at each
    indentation: the per-q Hesselink records of an orbit all repeat the
    same J and B lists.
    """
    return _item_texts([obj], nl, {})[0]


def _item_texts(values, nl: str, memo: dict) -> list[str]:
    """The text of each value at the indentation of ``nl``."""
    texts = []
    for value in values:
        kind = type(value)
        if kind is str:
            texts.append(encode_basestring_ascii(value))
        elif kind is int:
            texts.append(int.__repr__(value))
        elif value is None:
            texts.append("null")
        elif value is True:
            texts.append("true")
        elif value is False:
            texts.append("false")
        elif kind is dict or kind is list:
            texts.append(_container_text(value, nl, memo))
        else:
            raise TypeError(f"the JSON writer does not take {kind.__name__}")
    return texts


def _container_text(obj: dict | list, nl: str, memo: dict) -> str:
    """One dict or list at the indentation of ``nl``.  ``memo`` maps the
    indentation and values of an all-int list to its text."""
    inner = nl + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        if set(map(type, obj)) != {str}:
            raise TypeError("the JSON writer takes str object keys only")
        texts = _item_texts(obj.values(), inner, memo)
        items = (encode_basestring_ascii(key) + ": " + text for key, text in zip(obj, texts))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if not obj:
        return "[]"
    if set(map(type, obj)) == {int}:  # bools are not ints here
        key = (nl, *obj)
        text = memo.get(key)
        if text is None:
            text = memo[key] = "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + nl + "]"
        return text
    return "[" + inner + ("," + inner).join(_item_texts(obj, inner, memo)) + nl + "]"


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
    prof = report.profile
    verdict = report.resolution
    lines = [
        f"{orbit.lie_type.name} {orbit.partition}"
        + (f"  (very even, label {orbit.very_even_label.value})" if orbit.is_very_even else ""),
        f"  cartan type    {orbit.lie_type.cartan_label}",
        f"  dimension      {report.dimension}",
        f"  even orbit     {'yes' if prof.all_same_parity else 'no'}",
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
    "partition",
    "label",
    "dim",
    "even",
    "k",
    "c",
    "a",
    "b",
    "l",
    "rather_odd",
    "picard",
    "q_factorial",
    "factorial",
    "polarizable",
    "witnesses",
    "resolution",
    "witness",
)


def _atlas_row(report: OrbitReport) -> dict[str, str]:
    orbit = report.orbit
    prof = report.profile
    pol = report.resolution.polarizability
    return {
        "partition": orbit.partition.compact_str(),
        "label": orbit.very_even_label.value if orbit.very_even_label else "",
        "dim": str(report.dimension),
        "even": "yes" if prof.all_same_parity else "no",
        "k": str(prof.k),
        "c": str(prof.c),
        "a": str(prof.a),
        "b": str(prof.b),
        "l": str(prof.l),
        "rather_odd": "yes" if prof.rather_odd else "no",
        "picard": str(report.picard),
        "q_factorial": report.q_factorial.value,
        "factorial": "n/a" if report.factorial is None else ("yes" if report.factorial else "no"),
        "polarizable": "yes" if pol.polarizable else "no",
        "witnesses": ";".join(f"{w.q}:{w.N_P}" for w in pol.witnesses),
        "resolution": report.resolution.answer.value,
        "witness": _witness_text(report),
    }


def atlas_markdown(reports: list[OrbitReport], title: str) -> str:
    lines = [f"# {title}", ""]
    lines.append("| " + " | ".join(_ATLAS_COLUMNS) + " |")
    lines.append("|" + "|".join("---" for _ in _ATLAS_COLUMNS) + "|")
    for report in reports:
        row = _atlas_row(report)
        lines.append("| " + " | ".join(row[c] for c in _ATLAS_COLUMNS) + " |")
    yes = sum(1 for r in reports if r.resolution.answer is Verdict.YES)
    lines.append("")
    lines.append(f"{len(reports)} orbits, {yes} admit a symplectic resolution, {len(reports) - yes} do not.")
    return "\n".join(lines)


def atlas_csv(reports: list[OrbitReport]) -> str:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=_ATLAS_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for report in reports:
        writer.writerow(_atlas_row(report))
    return buffer.getvalue()
