"""Assembly of full per-orbit reports and their text/JSON/table renderings.

A report bundles everything the package can say about one orbit: dimension,
Picard group, the Q-factoriality certificate read off it, factoriality,
and the cross-checked resolution verdict with the polarizability it
checked.  The renderings read the orbit's own profile, runs
(``orbit.partition.counts``) and evenness (``is_even_orbit``).  Every JSON
layout of the CLI is written here alone.  ``report_json`` streams an
orbit's JSON text, byte-identical to ``json.dumps(indent=2)``, by filling
the ``%`` templates of its algebra from the report, joining the texts of
its runs, and writing the per-q Hesselink records from their runs: no
rendering expands the parts or builds the dual partition.  The text that
does not depend on the orbit is written once per algebra: ``atlas_json``
uses one frame (``_JsonFrame``) for all of an atlas's orbits, a lone
``report_json`` builds its own, and nothing is kept across calls.  Each
atlas writer writes an orbit as its iterable of reports yields it.
``exceptional_json`` gives the exceptional table as dicts for
``json.dumps``.
"""

from __future__ import annotations

import csv
import sys
from collections import namedtuple
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .errors import OrbitresError
from .hesselink import RecordRuns, admissible_reports
from .orbits import ClassicalOrbit, is_even_orbit, orbit_dimension
from .picard import is_factorial, picard, q_factorial_certificate
from .resolution import Verdict, admits_symplectic_resolution


class OrbitReport(
    namedtuple("OrbitReport", "orbit dimension picard q_factorial factorial resolution")
):
    """Every answer about one orbit: the orbit, its dimension, its Picard
    group (an AbelianGroupDescriptor), the QFactorialCertificate read off
    it, factoriality (None for the zero orbit, which the criterion
    excludes) and the cross-checked ResolutionVerdict."""

    __slots__ = ()


def build_report(orbit: ClassicalOrbit) -> OrbitReport:
    """Run every analysis on one orbit and bundle the results."""
    group = picard(orbit)
    return tuple.__new__(OrbitReport, (orbit, orbit_dimension(orbit), group,
                                       q_factorial_certificate(group), is_factorial(orbit),
                                       admits_symplectic_resolution(orbit)))


def report_json(report: OrbitReport, out, *, frame: _JsonFrame | None = None) -> None:
    """Write to the text stream ``out`` the text of ``json.dumps(<the report
    as a JSON object>, indent=2)``, straight from the report.

    ``frame`` is the ``_JsonFrame`` of the orbit's algebra, which also
    sets the indentation the object sits at (an atlas writes each orbit as
    an item of its array); a lone report builds its own, at the top level.
    Strings go through the stdlib's ASCII encoder; every other value is an
    int, a bool or None.  Every check, ``MAX_JSON_BYTES`` included, raises
    before the first character is written.
    """
    orbit = report.orbit
    verdict = report.resolution
    pol = verdict.polarizability
    records = admissible_reports(pol)
    analysis = pol.analysis
    partition = orbit.partition
    runs = partition.counts
    n, d1 = sum(runs.values()), next(iter(runs))
    width = len(str(d1))  # the "s" keys 1..d1 have width * (d1 + 1) - (10 ** width - 1) // 9 digits
    # a lower bound on the text from O(k) facts: a record takes 100 characters and 10 more for
    # each position in its J and B, a part 6, an "s" entry 12 and its key's digits
    try:
        listed = 0 if analysis is None else sum(map(len, analysis.J)) + len(analysis.B)
        floor = len(records) * (100 + 10 * listed)
    except OverflowError:  # more records or positions than len() counts, each a character at least
        floor = sys.maxsize
    floor += 6 * n + 12 * d1 + width * (d1 + 1) - (10 ** width - 1) // 9
    if floor > MAX_JSON_BYTES:
        raise OrbitresError(f"the JSON report of {orbit} takes at least {floor} bytes, over "
                            f"its limit of {MAX_JSON_BYTES}; the text report has no limit")
    if frame is None:
        frame = _JsonFrame(orbit.lie_type, "\n")
    label, prof = orbit.very_even_label, orbit.profile
    even = _LITERAL[is_even_orbit(orbit)]
    group = report.picard
    torsion, extension = group.torsion, group.unresolved_extension
    witness, witnesses = verdict.witness, pol.witnesses
    long = n + d1 > _PIECE  # if so, runs go in blocks, pieces out one by one: nothing long copied
    items = _cut(runs) if long else iter(runs.items())
    part_runs = frame.part_runs  # the first run's text without its comma follows the opening
    pieces = [frame.opening, part_runs[next(items)][1:], *map(part_runs.__getitem__, items)]
    # (*pairs,), not tuple(pairs): tuple() of an iterator parks a shrunk tuple in a free list
    pieces.append(frame.profile % (
        _str(partition.compact_str()), "null" if label is None else _str(label.value),
        prof.k, prof.c, prof.a, prof.b, prof.l, _LITERAL[prof.rather_odd], even,
        frame.r[len(runs)] % (*chain.from_iterable(reversed(runs.items())),)))
    below, at_least = 0, n
    for value, count in reversed(runs.items()):  # s_i = at_least for below < i <= value
        pieces.append(frame.s[below, value, at_least])
        below, at_least = value, at_least - count
    pieces.append(frame.head % (
        even, report.dimension, group.free_rank, frame.torsion[len(torsion)] % torsion,
        "null" if extension is None else frame.extension % extension.kernel_exponent,
        _LITERAL[group.is_trivial], _str(report.q_factorial.value), _LITERAL[report.factorial],
        _LITERAL[pol.polarizable],
        frame.witnesses[len(witnesses)] % (*chain.from_iterable((w.q, w.N_P) for w in witnesses),)
        if witnesses else "[]"))
    if long:
        out.writelines(pieces)
        pieces = []
    size = 0  # the pieces are joined until they pass _PIECE characters: often one write
    for text in _hesselink_texts(records, analysis, frame) if records else ("[]",):
        pieces.append(text)
        size += len(text)
        if size > _PIECE:
            out.write("".join(pieces))
            pieces, size = [], 0
    pieces.append(frame.tail % (
        _str(verdict.answer.value), _str(verdict.route.value),
        "null" if witness is None else frame.q_witness % witness.q if witness.q is not None
        else frame.pair_witness % witness.pair_position, _LITERAL[verdict.cross_checked]))
    out.write("".join(pieces))


def atlas_json(reports, out) -> None:
    """Write an iterable of reports to the text stream ``out`` as the text
    of ``json.dumps(<their list>, indent=2)`` and a newline, one report at a
    time as the iterable yields it: when producing a report raises, ``out``
    holds the array so far, unclosed.  One ``_JsonFrame`` serves every
    report of an algebra."""
    frame = None
    separator = "["
    for report in reports:
        if frame is None or frame.lie_type != report.orbit.lie_type:
            frame = _JsonFrame(report.orbit.lie_type, "\n  ")
        out.write(separator + "\n  ")
        report_json(report, out, frame=frame)
        separator = ","
    out.write("[]\n" if separator == "[" else "\n]\n")


def _hesselink_texts(records: RecordRuns, analysis, frame: _JsonFrame):
    """The orbit's "hesselink" array, one record at a time.  Each record
    repeats J (its runs written out), j1, j0 and B between its q and its u,
    a text made once per orbit."""
    J, B = (*chain.from_iterable(analysis.J),), analysis.B
    j1 = '"-inf"' if analysis.j1 is None else analysis.j1
    shared = frame.shared % (frame.positions[len(J)] % J, j1, analysis.j0,
                             frame.positions[len(B)] % B)
    head, separator = frame.record_head, "["
    # each record's q, u and the text after u, which in the image holds its N_P
    off = repeat(frame.off_image)
    below, above = ([zip(qs, us, off) for qs, us in runs]
                    for runs in (records.below, records.above))
    image = ((w.q, w.u, frame.in_image % w.N_P) for w in records.witnesses)
    for q, u, end in chain(*below, image, *above):
        yield f"{separator}{head}{q}{shared}{u}{end}"
        separator = ","
    yield frame.records_end


_PIECE = 1 << 16
MAX_JSON_BYTES = 1 << 28  # a JSON report whose lower bound in report_json passes it exits 2
_str = encode_basestring_ascii
_LITERAL = {True: "true", False: "false", None: "null"}  # bool and None values only


class _Texts(dict):
    """JSON texts by key, each made by ``make(key)`` when first asked for."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _formats(nl: str, entry: str = "%d", brackets: str = "[]") -> _Texts:
    """The ``%`` formats, by length, of the arrays (objects, for "{}") of ``entry`` at ``nl``."""
    inner, (left, right) = nl + "  ", brackets
    return _Texts(lambda n: f"{left}{inner}{(',' + inner).join([entry] * n)}{nl}{right}"
                  if n else brackets)


def _cut(runs):
    """The runs (value, count) of ``runs``, each cut into runs of at most ``_PIECE`` parts."""
    for value, count in runs.items():
        yield from repeat((value, _PIECE), (count - 1) // _PIECE)
        yield value, (count - 1) % _PIECE + 1


def _stretch(nl: str, below: int, end: int, value: int) -> str:
    """The "s" entries ``value`` of the keys after ``below`` up to ``end`` at ``nl``, made
    ``_PIECE`` keys at a time; the first entry of the map takes no comma."""
    if end - below > _PIECE:
        return "".join([_stretch(nl, start, min(start + _PIECE, end), value)
                        for start in range(below, end, _PIECE)])
    text = (f',{nl}"%d": {value}' * (end - below)) % (*range(below + 1, end + 1),)
    return text if below else text[1:]


class _JsonFrame:
    """The JSON text of one algebra's orbits that does not depend on the
    orbit, at the indentation of ``nl``: the object up to its parts; the
    parts by run (value, count); the "s" map by stretch (below, end,
    value), the keys after one part value up to the next sharing a value;
    ``%`` formats of the other arrays and maps by length, and ``%``
    templates for the rest.  It lives as long as the call that built it."""

    def __init__(self, lie_type, nl: str):
        i1, i2, i3, i4 = (nl + "  " * depth for depth in range(1, 5))
        self.lie_type = lie_type
        self.opening = (f'{{{i1}"algebra": {_str(lie_type.name)}'
                        f',{i1}"cartan_type": {_str(lie_type.cartan_label)}'
                        f',{i1}"family": {_str(lie_type.family.value)},{i1}"m": {lie_type.m}'
                        f',{i1}"partition": [')
        self.part_runs = _Texts(lambda run: f",{i2}{run[0]}" * run[1])
        self.s = _Texts(lambda stretch: _stretch(i3, *stretch))
        self.r = _formats(i2, '"%d": %d', "{}")  # from (value, count) pairs
        self.torsion = _formats(i2)
        self.positions = _formats(i3)  # J and B
        self.witnesses = _formats(i2, f'{{{i4}"q": %d,{i4}"N_P": %d{i3}}}')  # from (q, N_P) pairs
        self.extension = f'{{{i3}"kernel_exponent": %d{i2}}}'
        self.q_witness = f'{{{i3}"q": %d{i2}}}'
        self.pair_witness = f'{{{i3}"pair_position": %d{i2}}}'
        self.shared = f',{i3}"J": %s,{i3}"j1": %s,{i3}"j0": %d,{i3}"B": %s,{i3}"u": "'
        self.record_head = f'{i2}{{{i3}"q": '  # a record: head, q, shared text, u, end
        self.in_image = f'",{i3}"in_image": true,{i3}"N_P": %d{i2}}}'
        self.off_image = f'",{i3}"in_image": false,{i3}"N_P": null{i2}}}'
        self.records_end = f"{i1}]"
        self.profile = (
            f'{i1}],{i1}"partition_compact": %s,{i1}"very_even_label": %s'
            f',{i1}"profile": {{{i2}"k": %d,{i2}"c": %d,{i2}"a": %d,{i2}"b": %d,{i2}"l": %d'
            f',{i2}"rather_odd": %s,{i2}"all_same_parity": %s,{i2}"r": %s,{i2}"s": {{')
        self.head = (
            f'{i2}}}{i1}}},{i1}"even_orbit": %s,{i1}"dimension": %d'
            f',{i1}"picard": {{{i2}"free_rank": %d,{i2}"torsion": %s'
            f',{i2}"unresolved_extension": %s,{i2}"trivial": %s{i1}}}'
            f',{i1}"q_factorial_certificate": %s,{i1}"factorial": %s'
            f',{i1}"polarizable": {{{i2}"polarizable": %s,{i2}"witnesses": %s{i1}}}'
            f',{i1}"hesselink": ')
        self.tail = (f',{i1}"resolution": {{{i2}"answer": %s,{i2}"route": %s,{i2}"witness": %s'
                     f',{i2}"cross_checked": %s{i1}}}{nl}}}')


def exceptional_json(records: tuple) -> list[dict]:
    """The exported exceptional table, one dict per ``ExceptionalRecord``
    (``orbitres.exceptional``)."""
    return [
        {"algebra": r.algebra, "label": r.label, "verdict": r.verdict.value, "note": r.note}
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
        + (f"  (very even, label {orbit.very_even_label.value})" if orbit.very_even_label else ""),
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


def atlas_markdown(reports, title: str, out) -> None:
    """Write the reports to the text stream ``out`` as a markdown table headed
    ``title``, a row as each is yielded (as ``atlas_json`` does), then the
    count of orbits and of YES answers."""
    out.write(f"# {title}\n\n| {' | '.join(_ATLAS_COLUMNS)} |\n|{'---|' * len(_ATLAS_COLUMNS)}\n")
    orbits = yes = 0
    for orbits, report in enumerate(reports, 1):
        out.write("| " + " | ".join(_atlas_row(report)) + " |\n")
        yes += report.resolution.answer is Verdict.YES
    out.write(f"\n{orbits} orbits, {yes} admit a symplectic resolution, {orbits - yes} do not.\n")


def atlas_csv(reports, out) -> None:
    """The same as CSV: the header, then a row as each report is yielded."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_ATLAS_COLUMNS)
    writer.writerows(map(_atlas_row, reports))
