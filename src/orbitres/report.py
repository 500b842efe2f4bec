"""Assembly of full per-orbit reports and their text/JSON/table renderings.

A report bundles everything the package can say about one orbit: dimension,
Picard group, factoriality, and the cross-checked resolution verdict with
the polarizability it checked.  The renderings read the Q-factoriality
certificate off the Picard group they show, and the orbit's own profile,
runs (``orbit.partition.counts``) and evenness (``is_even_orbit``).  It
renders classical orbits only, and every JSON layout of an orbit is written
here alone.  ``report_json`` streams an orbit's JSON text, byte-identical to
``json.dumps(indent=2)``, by filling ``%`` templates, joining the texts of
its runs, and writing the per-q Hesselink records from their runs: no
rendering expands the parts or builds the dual partition.  The templates
depend on the indentation alone and are made once per process for each of
the two (``_LAYOUTS``).  The texts of the values an atlas repeats (runs,
Picard groups, and verdicts with the polarizability they were checked
against) are made once per call, when first shown: in one frame
(``_JsonFrame``) per algebra, which a lone ``report_json`` builds for
itself, or in ``_atlas_rows`` for a table.  A run's compact text is
``orbits.compact_run``, and every yes/no cell reads ``_CELL``.  Nothing that
grows with the input outlives a call.  Each atlas writer writes an orbit as
its iterable of reports yields it.
"""

from __future__ import annotations

import csv
import sys
from collections import namedtuple
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .errors import OrbitresError
from .hesselink import RecordRuns, admissible_reports
from .orbits import ClassicalOrbit, compact_run, is_even_orbit, orbit_dimension
from .picard import is_factorial, picard, q_factorial_certificate
from .resolution import Verdict, admits_symplectic_resolution


class OrbitReport(
    namedtuple("OrbitReport", "orbit dimension picard factorial resolution")
):
    """Every answer about one orbit: the orbit, its dimension, its Picard
    group (an AbelianGroupDescriptor, which decides the Q-factoriality
    certificate), factoriality (None for the zero orbit, which the
    criterion excludes) and the cross-checked ResolutionVerdict."""

    __slots__ = ()


def build_report(orbit: ClassicalOrbit) -> OrbitReport:
    """Run every analysis on one orbit and bundle the results."""
    return tuple.__new__(OrbitReport, (orbit, orbit_dimension(orbit), picard(orbit),
                                       is_factorial(orbit), admits_symplectic_resolution(orbit)))


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
    parts, compact, r = zip(*map(frame.runs.__getitem__, runs.items()))
    long = n + d1 > _PIECE  # if so, runs go in blocks, pieces out one by one: nothing long copied
    if long:  # the parts by cut run, as a run's own text holds at most _PIECE of them
        parts = [frame.runs[run][0] for run in _cut(runs)]
    pieces = [frame.opening, parts[0][1:], *parts[1:]]  # the first run's text takes no comma
    pieces.append(frame.profile % (
        ",".join(compact), "null" if label is None else _str(label.value),
        prof.k, prof.c, prof.a, prof.b, prof.l, _LITERAL[prof.rather_odd], even,
        "".join(reversed(r))[1:]))  # "r" ascends, its first entry taking no comma
    below, at_least = 0, n
    for value, count in reversed(runs.items()):  # s_i = at_least for below < i <= value
        pieces += frame.s[below, value, at_least]
        below, at_least = value, at_least - count
    polarizability, tail = frame.verdicts[pol.polarizable, pol.witnesses, verdict.answer,
                                          verdict.route, verdict.witness, verdict.cross_checked]
    pieces.append(frame.head % (even, report.dimension, frame.groups[report.picard],
                                _LITERAL[report.factorial], polarizability))
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
    pieces.append(tail)
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
    j1 = '"-inf"' if analysis.j1 is None else analysis.j1
    shared = frame.shared % (frame.positions([*chain.from_iterable(analysis.J)]), j1,
                             analysis.j0, frame.positions(analysis.B))
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
_CELL = {True: "yes", False: "no", None: "n/a"}  # every yes/no cell, and factorial's None


class _Texts(dict):
    """Texts by key, each made by ``make(key)`` when first asked for."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _array(nl: str, items: list[str]) -> str:
    """The JSON array of the texts ``items`` at the indentation of ``nl``."""
    inner = nl + "  "
    return f"[{inner}{(',' + inner).join(items)}{nl}]" if items else "[]"


def _cut(runs):
    """The runs (value, count) of ``runs``, each cut into runs of at most ``_PIECE`` parts."""
    for value, count in runs.items():
        yield from repeat((value, _PIECE), (count - 1) // _PIECE)
        yield value, (count - 1) % _PIECE + 1


def _stretch(nl: str, below: int, end: int, value: int) -> tuple[str, ...]:
    """The "s" entries ``value`` of the keys after ``below`` up to ``end`` at ``nl``, as
    texts of at most ``_PIECE`` keys each; the first entry of the map takes no comma."""
    entry = f',{nl}"%d": {value}'
    blocks = []
    for start in range(below, end, _PIECE):
        keys = range(start + 1, min(start + _PIECE, end) + 1)
        blocks.append((entry * len(keys)) % (*keys,))
    if not below:
        blocks[0] = blocks[0][1:]
    return tuple(blocks)


def _json_layout(nl: str) -> dict:
    """The ``%`` templates of every orbit's JSON text at the indentation of
    ``nl``, and the makers of the texts a ``_JsonFrame`` keeps, each from a
    key that holds only the value it shows."""
    i1, i2, i3, i4 = (nl + "  " * depth for depth in range(1, 5))
    part, entry, witness = f",{i2}%d", f',{i3}"%d": %d', f'{{{i4}"q": %d,{i4}"N_P": %d{i3}}}'
    picard = (f'{{{i2}"free_rank": %d,{i2}"torsion": %s,{i2}"unresolved_extension": %s'
              f',{i2}"trivial": %s{i1}}},{i1}"q_factorial_certificate": %s')
    polarizability = f'{{{i2}"polarizable": %s,{i2}"witnesses": %s{i1}}}'
    tail = (f',{i1}"resolution": {{{i2}"answer": %s,{i2}"route": %s,{i2}"witness": %s'
            f',{i2}"cross_checked": %s{i1}}}{nl}}}')

    def run(run):  # parts (none past _PIECE: _cut's runs write them), compact piece, "r" entry
        return part % run[0] * run[1] if run[1] <= _PIECE else "", compact_run(run), entry % run

    def group(group):
        extension = group.unresolved_extension
        return picard % (group.free_rank, _array(i2, [*map(str, group.torsion)]), "null"
                         if extension is None else f'{{{i3}"kernel_exponent": {extension}{i2}}}',
                         _LITERAL[group.is_trivial], _str(q_factorial_certificate(group).value))

    def verdict(key):  # its "polarizable" object and its tail
        polarizable, witnesses, answer, route, closed, cross_checked = key
        return (polarizability % (_LITERAL[polarizable],
                                  _array(i2, [witness % (w.q, w.N_P) for w in witnesses])),
                tail % (_str(answer.value), _str(route.value), "null" if closed is None
                        else f'{{{i3}"q": {closed.q}{i2}}}' if closed.q is not None
                        else f'{{{i3}"pair_position": {closed.pair_position}{i2}}}',
                        _LITERAL[cross_checked]))

    return dict(
        makers=(run, lambda stretch: _stretch(i3, *stretch), group, verdict),
        opening=(f'{{{i1}"algebra": %s,{i1}"cartan_type": %s,{i1}"family": %s,{i1}"m": %d'
                 f',{i1}"partition": ['),
        profile=(f'{i1}],{i1}"partition_compact": "%s",{i1}"very_even_label": %s'
                 f',{i1}"profile": {{{i2}"k": %d,{i2}"c": %d,{i2}"a": %d,{i2}"b": %d,{i2}"l": %d'
                 f',{i2}"rather_odd": %s,{i2}"all_same_parity": %s,{i2}"r": {{%s{i2}}}'
                 f',{i2}"s": {{'),
        head=(f'{i2}}}{i1}}},{i1}"even_orbit": %s,{i1}"dimension": %d,{i1}"picard": %s'
              f',{i1}"factorial": %s,{i1}"polarizable": %s,{i1}"hesselink": '),
        positions=lambda values: _array(i3, [*map(str, values)]),  # J and B
        shared=f',{i3}"J": %s,{i3}"j1": %s,{i3}"j0": %d,{i3}"B": %s,{i3}"u": "',
        record_head=f'{i2}{{{i3}"q": ',  # a record: head, q, shared text, u, end
        in_image=f'",{i3}"in_image": true,{i3}"N_P": %d{i2}}}',
        off_image=f'",{i3}"in_image": false,{i3}"N_P": null{i2}}}',
        records_end=f"{i1}]")


_LAYOUTS = _Texts(_json_layout)  # by indentation: "\n" for a lone report, "\n  " in an atlas


class _JsonFrame:
    """The JSON texts of one algebra's orbits for one call, at the indentation
    of ``nl``: the object up to its parts, the templates of the indentation
    (kept per process), and the texts of each run (value, count), "s" stretch
    (below, end, value), Picard group, and verdict with its polarizability
    (polarizable, witnesses, answer, route, witness, cross_checked), each made
    when first shown; a verdict's are its "polarizable" object and its tail."""

    def __init__(self, lie_type, nl: str):
        self.__dict__.update(layout := _LAYOUTS[nl])
        self.lie_type = lie_type
        self.opening = layout["opening"] % (_str(lie_type.name), _str(lie_type.cartan_label),
                                            _str(lie_type.family.value), lie_type.m)
        self.runs, self.s, self.groups, self.verdicts = map(_Texts, layout["makers"])


def _witness_text(witness) -> str:
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
        f"  even orbit     {_CELL[is_even_orbit(orbit)]}",
        f"  profile        k={prof.k} c={prof.c} a={prof.a} b={prof.b} l={prof.l}"
        f" rather_odd={_CELL[prof.rather_odd]}",
        f"  picard         {report.picard}",
        f"  q-factorial    {q_factorial_certificate(report.picard).value}",
        f"  factorial      {_CELL[report.factorial]}"
        + (" (zero orbit)" if report.factorial is None else ""),
        f"  polarizable    {_polarizable_text(report)}",
        f"  resolution     {verdict.answer.value}"
        + (f", witness {_witness_text(verdict.witness)}" if verdict.witness is not None else "")
        + f"  [route {verdict.route.value}"
        + (", cross-checked]" if verdict.cross_checked else "]"),
    ]
    return "\n".join(lines)


_ATLAS_COLUMNS = (
    "partition", "label", "dim", "even", "k", "c", "a", "b", "l", "rather_odd",
    "picard", "q_factorial", "factorial", "polarizable", "witnesses", "resolution", "witness",
)


def _atlas_rows(reports):
    """Each report's atlas row as the iterable yields it, its cells in
    ``_ATLAS_COLUMNS`` order; the cells of a run, a Picard group and a
    verdict are made once per call, when first shown."""
    runs = _Texts(compact_run)
    groups = _Texts(lambda group: (str(group), q_factorial_certificate(group).value))
    verdicts = _Texts(lambda key: (_CELL[key[0]], ";".join([f"{w.q}:{w.N_P}" for w in key[1]]),
                                   key[2].value, _witness_text(key[3])))
    for report in reports:
        orbit, verdict = report.orbit, report.resolution
        label, pol, prof = orbit.very_even_label, verdict.polarizability, orbit.profile
        yield (",".join(map(runs.__getitem__, orbit.partition.counts.items())),
               "" if label is None else label.value, str(report.dimension),
               _CELL[is_even_orbit(orbit)], *map(str, prof[:5]), _CELL[prof.rather_odd],
               *groups[report.picard], _CELL[report.factorial],
               *verdicts[pol.polarizable, pol.witnesses, verdict.answer, verdict.witness])


def atlas_markdown(reports, title: str, out) -> None:
    """Write the reports to the text stream ``out`` as a markdown table headed
    ``title``, a row as each is yielded (as ``atlas_json`` does), then the
    count of orbits and of YES answers."""
    out.write(f"# {title}\n\n| {' | '.join(_ATLAS_COLUMNS)} |\n|{'---|' * len(_ATLAS_COLUMNS)}\n")
    orbits = yes = 0
    for orbits, row in enumerate(_atlas_rows(reports), 1):
        out.write("| " + " | ".join(row) + " |\n")
        yes += row[-2] == Verdict.YES.value  # the resolution cell
    out.write(f"\n{orbits} orbits, {yes} admit a symplectic resolution, {orbits - yes} do not.\n")


def atlas_csv(reports, out) -> None:
    """The same as CSV: the header, then a row as each report is yielded."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_ATLAS_COLUMNS)
    writer.writerows(_atlas_rows(reports))
