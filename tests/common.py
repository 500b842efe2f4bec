"""Shared strategies and oracles for the test suite.

The orbit strategies construct valid partitions directly (constrained-parity
parts are drawn in pairs), so hypothesis spends its budget on interesting
cases rather than on rejection sampling.  ``expected_report_dict`` is the
reference JSON layout of one report, built as a dict for ``json.dumps``;
``reference_analysis`` is the Hesselink analysis and ``reference_closed_form``
the closed-form witness, each taken one position at a time;
``marked_positions`` expands an analysis's J, held as runs, to compare
with them.  ``reference_reports`` computes the per-q records one q at a
time from the analysis fields.  ``json_text`` is the text ``report_json``
writes for a report.  ``expected_atlas_row`` is the reference markdown and
CSV atlas row of one report, and ``expected_markdown`` and ``expected_csv``
the reference tables, each read straight off the reports with nothing kept
between rows; ``expected_text`` is the reference text report, read off the
report's fields the same way.  ``collapse`` is the B/C/D-collapse of a partition, shared by
the induction and duality oracles.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from itertools import chain

from hypothesis import assume
from hypothesis import strategies as st

from orbitres import Family, LieType, enumerate_orbits, validate_orbit
from orbitres.enumeration import enumerate_lie_types
from orbitres.errors import OrbitresError
from orbitres.hesselink import HesselinkReport
from orbitres.orbits import Partition, VeryEvenLabel
from orbitres.report import report_json
from orbitres.resolution import ResolutionWitness

def json_text(report, **frame) -> str:
    """What ``report_json`` writes for the report, as one string."""
    out = io.StringIO()
    report_json(report, out, **frame)
    return out.getvalue()


ALL_FAMILIES = (Family.SL, Family.SP, Family.SO_ODD, Family.SO_EVEN)
BCD_FAMILIES = (Family.SP, Family.SO_ODD, Family.SO_EVEN)


def accel_asc(n: int):
    """Independent partition generator (ascending compositions)."""
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(sorted(a[: k + 1], reverse=True))


def brute_force_valid(family: Family, parts: tuple[int, ...]) -> bool:
    """Multiplicity-constraint oracle, written independently of the package."""
    if family is Family.SL:
        return True
    constrained = 1 if family is Family.SP else 0
    return all(
        count % 2 == 0
        for value, count in Counter(parts).items()
        if value % 2 == constrained
    )


@st.composite
def partitions(draw, max_part: int = 10, max_len: int = 8) -> Partition:
    values = draw(st.lists(st.integers(1, max_part), min_size=1, max_size=max_len))
    return Partition(tuple(sorted(values, reverse=True)))


@st.composite
def valid_orbits(draw, families=ALL_FAMILIES):
    """A validated orbit of a random family with a random valid partition."""
    family = draw(st.sampled_from(families))
    if family is Family.SL:
        parts = tuple(sorted(draw(st.lists(st.integers(1, 8), min_size=1, max_size=8)), reverse=True))
    else:
        constrained = 1 if family is Family.SP else 0
        # constrained-parity values are injected twice each, free values once
        paired_raw = draw(st.lists(st.integers(1, 4), max_size=3))
        free_raw = draw(st.lists(st.integers(1, 4), max_size=5))
        if constrained == 1:
            paired = [2 * v - 1 for v in paired_raw]
            free = [2 * v for v in free_raw]
        else:
            paired = [2 * v for v in paired_raw]
            free = [2 * v - 1 for v in free_raw]
        parts = tuple(sorted(paired * 2 + free, reverse=True))
        assume(parts)
    try:
        lie_type = LieType(family, sum(parts))
    except OrbitresError:
        assume(False)
    return validate_orbit(lie_type, parts)


def bcd_orbits():
    return valid_orbits(families=BCD_FAMILIES)


@st.composite
def many_parts_orbits(draw, max_m: int = 600):
    """An sp/so orbit with many parts and few runs, m up to about max_m: the
    zero orbit [1^m], [2^k,1^(m-2k)], or distinct values repeated up to 60
    times each (constrained-parity values an even number of times)."""
    family = draw(st.sampled_from(BCD_FAMILIES))
    shape = draw(st.sampled_from(("zero", "twos", "runs")))
    if shape == "runs":
        parts: list[int] = []
        for value in draw(st.lists(st.integers(1, 40), min_size=1, max_size=12, unique=True)):
            count = draw(st.integers(1, 60))
            if value % 2 == family.constrained_parity:
                count += count % 2
            if sum(parts) + value * count <= max_m:
                parts += [value] * count
        assume(parts)
        m = sum(parts)
        if family is not Family.SP:  # the parity of m picks the orthogonal family
            family = Family.SO_ODD if m % 2 else Family.SO_EVEN
        assume(m >= family.min_m)
    else:
        m = family.min_m + 2 * draw(st.integers(0, (max_m - family.min_m) // 2))
        k = draw(st.integers(0, m // 2)) if shape == "twos" else 0
        if family is not Family.SP:
            k -= k % 2  # so takes the even part 2 in pairs
        parts = [2] * k + [1] * (m - 2 * k)
    return validate_orbit(LieType(family, m), sorted(parts, reverse=True))


def marked_positions(analysis) -> tuple[int, ...]:
    """The analysis's J, one entry per marked position, from its runs."""
    return tuple(chain.from_iterable(analysis.J))


def reference_analysis(orbit) -> dict:
    """The fields of an sp/so orbit's HesselinkAnalysis, one position at a
    time: the marked set, the pairing check and the drops are taken at every
    j in 1..N against the zero-padded d_{j+1}."""
    family, m = orbit.lie_type
    epsilon = family.constrained_parity
    parts = orbit.partition.parts
    n = len(parts)
    marked = [p % 2 == epsilon for p in parts]  # marked[j - 1]: j in J
    pairing_ok = True
    drops = []
    for j, (p, nxt) in enumerate(zip(parts, parts[1:] + (0,)), start=1):
        if (j - m) % 2 == 0:
            if p == nxt:
                marked[j - 1] = marked[j] = True
        elif (p - nxt) % 2:
            pairing_ok = False
        if p > nxt and p % 2 != epsilon:
            drops.append(j)
    J = tuple(j for j in range(1, n + 1) if marked[j - 1])
    tail = n + 1 if epsilon == 0 or n % 2 else n + 2  # first marked padded position
    return {
        "m": m,
        "epsilon": epsilon,
        "J": J,
        "j1": max((j for j in J if parts[j - 1] % 2), default=None),
        "j0": min((j for j in J if parts[j - 1] % 2 == 0), default=tail),
        "B": tuple(drops),
        "pairing_ok": pairing_ok,
        "n_odd": sum(p % 2 for p in parts),
    }


def reference_reports(pol) -> tuple:
    """The per-q records of every admissible q, each computed on its own
    from the analysis fields by the formulas of the hesselink module
    docstring, calling no analysis method: the reference that
    ``admissible_reports`` and the JSON report are held to.  Empty for sl."""
    a = pol.analysis
    if a is None:
        return ()
    records = []
    for q in range(a.m + 1):
        if q % 2 != a.m % 2 or (a.epsilon == 0 and q == 2):
            continue
        twice_u = (-1) ** a.epsilon * (a.n_odd - q)
        assert twice_u % 2 == 0
        u = twice_u // 2
        in_image = a.pairing_ok and (a.j1 is None or a.j1 <= q) and q < a.j0
        degree = None
        if in_image:
            exponent = u if q + a.epsilon >= 1 or not a.B else u - 1
            assert exponent >= 0
            degree = 2 ** exponent
        record = HesselinkReport(q, u, degree)
        assert record.in_image == in_image
        records.append(record)
    return tuple(records)


def reference_closed_form(orbit) -> ResolutionWitness | None:
    """The clause of the sp/so closed form that holds, as the resolution
    module's docstring states it, from the positions of the odd parts:
    they are 1..q for the prefix clause, 2k-1 and 2k for the pair clause."""
    family = orbit.lie_type.family
    odd = [j for j, p in enumerate(orbit.partition.parts, start=1) if p % 2]
    q = len(odd)
    parity = 1 if family is Family.SO_ODD else 0
    if odd == list(range(1, q + 1)) and q % 2 == parity:
        if family is not Family.SO_EVEN or q != 2:
            return ResolutionWitness(q=q)
    if family is Family.SO_EVEN and q == 2 and odd[0] % 2 == 1 and odd[1] == odd[0] + 1:
        return ResolutionWitness(pair_position=(odd[0] + 1) // 2)
    return None


def bcd_orbits_up_to(max_m: int):
    """Every sp/so orbit with m <= max_m, algebra by algebra."""
    for lie_type in enumerate_lie_types(max_m):
        if lie_type.family is not Family.SL:
            yield from enumerate_orbits(lie_type)


@st.composite
def orbits_up_to(draw, max_m: int = 40):
    """A validated orbit of any family with m <= max_m: zero orbits and very
    even orbits of either label included."""
    family = draw(st.sampled_from(ALL_FAMILIES))
    constrained = family.constrained_parity
    scale = 2 if draw(st.booleans()) else 1  # all parts even: very even in so_even
    parts: list[int] = []
    for value in draw(st.lists(st.integers(1, max_m // scale), max_size=12)):
        value *= scale
        count = 2 if value % 2 == constrained else 1
        if sum(parts) + count * value <= max_m:
            parts += [value] * count
    assume(parts)
    if draw(st.integers(0, 4)) == 0:
        parts = [1] * sum(parts)  # the zero orbit
    try:
        lie_type = LieType(family, sum(parts))
    except OrbitresError:
        assume(False)
    orbit = validate_orbit(lie_type, sorted(parts, reverse=True))
    if orbit.very_even_label is not None:
        orbit = validate_orbit(lie_type, orbit.partition, draw(st.sampled_from(VeryEvenLabel)))
    return orbit


def expected_report_dict(report) -> dict:
    """One report in the JSON layout, as the dict json.dumps would write."""
    orbit = report.orbit
    parts = orbit.partition.parts
    prof = orbit.profile
    even = len({p % 2 for p in parts}) == 1  # evenness and multiplicities straight off the parts
    group = report.picard
    verdict = report.resolution
    pol = verdict.polarizability
    return {
        "algebra": orbit.lie_type.name,
        "cartan_type": orbit.lie_type.cartan_label,
        "family": orbit.lie_type.family.value,
        "m": orbit.lie_type.m,
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
            "all_same_parity": even,
            "r": {str(i): count for i, count in sorted(Counter(parts).items())},
            # the dual partition, counted straight off the parts
            "s": {str(i): sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1)},
        },
        "even_orbit": even,
        "dimension": report.dimension,
        "picard": {
            "free_rank": group.free_rank,
            "torsion": list(group.torsion),
            "unresolved_extension": (
                None if group.unresolved_extension is None
                else {"kernel_exponent": group.unresolved_extension}
            ),
            "trivial": group.is_trivial,
        },
        # certified exactly when the group shown is finite
        "q_factorial_certificate": "certified" if group.free_rank == 0 else "not_certified",
        "factorial": report.factorial,
        "polarizable": {
            "polarizable": pol.polarizable,
            "witnesses": [{"q": w.q, "N_P": w.N_P} for w in pol.witnesses],
        },
        "hesselink": _expected_hesselink(pol),
        "resolution": {
            "answer": verdict.answer.value,
            "route": verdict.route.value,
            "witness": _expected_witness(verdict),
            "cross_checked": verdict.cross_checked,
        },
    }


def _expected_witness(verdict) -> dict | None:
    witness = verdict.witness
    if witness is None:
        return None
    if witness.q is not None:
        return {"q": witness.q}
    return {"pair_position": witness.pair_position}


def _expected_hesselink(pol) -> list[dict]:
    """One dict per admissible q; each repeats the analysis's J, j1, j0, B."""
    analysis = pol.analysis
    return [
        {
            "q": record.q,
            "J": list(marked_positions(analysis)),
            "j1": "-inf" if analysis.j1 is None else analysis.j1,
            "j0": analysis.j0,
            "B": list(analysis.B),
            "u": str(record.u),
            "in_image": record.in_image,
            "N_P": record.N_P,
        }
        for record in reference_reports(pol)
    ]


ATLAS_COLUMNS = ("partition", "label", "dim", "even", "k", "c", "a", "b", "l", "rather_odd",
                 "picard", "q_factorial", "factorial", "polarizable", "witnesses", "resolution",
                 "witness")


def expected_atlas_row(report) -> tuple[str, ...]:
    """One report's markdown and CSV atlas row, in ``ATLAS_COLUMNS`` order."""
    orbit = report.orbit
    parts = orbit.partition.parts
    prof = orbit.profile
    group = report.picard
    verdict = report.resolution
    pol = verdict.polarizability
    witness = verdict.witness

    def yes(flag: bool) -> str:
        return "yes" if flag else "no"

    if witness is None:
        witness_cell = "-"
    elif witness.q is not None:
        witness_cell = f"q={witness.q}"
    else:
        k = witness.pair_position
        witness_cell = f"pair at positions {2 * k - 1},{2 * k}"
    return (
        orbit.partition.compact_str(),
        "" if orbit.very_even_label is None else orbit.very_even_label.value,
        str(report.dimension),
        yes(len({p % 2 for p in parts}) == 1),
        *(str(value) for value in (prof.k, prof.c, prof.a, prof.b, prof.l)),
        yes(prof.rather_odd),
        str(group),
        # certified exactly when the group shown is finite
        "certified" if group.free_rank == 0 else "not_certified",
        "n/a" if report.factorial is None else yes(report.factorial),
        yes(pol.polarizable),
        ";".join(f"{w.q}:{w.N_P}" for w in pol.witnesses),
        verdict.answer.value,
        witness_cell,
    )


def expected_text(report) -> str:
    """One report's text rendering, line by line from the report's fields:
    the compact partition from the expanded parts, evenness from their
    parities, and the cross-check from the family."""
    orbit = report.orbit
    parts = orbit.partition.parts
    prof = orbit.profile
    verdict = report.resolution
    pol = verdict.polarizability
    sl = orbit.lie_type.family is Family.SL

    def yes(flag: bool) -> str:
        return "yes" if flag else "no"

    runs = Counter(parts)
    compact = ",".join(f"{v}^{runs[v]}" if runs[v] > 1 else f"{v}" for v in sorted(runs)[::-1])
    label = orbit.very_even_label
    if not pol.polarizable:
        polarizable = "no"
    elif sl:
        polarizable = "yes (every sl orbit is polarizable)"
    else:
        polarizable = "yes: " + ", ".join(f"q={w.q} (degree {w.N_P})" for w in pol.witnesses)
    witness = verdict.witness
    resolution = verdict.answer.value
    if witness is not None and witness.q is not None:
        resolution += f", witness q={witness.q}"
    elif witness is not None:
        k = witness.pair_position
        resolution += f", witness pair at positions {2 * k - 1},{2 * k}"
    resolution += f"  [route {verdict.route.value}{']' if sl else ', cross-checked]'}"
    return "\n".join([
        f"{orbit.lie_type.name} [{compact}]"
        + ("" if label is None else f"  (very even, label {label.value})"),
        f"  cartan type    {orbit.lie_type.cartan_label}",
        f"  dimension      {report.dimension}",
        f"  even orbit     {yes(len({p % 2 for p in parts}) == 1)}",
        f"  profile        k={prof.k} c={prof.c} a={prof.a} b={prof.b} l={prof.l}"
        f" rather_odd={yes(prof.rather_odd)}",
        f"  picard         {report.picard}",
        f"  q-factorial    {'certified' if report.picard.free_rank == 0 else 'not_certified'}",
        "  factorial      "
        + ("n/a (zero orbit)" if report.factorial is None else yes(report.factorial)),
        f"  polarizable    {polarizable}",
        f"  resolution     {resolution}",
    ])


def expected_markdown(reports, title: str) -> str:
    """The markdown atlas of ``reports``: heading, table and count line."""
    lines = [f"# {title}", "", "| " + " | ".join(ATLAS_COLUMNS) + " |",
             "|" + "---|" * len(ATLAS_COLUMNS)]
    lines += ["| " + " | ".join(expected_atlas_row(report)) + " |" for report in reports]
    yes = sum(report.resolution.answer.value == "yes" for report in reports)
    no = len(reports) - yes
    count = f"{len(reports)} orbits, {yes} admit a symplectic resolution, {no} do not."
    return "\n".join(lines + ["", count]) + "\n"


def expected_csv(reports) -> str:
    """The CSV atlas of ``reports``: the column names, then a row per report."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [ATLAS_COLUMNS, *map(expected_atlas_row, reports)])
    return out.getvalue()


def collapse(parts, paired: int) -> tuple[int, ...]:
    """The collapse of descending ``parts``: while some part of parity
    ``paired`` has odd multiplicity, lower the last copy of the largest such
    part x by 1 and raise the first later part at most x - 2 (a padded 0
    included) by 1.  Each step moves a box to a later row, which raises the
    sum of (row index * part) by 1 at least, and that sum is at most
    n * (n + 1) / 2 for n boxes: the loop is bounded by it, and a step that
    went wrong fails instead of running on."""
    parts = [*parts, 0]
    total = sum(parts)
    for _ in range(total * (total + 1) // 2 + 1):
        odd = [x for x in set(parts) if x and x % 2 == paired and parts.count(x) % 2]
        if not odd:
            return tuple(x for x in parts if x)
        x = max(odd)
        last = len(parts) - 1 - parts[::-1].index(x)
        parts[last] -= 1
        parts[next(j for j in range(last + 1, len(parts)) if parts[j] <= x - 2)] += 1
        parts += [0] * (parts[-1] > 0)
    raise AssertionError(f"the collapse of {parts} does not end")
