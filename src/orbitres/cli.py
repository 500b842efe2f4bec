"""Command-line front end: orbit reports, atlases, self-checks, lookups.

Subcommands:

* ``report ALGEBRA PARTITION``   full analysis of one orbit;
* ``atlas ALGEBRA``              one row per orbit of the algebra;
* ``selfcheck [MAX_M]``          cross-route and consistency sweep;
* ``exceptional ALGEBRA LABEL``  embedded exceptional-type table.

Exit codes: 0 success, 2 invalid input, 3 self-check failure, 4 internal
error (a bug: the two resolution routes disagree, or a degree exponent is
not a non-negative integer).  The environment variable ORBITRES_MAX_M
(default 30, a non-negative integer) caps enumeration size.

``atlas --format json`` writes its array one orbit at a time, so after an
internal error (exit 4) stdout may hold a truncated array.
"""

from __future__ import annotations

import argparse
import os
import sys

from .enumeration import enumerate_orbits
from .errors import InternalInvariantError, NotInDatabase, OrbitresError
from .orbits import (
    Family,
    LieType,
    VeryEvenLabel,
    is_even_orbit,
    parse_algebra,
    parse_partition,
    profile,
    validate_orbit,
)
from .picard import is_factorial, picard
from .report import atlas_csv, atlas_markdown, build_report, json_text, report_json, report_text
from .resolution import (
    Verdict,
    _coerce_algebra,
    admits_symplectic_resolution,
    exceptional_table_json,
    lookup_exceptional,
)

DEFAULT_MAX_M_CAP = 30
DEFAULT_SELFCHECK_M = 12


def _max_m_cap() -> int:
    raw = os.environ.get("ORBITRES_MAX_M", "")
    if not raw:
        return DEFAULT_MAX_M_CAP
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError(raw)
    except ValueError:
        raise OrbitresError(f"ORBITRES_MAX_M must be a non-negative integer, got {raw!r}") from None
    return cap


def _check_cap(m: int) -> None:
    cap = _max_m_cap()
    if m > cap:
        raise OrbitresError(
            f"m = {m} exceeds the enumeration cap ORBITRES_MAX_M = {cap}; "
            "raise the environment variable to allow larger sweeps"
        )


def _cmd_report(args) -> int:
    lie_type = parse_algebra(args.algebra)
    partition = parse_partition(args.partition, lie_type.m)
    label = VeryEvenLabel(args.label) if args.label else None
    orbit = validate_orbit(lie_type, partition, label)
    report = build_report(orbit)
    if args.format == "json":
        print(json_text(report_json(report)))
    else:
        print(report_text(report))
    return 0


def _cmd_atlas(args) -> int:
    lie_type = parse_algebra(args.algebra)
    _check_cap(lie_type.m)
    if args.format == "json":
        # The text of json.dumps(<list of reports>, indent=2), written one
        # orbit at a time; every algebra has an orbit, so the list is never
        # empty.
        out = sys.stdout
        separator = "["
        for orbit in enumerate_orbits(lie_type):
            out.write(separator + "\n  " + json_text(report_json(build_report(orbit)), "\n  "))
            separator = ","
        out.write("\n]\n")
        return 0
    reports = [build_report(orbit) for orbit in enumerate_orbits(lie_type)]
    if args.format == "csv":
        print(atlas_csv(reports), end="")
    else:
        print(atlas_markdown(reports, title=f"nilpotent orbits of {lie_type.name}"))
    return 0


def _selfcheck_lie_types(max_m: int):
    for m in range(1, max_m + 1):
        yield LieType(Family.SL, m)
    for m in range(2, max_m + 1, 2):
        yield LieType(Family.SP, m)
    for m in range(3, max_m + 1, 2):
        yield LieType(Family.SO_ODD, m)
    for m in range(4, max_m + 1, 2):
        yield LieType(Family.SO_EVEN, m)


def run_selfcheck(max_m: int, out=None) -> int:
    """Sweep every orbit with m <= max_m and assert the cross-invariants.

    Checks per orbit: the closed form and the degree search agree (raised
    as CrossCheckMismatch inside the dispatcher otherwise), even orbits are
    resolvable, resolvable orbits are polarizable, for non-zero sp/so
    orbits factoriality coincides with Picard triviality, and l = 0 forces
    Picard free rank 0.  The degree-exponent integrality guard is active
    throughout because every in-image degree is actually computed.

    Returns the number of failures; prints one line per check.
    """
    out = out if out is not None else sys.stdout
    failures: list[str] = []
    checked = 0
    tallies = {
        "route equivalence (closed form vs degree search)": 0,
        "even orbit implies resolvable": 0,
        "resolvable implies polarizable": 0,
        "factorial iff trivial picard (non-zero sp/so)": 0,
        "l = 0 implies picard free rank 0 (sp/so)": 0,
    }
    for lie_type in _selfcheck_lie_types(max_m):
        for orbit in enumerate_orbits(lie_type):
            checked += 1
            try:
                verdict = admits_symplectic_resolution(orbit)
            except OrbitresError as exc:
                failures.append(f"{orbit}: {exc}")
                continue
            tallies["route equivalence (closed form vs degree search)"] += 1
            resolved = verdict.answer is Verdict.YES
            if is_even_orbit(orbit) and not resolved:
                failures.append(f"{orbit}: even orbit judged non-resolvable")
            tallies["even orbit implies resolvable"] += 1
            if resolved and not verdict.polarizability.polarizable:
                failures.append(f"{orbit}: resolvable but not polarizable")
            tallies["resolvable implies polarizable"] += 1
            if orbit.family.is_bcd:
                prof = profile(orbit)
                group = picard(orbit, prof)
                if not orbit.is_zero and is_factorial(orbit) != group.is_trivial:
                    failures.append(f"{orbit}: factoriality and picard triviality disagree")
                tallies["factorial iff trivial picard (non-zero sp/so)"] += 1
                if prof.l == 0 and group.free_rank != 0:
                    failures.append(f"{orbit}: l = 0 but picard free rank {group.free_rank}")
                tallies["l = 0 implies picard free rank 0 (sp/so)"] += 1
    print(f"selfcheck over all classical orbits with m <= {max_m} ({checked} orbits)", file=out)
    for name, count in tallies.items():
        print(f"  {name}: ok ({count} checked)", file=out)
    if failures:
        for failure in failures:
            print(f"  FAILURE {failure}", file=out)
    print(f"{len(failures)} failures", file=out)
    return len(failures)


def _cmd_selfcheck(args) -> int:
    if args.max_m < 2:
        raise OrbitresError(f"selfcheck needs max_m >= 2, got {args.max_m}")
    _check_cap(args.max_m)
    return 3 if run_selfcheck(args.max_m) else 0


def _cmd_exceptional(args) -> int:
    if args.export:
        table = exceptional_table_json()
        if args.algebra is not None:
            wanted = _coerce_algebra(args.algebra).value
            table = [row for row in table if row["algebra"] == wanted]
        print(json_text(table))
        return 0
    if args.algebra is None or args.label is None:
        raise OrbitresError("provide ALGEBRA and LABEL, or --export for the stored table")
    try:
        record = lookup_exceptional(args.algebra, args.label)
    except NotInDatabase as exc:
        print(f"{args.algebra.strip().upper()} {args.label}: not in database")
        print(str(exc))
        return 0
    print(f"{record.algebra.value} {record.label}: {record.verdict.value}  ({record.note})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitres",
        description=(
            "Decision engine for classical nilpotent orbits: Picard groups, "
            "factoriality, polarizability and symplectic resolutions, computed "
            "from partition data with two independent cross-checking routes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="full analysis of one orbit")
    report.add_argument("algebra", help="algebra name, e.g. so8, sp6, sl5, D4")
    report.add_argument("partition", help="partition text, e.g. 3,2,2,1 or 2^2,1^4")
    report.add_argument("--format", choices=("text", "json"), default="text")
    report.add_argument("--label", choices=("I", "II"), default=None,
                        help="orbit label for a very even type-D partition")
    report.set_defaults(func=_cmd_report)

    atlas = sub.add_parser("atlas", help="one row per orbit of an algebra")
    atlas.add_argument("algebra")
    atlas.add_argument("--format", choices=("json", "md", "csv"), default="md")
    atlas.set_defaults(func=_cmd_atlas)

    selfcheck = sub.add_parser("selfcheck", help="cross-route consistency sweep")
    selfcheck.add_argument("max_m", nargs="?", type=int, default=DEFAULT_SELFCHECK_M,
                           help=f"largest matrix size to sweep (default {DEFAULT_SELFCHECK_M})")
    selfcheck.set_defaults(func=_cmd_selfcheck)

    exceptional = sub.add_parser("exceptional", help="exceptional-type verdict lookup")
    exceptional.add_argument("algebra", nargs="?", default=None, help="G2, F4, E6, E7 or E8")
    exceptional.add_argument("label", nargs="?", default=None,
                             help="Bala-Carter label, e.g. 'A4+A1' or 'D5(a1)'")
    exceptional.add_argument("--export", action="store_true",
                             help="print the embedded table (optionally one algebra) as JSON")
    exceptional.set_defaults(func=_cmd_exceptional)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal error, this is a bug: {exc}", file=sys.stderr)
        return 4
    except OrbitresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
