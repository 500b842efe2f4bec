"""Command-line front end: orbit reports, atlases, self-checks, lookups.

Subcommands:

* ``report ALGEBRA PARTITION``   full analysis of one orbit;
* ``atlas ALGEBRA``              one row per orbit of the algebra;
* ``selfcheck [MAX_M]``          cross-route and consistency sweep;
* ``exceptional ALGEBRA LABEL``  embedded exceptional-type table.

Exit codes: 0 success (an exceptional-table miss included, answered with
guidance), 2 invalid input (OrbitresError), 3 self-check failure, 4
internal error (InternalInvariantError, a bug: the two resolution routes
disagree, a degree exponent is not a non-negative integer, or a computed
value fails its type's gate), 141 (128 + SIGPIPE) when the reader closes
stdout before the output ends.  The environment variable ORBITRES_MAX_M
(default 30, a non-negative integer) caps enumeration size.

An orbit's JSON is the text ``report.report_json`` writes from its report.
``atlas`` streams every format as it enumerates, so after an internal error
(exit 4) stdout may hold a truncated array or table.  The argument parser
is built once per process and reused by every ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
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
    validate_orbit,
)
from .picard import is_factorial, picard
from .report import (
    atlas_csv,
    atlas_json,
    atlas_markdown,
    build_report,
    exceptional_json,
    report_json,
    report_text,
)
from .resolution import Verdict, admits_symplectic_resolution

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
        report_json(report, sys.stdout)
        sys.stdout.write("\n")
    else:
        print(report_text(report))
    return 0


def _cmd_atlas(args) -> int:
    lie_type = parse_algebra(args.algebra)
    _check_cap(lie_type.m)
    reports = map(build_report, enumerate_orbits(lie_type))
    if args.format == "json":
        atlas_json(reports, sys.stdout)
    elif args.format == "csv":
        atlas_csv(reports, sys.stdout)
    else:
        atlas_markdown(reports, f"nilpotent orbits of {lie_type.name}", sys.stdout)
    return 0


_SL, _YES = Family.SL, Verdict.YES


def _selfcheck_lie_types(max_m: int):
    for family in Family:
        step = 1 if family is _SL else 2  # sp and so fix the parity of m
        for m in range(family.min_m, max_m + 1, step):
            yield LieType(family, m)


_ROUTES = "route equivalence (closed form vs degree search)"
_EVEN = "even orbit implies resolvable"
_POLARIZABLE = "resolvable implies polarizable"
_FACTORIAL = "factorial iff trivial picard (non-zero sp/so)"
_FREE_RANK = "l = 0 implies picard free rank 0 (sp/so)"


def run_selfcheck(max_m: int, out=None) -> int:
    """Sweep every orbit with m <= max_m and assert the cross-invariants.

    Checks per orbit: the closed form and the degree search agree (raised
    as InternalInvariantError inside the dispatcher otherwise), even
    orbits are resolvable, resolvable orbits are polarizable, for non-zero
    sp/so orbits factoriality coincides with Picard triviality, and l = 0
    forces Picard free rank 0.  The degree-exponent guards are active
    throughout: ``polarizable`` checks 2u even on each run of q in the image
    and the exponent non-negative on each witness.

    Returns the number of failures; prints one line per check, "ok" or
    "FAILED (k of N)", then one line per failure.
    """
    out = out if out is not None else sys.stdout
    failures: list[tuple[str, str]] = []  # (check, what failed)
    tallies = dict.fromkeys((_ROUTES, _EVEN, _POLARIZABLE, _FACTORIAL, _FREE_RANK), 0)
    for lie_type in _selfcheck_lie_types(max_m):
        for orbit in enumerate_orbits(lie_type):
            tallies[_ROUTES] += 1
            try:
                verdict = admits_symplectic_resolution(orbit)
            except OrbitresError as exc:
                failures.append((_ROUTES, f"{orbit}: {exc}"))
                continue
            resolved = verdict.answer is _YES
            if is_even_orbit(orbit) and not resolved:
                failures.append((_EVEN, f"{orbit}: even orbit judged non-resolvable"))
            tallies[_EVEN] += 1
            if resolved and not verdict.polarizability.polarizable:
                failures.append((_POLARIZABLE, f"{orbit}: resolvable but not polarizable"))
            tallies[_POLARIZABLE] += 1
            if lie_type.family is not _SL:
                group = picard(orbit)
                if is_factorial(orbit) not in (None, group.is_trivial):
                    failures.append(
                        (_FACTORIAL, f"{orbit}: factoriality and picard triviality disagree")
                    )
                tallies[_FACTORIAL] += 1
                if orbit.profile.l == 0 and group.free_rank != 0:
                    failures.append(
                        (_FREE_RANK, f"{orbit}: l = 0 but picard free rank {group.free_rank}")
                    )
                tallies[_FREE_RANK] += 1
    print(f"selfcheck over all classical orbits with m <= {max_m} ({tallies[_ROUTES]} orbits)", file=out)
    for name, count in tallies.items():
        failed = sum(check == name for check, _ in failures)
        status = f"FAILED ({failed} of {count})" if failed else f"ok ({count} checked)"
        print(f"  {name}: {status}", file=out)
    for _, failure in failures:
        print(f"  FAILURE {failure}", file=out)
    print(f"{len(failures)} failures", file=out)
    return len(failures)


def _cmd_selfcheck(args) -> int:
    if args.max_m < 2:
        raise OrbitresError(f"selfcheck needs max_m >= 2, got {args.max_m}")
    _check_cap(args.max_m)
    return 3 if run_selfcheck(args.max_m) else 0


def _cmd_exceptional(args) -> int:
    from .exceptional import exceptional_records, lookup_exceptional  # loaded for this command alone

    if args.export:
        if args.label is not None:
            raise OrbitresError(f"--export takes no LABEL, got {args.label!r}: give ALGEBRA alone")
        print(json.dumps(exceptional_json(exceptional_records(args.algebra)), indent=2))
        return 0
    if args.algebra is None or args.label is None:
        raise OrbitresError("provide ALGEBRA and LABEL, or --export for the stored table")
    try:
        record = lookup_exceptional(args.algebra, args.label)
    except NotInDatabase as exc:
        print(f"{args.algebra.strip().upper()} {args.label}: not in database")
        print(str(exc))
        return 0
    print(f"{record.algebra} {record.label}: {record.verdict.value}  ({record.note})")
    return 0


# Help and usage text at the width argparse falls back to when stdout is no
# terminal and COLUMNS is unset (80 columns less 2): given no width, every
# formatter argparse makes, one per added argument, imports shutil to ask.
_PARSER = functools.partial(
    argparse.ArgumentParser, formatter_class=functools.partial(argparse.HelpFormatter, width=78)
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use."""
    parser = _PARSER(
        prog="orbitres",
        description=(
            "Decision engine for classical nilpotent orbits: Picard groups, "
            "factoriality, polarizability and symplectic resolutions, computed "
            "from partition data with two independent cross-checking routes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_PARSER)

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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not in the flush at exit
        return code
    except BrokenPipeError:  # stdout points at os.devnull, so the flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except InternalInvariantError as exc:
        print(f"internal error, this is a bug: {exc}", file=sys.stderr)
        return 4
    except OrbitresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
