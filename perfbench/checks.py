"""Correctness gate for the benchmark's outputs.

Every output is checked three ways, none of which asks orbitres:

* row counts against the generating-function count in workloads.py;
* every orbit the output shows, against the oracle below: dimension,
  evenness, the profile statistics, Picard group, Q-factoriality
  certificate, factoriality and the resolution answer from their closed
  forms; polarization witnesses at admissible q only, with power-of-two
  degrees, some degree 1 exactly when the closed form says yes;
  ``cross_checked`` on every sp/so verdict; and, in json output, per-q
  Hesselink records for exactly the admissible q in 0..m, those in the image
  being the witnesses with the same N_P;
* for the requests that do not depend on the seed (the atlas calls, the
  selfcheck sweep and the report anchors), a digest of the whole output
  (json canonicalised, every field of every row) against the digest
  recorded in reference.json.

``check_output`` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
from collections import Counter
from pathlib import Path

from workloads import is_valid, orbit_count, selfcheck_algebras

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE_PATH.read_text())


def request_key(request: dict) -> str:
    return " ".join(request["argv"])


def parse_compact(text: str) -> list[int]:
    """'2^2,1^4' -> [2, 2, 1, 1, 1, 1]."""
    parts = []
    for token in text.strip("[]").split(","):
        value, _, count = token.partition("^")
        parts += [int(value)] * int(count or 1)
    return parts


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def dimension(family: str, parts: list[int]) -> int:
    """Orbit dimension from the dual partition s (Collingwood-McGovern)."""
    m = sum(parts)
    sum_sq = sum(sum(1 for p in parts if p >= i) ** 2 for i in range(1, parts[0] + 1))
    n_odd = sum(p % 2 for p in parts)
    if family == "sl":
        return m * m - sum_sq
    if family == "sp":
        return (m * m + m - sum_sq - n_odd) // 2
    return (m * m - m - sum_sq + n_odd) // 2


def resolvable(family: str, parts: list[int]) -> bool:
    """Closed-form criterion: odd parts first, their count q of the family's
    parity (even for sp and so_even with q != 2, odd for so_odd); so_even
    also when exactly two odd parts sit at positions 2k-1, 2k."""
    if family == "sl":
        return True
    odd = [p % 2 == 1 for p in parts]
    q = sum(odd)
    prefix = all(odd[:q])
    if family == "sp":
        return prefix and q % 2 == 0
    if family == "so_odd":
        return prefix and q % 2 == 1
    if prefix and q % 2 == 0 and q != 2:
        return True
    positions = [j for j, o in enumerate(odd, start=1) if o]
    return len(positions) == 2 and positions[0] % 2 == 1 and positions[1] == positions[0] + 1


def admissible_q(family: str, m: int) -> list[int]:
    """q in 0..m of the parity of m, q = 2 left out for so."""
    return [q for q in range(m % 2, m + 1, 2) if family == "sp" or q != 2]


def expected_facts(family: str, parts: list[int]) -> dict:
    """What the output must show for one orbit, as strings, except
    ``picard``: (free rank, torsion, kernel exponent of the unresolved
    extension or None).

    k, c, a, b count distinct parts, their gcd and the distinct odd and even
    parts; l counts distinct parts of the unconstrained parity occurring
    twice; rather odd means every odd part occurs once.  Picard group: sl
    Z^(k-1) x Z/c; sp Z^l x (Z/2)^b; so (Z/2)^max(0,a-1) x Z^l, or for a
    rather odd partition an extension of Z/2 by (Z/2)^max(0,a-1).
    Q-factoriality is certified when k = 1 (sl) or l = 0 (sp/so).  Factorial:
    never for sl, all parts odd for sp, one odd part occurring at least
    4 (so_even) or 3 (so_odd) times; not stated for the zero orbit.
    """
    counts = Counter(parts)
    odd = [v for v in counts if v % 2]
    k, a = len(counts), len(odd)
    l = 0 if family == "sl" else sum(
        1 for v, c in counts.items() if c == 2 and v % 2 == (0 if family == "sp" else 1))
    rather_odd = all(counts[v] == 1 for v in odd)
    if family == "sl":
        c = math.gcd(*parts)
        group = (k - 1, (c,) if c >= 2 else (), None)
        factorial = False
    elif family == "sp":
        group = (l, (2,) * (k - a), None)
        factorial = a == k
    else:
        group = (0, (), max(0, a - 1)) if rather_odd else (l, (2,) * max(0, a - 1), None)
        factorial = a == 1 and counts[odd[0]] >= (4 if family == "so_even" else 3)
    return {
        "dim": str(dimension(family, parts)),
        "even": _yes(len({p % 2 for p in parts}) == 1),
        "k": str(k), "c": str(math.gcd(*parts)), "a": str(a), "b": str(k - a), "l": str(l),
        "rather_odd": _yes(rather_odd),
        "picard": group,
        "q_factorial": "certified" if (k == 1 if family == "sl" else l == 0) else "not_certified",
        "factorial": "n/a" if parts[0] == 1 else _yes(factorial),
        "answer": _yes(resolvable(family, parts)),
    }


def picard_text(group) -> str:
    free_rank, torsion, kernel = group
    if kernel is not None:
        return "Z/2" if kernel == 0 else f"extension of Z/2 by (Z/2)^{kernel} (order {2 ** (kernel + 1)})"
    pieces = ["Z" if free_rank == 1 else f"Z^{free_rank}"] if free_rank else []
    for value, count in sorted(Counter(torsion).items(), reverse=True):
        pieces.append(f"Z/{value}" if count == 1 else f"(Z/{value})^{count}")
    return " x ".join(pieces) or "trivial"


def picard_json(group) -> dict:
    free_rank, torsion, kernel = group
    return {
        "free_rank": free_rank, "torsion": list(torsion),
        "unresolved_extension": None if kernel is None else {"kernel_exponent": kernel},
        "trivial": not free_rank and not torsion and kernel is None,
    }


def _orbit_problems(family: str, parts: list[int], shown: dict) -> list[str]:
    """Oracle checks on what the output shows for one orbit.

    ``shown`` holds the keys of expected_facts it shows, picard as text or
    as its json dict, plus ``polarizable`` ("yes"/"no"), ``witnesses``
    [(q, N_P)], ``cross_checked`` (None when not shown) and, for json,
    ``records`` [(q, in_image, N_P)].
    """
    where = f"{family} [{','.join(map(str, parts))}]"
    if not is_valid(family, parts):
        return [f"{where}: partition breaks the parity rule"]
    expected = expected_facts(family, parts)
    group = expected["picard"]
    expected["picard"] = picard_json(group) if isinstance(shown["picard"], dict) else picard_text(group)
    problems = [f"{where}: {key} {shown[key]}, expected {value}"
                for key, value in expected.items() if key in shown and shown[key] != value]
    witnesses, records = shown["witnesses"], shown.get("records")
    if family == "sl":
        if shown["polarizable"] != "yes" or witnesses or records:
            problems.append(f"{where}: sl orbit not shown polarizable without witnesses and records")
        return problems
    admissible = admissible_q(family, sum(parts))
    if shown["polarizable"] != _yes(witnesses):
        problems.append(f"{where}: polarizable {shown['polarizable']} with {len(witnesses)} witnesses")
    if [q for q, _ in witnesses] != [q for q in admissible if q in dict(witnesses)]:
        problems.append(f"{where}: witnesses at q {[q for q, _ in witnesses]}, not admissible in order")
    if any(n < 1 or n & (n - 1) for _, n in witnesses):
        problems.append(f"{where}: a collapsing degree is not a power of two")
    if _yes(any(n == 1 for _, n in witnesses)) != expected["answer"]:
        problems.append(f"{where}: a degree-1 witness exists only when the closed form says yes")
    if shown["cross_checked"] is False:
        problems.append(f"{where}: verdict not cross-checked")
    if records is not None:
        if [q for q, _, _ in records] != admissible:
            problems.append(f"{where}: Hesselink records for {len(records)} q, expected the "
                            f"{len(admissible)} admissible q in 0..{sum(parts)}")
        if [(q, n) for q, in_image, n in records if in_image] != witnesses:
            problems.append(f"{where}: records in the image differ from the witnesses")
        if any(n is not None for _, in_image, n in records if not in_image):
            problems.append(f"{where}: a record outside the image has a degree")
    return problems


def _json_facts(r: dict) -> dict:
    prof = r["profile"]
    return {
        "dim": str(r["dimension"]), "even": _yes(r["even_orbit"]),
        **{key: str(prof[key]) for key in "kcabl"}, "rather_odd": _yes(prof["rather_odd"]),
        "picard": r["picard"], "q_factorial": r["q_factorial_certificate"],
        "factorial": "n/a" if r["factorial"] is None else _yes(r["factorial"]),
        "polarizable": _yes(r["polarizable"]["polarizable"]),
        "witnesses": [(w["q"], w["N_P"]) for w in r["polarizable"]["witnesses"]],
        "records": [(h["q"], h["in_image"], h["N_P"]) for h in r["hesselink"]],
        "answer": r["resolution"]["answer"], "cross_checked": r["resolution"]["cross_checked"],
    }


def _table_facts(r: dict) -> dict:
    shown = {key: r[key] for key in ("dim", "even", "k", "c", "a", "b", "l", "rather_odd",
                                     "picard", "q_factorial", "factorial", "polarizable")}
    witnesses = [w.split(":") for w in r["witnesses"].split(";") if w]
    return {**shown, "witnesses": [(int(q), int(n)) for q, n in witnesses],
            "answer": r["resolution"], "cross_checked": None}


def _text_facts(text: str) -> dict:
    fields = dict(line.strip().split(None, 1) for line in text.splitlines()[1:])
    prof = dict(item.split("=") for item in fields["profile"].split())
    resolution = fields["resolution"]
    return {
        "dim": fields["dimension"], "even": fields["even"].split()[-1],
        **{key: prof[key] for key in "kcabl"}, "rather_odd": prof["rather_odd"],
        "picard": fields["picard"], "q_factorial": fields["q-factorial"],
        "factorial": fields["factorial"].split()[0],
        "polarizable": fields["polarizable"].split()[0].rstrip(":"),
        "witnesses": [(int(q), int(n)) for q, n in re.findall(r"q=(\d+) \(degree (\d+)\)",
                                                              fields["polarizable"])],
        "answer": resolution.split(",")[0].split()[0],
        "cross_checked": "cross-checked" in resolution,
    }


def _markdown_rows(text: str) -> tuple[list[dict], int | None]:
    table = [line for line in text.splitlines() if line.startswith("| ")]
    header = [c.strip() for c in table[0].strip("|").split("|")]
    rows = [dict(zip(header, (c.strip() for c in line.strip("|").split("|")))) for line in table[1:]]
    summary = re.search(r"^(\d+) orbits, ", text, re.MULTILINE)
    return rows, int(summary.group(1)) if summary else None


def _atlas(request: dict, text: str) -> list[str]:
    family, fmt = request["family"], request["format"]
    problems = []
    if fmt == "json":
        rows = json.loads(text)
        for r in rows:
            problems += _orbit_problems(family, r["partition"], _json_facts(r))
    else:
        if fmt == "csv":
            rows, stated = list(csv.DictReader(io.StringIO(text))), None
        else:
            rows, stated = _markdown_rows(text)
        for r in rows:
            problems += _orbit_problems(family, parse_compact(r["partition"]), _table_facts(r))
        if stated is not None and stated != len(rows):
            problems.append(f"summary line states {stated} orbits for {len(rows)} rows")
    expected = orbit_count(family, request["m"])
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected} orbits")
    return problems


def _report(request: dict, text: str) -> list[str]:
    family, parts, label = request["family"], request["parts"], request["label"]
    if request["format"] == "json":
        row = json.loads(text)
        if row["partition"] != parts or (label is not None and row["very_even_label"] != label):
            return [f"answered {row['algebra']} {row['partition']}, not the requested orbit"]
        return _orbit_problems(family, parts, _json_facts(row))
    head = text.splitlines()[0]
    expected_head = f"{request['argv'][1]} [{request['argv'][2]}]"
    if not head.startswith(expected_head) or (label is not None and f"label {label})" not in head):
        return [f"answered {head!r}, not the requested orbit"]
    return _orbit_problems(family, parts, _text_facts(text))


def _selfcheck(request: dict, text: str) -> list[str]:
    problems = []
    swept = re.search(r"m <= (\d+) \((\d+) orbits\)", text)
    expected = sum(orbit_count(f, m) for f, m in selfcheck_algebras(int(request["argv"][1])))
    if not swept or int(swept.group(2)) != expected:
        problems.append(f"selfcheck reports {swept and swept.group(2)} orbits, expected {expected}")
    if not re.search(r"^0 failures$", text, re.MULTILINE):
        problems.append("selfcheck reports failures")
    return problems


_CHECKERS = {"atlas": _atlas, "report": _report, "selfcheck": _selfcheck}


def output_digest(request: dict, text: str) -> str:
    """Digest of the whole output: json canonicalised (keys sorted, no
    layout), every other format line by line."""
    if request["format"] == "json":
        text = json.dumps(json.loads(text), sort_keys=True)
    return hashlib.sha256("\n".join(text.splitlines()).encode()).hexdigest()


def check_output(request: dict, text: str, exit_code, reference: dict[str, str]) -> list[str]:
    """Problems with one request's output; empty when it is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        problems = _CHECKERS[request["kind"]](request, text)
        digest = output_digest(request, text)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    if request["kind"] != "report" or request["anchor"]:
        recorded = reference.get(request_key(request))
        if recorded is None:
            problems.append("no digest recorded for this request")
        elif digest != recorded:
            problems.append("digest differs from the recorded one")
    return problems
