"""Request lists for the three benchmark workloads, and the benchmark's own
partition rules (parity validity and orbit counts by generating function).

Each request is a dict: ``argv`` is all the program receives; the other keys
describe what the request asks for, so that the checks can judge the output
without asking the program.  Nothing here imports orbitres.
"""

from __future__ import annotations

import random

FAMILIES = ("sl", "sp", "so_odd", "so_even")

# atlas: the throughput use.  sp30/so30/so29 are dominated by per-q Hesselink
# records; sl30 has no Hesselink work and stresses enumeration and rendering.
ATLAS_CALLS = (("sp30", "json"), ("so30", "md"), ("so29", "csv"), ("sl30", "json"))

# selfcheck: the verdict path, every classical algebra with m <= 26.
SELFCHECK_MAX_M = 26

# report: the latency use.  Every (m, family) cell holds the same number of
# requests, so the latency distribution has the same shape for every seed;
# the seed draws the few-parts partitions, the labels and the order.
REPORT_SIZES = (64, 128, 256, 512)
REPORT_RANDOM_PER_CELL = 8


def family_of(algebra: str) -> tuple[str, int]:
    """('sp', 30) for 'sp30'; so splits into so_odd / so_even by parity."""
    prefix, m = algebra[:2], int(algebra[2:])
    if prefix == "so":
        return ("so_odd" if m % 2 else "so_even"), m
    return prefix, m


def algebra_name(family: str, m: int) -> str:
    return ("so" if family.startswith("so") else family) + str(m)


def is_valid(family: str, parts) -> bool:
    """Parity rule: sp needs every odd part, so every even part, to occur an
    even number of times; sl has no rule."""
    if family == "sl":
        return True
    constrained = 1 if family == "sp" else 0
    counts: dict[int, int] = {}
    for p in parts:
        counts[p] = counts.get(p, 0) + 1
    return all(c % 2 == 0 for v, c in counts.items() if v % 2 == constrained)


def _coefficient(weights, m: int) -> int:
    """Coefficient of x^m in prod over w of 1 / (1 - x^w)."""
    ways = [1] + [0] * m
    for w in weights:
        for total in range(w, m + 1):
            ways[total] += ways[total - w]
    return ways[m]


def orbit_count(family: str, m: int) -> int:
    """Number of nilpotent orbits, from the generating function.

    A part of the constrained parity enters in pairs (weight 2v), any other
    part singly (weight v).  so_even counts each very even partition (all
    parts even, hence all paired) a second time, for its two labels.
    """
    if family == "sl":
        return _coefficient(range(1, m + 1), m)
    constrained = 1 if family == "sp" else 0
    weights = [2 * v if v % 2 == constrained else v for v in range(1, m + 1)]
    count = _coefficient(weights, m)
    if family == "so_even":
        count += _coefficient([2 * v for v in range(2, m + 1, 2)], m)
    return count


def selfcheck_algebras(max_m: int = SELFCHECK_MAX_M):
    """The (family, m) pairs `selfcheck max_m` sweeps."""
    pairs = [("sl", m) for m in range(1, max_m + 1)]
    pairs += [("sp", m) for m in range(2, max_m + 1, 2)]
    pairs += [("so_odd", m) for m in range(3, max_m + 1, 2)]
    pairs += [("so_even", m) for m in range(4, max_m + 1, 2)]
    return pairs


def atlas_requests(seed: int) -> list[dict]:
    """The four atlas calls; the input does not depend on the seed."""
    requests = []
    for algebra, fmt in ATLAS_CALLS:
        family, m = family_of(algebra)
        requests.append({
            "argv": ["atlas", algebra, "--format", fmt],
            "kind": "atlas", "family": family, "m": m, "format": fmt,
            "orbits": orbit_count(family, m),
        })
    return requests


def selfcheck_requests(seed: int) -> list[dict]:
    """One `selfcheck 26` call; the input does not depend on the seed."""
    return [{
        "argv": ["selfcheck", str(SELFCHECK_MAX_M)],
        "kind": "selfcheck", "format": "text",
        "orbits": sum(orbit_count(f, m) for f, m in selfcheck_algebras()),
    }]


def _compact(parts) -> str:
    pieces, i = [], 0
    while i < len(parts):
        j = i
        while j < len(parts) and parts[j] == parts[i]:
            j += 1
        pieces.append(f"{parts[i]}^{j - i}" if j - i > 1 else str(parts[i]))
        i = j
    return ",".join(pieces)


def _few_parts(rng: random.Random, family: str, m: int) -> list[int]:
    """A random valid partition of m with at most nine parts.

    Parts of the constrained parity are drawn as equal pairs; a draw that
    still breaks the parity rule is thrown away and drawn again.
    """
    constrained = 1 if family == "sp" else 0
    while True:
        parts, remaining = [], m
        for _ in range(rng.randint(1, 4)):
            if remaining < 2:
                break
            if family != "sl" and rng.random() < 0.4:
                v = rng.randint(1, remaining // 2)
                if v % 2 != constrained:
                    v -= 1
                if v > 0:
                    parts += [v, v]
                    remaining -= 2 * v
            else:
                v = rng.randint(1, remaining)
                parts.append(v)
                remaining -= v
        if remaining:
            parts.append(remaining)
        parts.sort(reverse=True)
        if is_valid(family, parts):
            return parts


def _report_request(family: str, m: int, parts: list[int], fmt: str,
                    label: str | None, anchor: bool) -> dict:
    argv = ["report", algebra_name(family, m), _compact(parts), "--format", fmt]
    if label is not None:
        argv += ["--label", label]
    return {
        "argv": argv, "kind": "report", "family": family, "m": m,
        "parts": parts, "label": label, "format": fmt, "anchor": anchor, "orbits": 1,
    }


def report_requests(seed: int) -> list[dict]:
    """160 single-orbit reports: per (m, family) cell two fixed many-parts
    shapes and eight seeded few-parts partitions.

    The many-parts shapes [1^m] and [2^k,1^(m-2k)] with k = m/8 (a fifth of
    the requests) hit the O(m*N) per-q path, N being the number of parts.
    They do not depend on the seed, so their outputs carry a recorded
    digest; [1^m] is asked as json, the other as text.  The seeded requests
    alternate text and json in their drawn order.
    """
    rng = random.Random(seed)
    anchors, drawn = [], []
    for size in REPORT_SIZES:
        for family in FAMILIES:
            m = size + 1 if family == "so_odd" else size
            k = size // 8
            anchors.append(_report_request(family, m, [1] * m, "json", None, True))
            anchors.append(_report_request(family, m, [2] * k + [1] * (m - 2 * k), "text", None, True))
            for _ in range(REPORT_RANDOM_PER_CELL):
                parts = _few_parts(rng, family, m)
                very_even = family == "so_even" and all(p % 2 == 0 for p in parts)
                label = rng.choice(("I", "II")) if very_even else None
                drawn.append((family, m, parts, label))
    rng.shuffle(drawn)
    requests = [
        _report_request(family, m, parts, ("text", "json")[i % 2], label, False)
        for i, (family, m, parts, label) in enumerate(drawn)
    ]
    requests += anchors
    rng.shuffle(requests)
    return requests


REQUESTS = {"atlas": atlas_requests, "report": report_requests, "selfcheck": selfcheck_requests}
