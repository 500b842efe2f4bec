"""orbitres benchmark: one workload, measured end to end or per layer.

    python3 perfbench/run.py --workload {atlas,report,selfcheck} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds src/orbitres.  The load is one
closed-loop caller: each repetition is a fresh interpreter (perfbench/
worker.py) that runs the workload's requests one after the other through
orbitres.cli.main, so program caches start cold as they do for a CLI user.
Repetitions follow each other until the next one would end after S seconds.

--trace 0 reports the end-to-end metrics from untraced repetitions; --trace 1
traces every repetition and reports the per-layer metrics (tracing.py).
The metric names and units come from BENCHMARK.json; metrics.json lists the
summary-only extras.  Every output is checked (checks.py); a request fails
on a non-zero exit, an exception, or an output that fails its check.  The
last line of stdout is the JSON result; .bench_out/<workload>-seed<N>-
trace<T>/ keeps a summary with every metric and, for a traced run, the
spans of one repetition.

Each end-to-end metric is the median over repetitions of its value in one
repetition.  A latency sample is one orbit answer, delivered when the call
that asked for it returns: a report call delivers one, an atlas or selfcheck
call delivers every orbit it covers.  A run reports its percentiles only
when, over all its repetitions, at least ten samples lie beyond them.

Times are given at a fixed machine speed.  Other tenants of a shared machine
can slow it by half for seconds or minutes at a time, which would swamp
any change to the program.  So the worker times a fixed chunk of
pure-Python work twenty times a second, in the middle of requests too, and
each request's time is scaled by REFERENCE_CALIBRATION_S over the chunk
time measured around it; layer times use the repetition's median chunk
time.  summary.json also keeps the unscaled end-to-end figures.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracing import TIME_METRICS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).with_name("worker.py")
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 40  # a repetition takes under 10 s on a quiet machine
MEASURE_CAP_S = 100  # with one more repetition, keeps a run inside three minutes
# the calibration chunk on an idle 2-vCPU Intel Xeon with CPython 3.11, so
# scaled times read as times on that machine
REFERENCE_CALIBRATION_S = 0.000206


def metric_units(trace: bool) -> tuple[dict[str, str], dict[str, str]]:
    """(result-line metrics, summary-only metrics), each name -> unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    extras = json.loads(Path(__file__).with_name("metrics.json").read_text())["summary_only"]
    return result, extras if trace else {}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def run_worker(requests: list[list[str]], out_dir, trace=False, spans_path=None) -> dict:
    job = {"requests": requests, "trace": trace,
           "out_dir": str(out_dir), "spans_path": spans_path and str(spans_path)}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    summary["wall_s"] = time.perf_counter() - start
    summary["scale"] = REFERENCE_CALIBRATION_S / summary["calibration_s"]
    summary["scaled_setup_s"] = summary["setup_s"] * REFERENCE_CALIBRATION_S / summary["setup_calibration_s"]
    for result in summary["results"]:
        result["scaled_s"] = result["latency_s"] * REFERENCE_CALIBRATION_S / result["calibration_s"]
    return summary


def percentile(samples: list[tuple[float, int]], p: float, min_beyond: int = 10) -> float:
    """Nearest-rank percentile of weighted samples (value, weight).

    Raises ValueError when fewer than ``min_beyond`` samples lie strictly
    beyond the result, since such a percentile says nothing stable.
    """
    ordered = sorted(samples)
    total = sum(weight for _, weight in ordered)
    running = 0
    for value, weight in ordered:
        running += weight
        if running >= p * total:
            break
    beyond = sum(weight for v, weight in ordered if v > value)
    if beyond < min_beyond:
        raise ValueError(f"only {beyond} of {total} samples lie beyond p{round(100 * p)}")
    return value


def latency_samples(requests: list[dict], reps: list[dict], key="scaled_s") -> list[tuple[float, int]]:
    """(milliseconds, orbits answered) per request of the repetitions."""
    return [(result[key] * 1000, request["orbits"])
            for rep in reps for request, result in zip(requests, rep["results"])]


def latencies_ready(requests: list[dict], reps: list[dict]) -> bool:
    try:
        percentile(latency_samples(requests, reps), 0.9)
    except ValueError:
        return False
    return True


def measure(requests: list[dict], seconds: float, trace: bool, out_dir: Path) -> list[dict]:
    """Repetitions until the next would end after ``seconds``.

    The first repetition's outputs stay in out_dir/outputs, for judge; the
    later ones overwrite each other in out_dir/scratch.  An untraced run
    goes on until its p90 latency can be reported, a traced run until it
    has two repetitions.
    """
    argvs = [request["argv"] for request in requests]
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        first = not reps
        reps.append(run_worker(argvs, out_dir / ("outputs" if first else "scratch"), trace,
                               out_dir / "spans.jsonl" if trace and first else None))
        elapsed = time.perf_counter() - start
        enough = len(reps) >= 2 if trace else latencies_ready(requests, reps)
        if enough and elapsed + statistics.median(r["wall_s"] for r in reps) > seconds:
            return reps
        if elapsed > MEASURE_CAP_S:
            if not enough:
                raise BenchError(f"{len(reps)} repetitions in {elapsed:.0f} s are too few to report")
            return reps


def judge(requests: list[dict], reps: list[dict], keep_dir: Path) -> tuple[int, list[str]]:
    """Failed requests over all repetitions, and what went wrong.

    The first repetition's outputs are checked in full; a later output must
    be byte-identical to the checked one, or it fails.
    """
    reference = checks.load_reference()
    bad, problems = set(), []
    for index, (request, result) in enumerate(zip(requests, reps[0]["results"])):
        text = (keep_dir / f"{index}.out").read_text()
        issues = checks.check_output(request, text, result["exit"], reference)
        if result["exit"] != 0 and result["error"]:
            issues.append(result["error"].strip().splitlines()[-1])
        if issues:
            bad.add(index)
            problems += [f"{checks.request_key(request)}: {issue}" for issue in issues]
    failed = 0
    for rep in reps:
        for index, (first, result) in enumerate(zip(reps[0]["results"], rep["results"])):
            if index in bad or result["exit"] != 0 or result["sha256"] != first["sha256"]:
                failed += 1
    return failed, problems


def _call_seconds(rep: dict, key="scaled_s") -> float:
    return sum(result[key] for result in rep["results"])


def e2e_metrics(requests: list[dict], reps: list[dict], probes: list[dict], scaled=True) -> dict[str, float]:
    """End-to-end metrics from untraced repetitions; every repetition, and
    every set-up probe, counts as one set-up sample."""
    key, setup_key = ("scaled_s", "scaled_setup_s") if scaled else ("latency_s", "setup_s")
    orbits = sum(request["orbits"] for request in requests)
    pooled = latency_samples(requests, reps, key)
    percentile(pooled, 0.9)  # refuses a run with too thin a tail
    by_rep = [latency_samples(requests, [rep], key) for rep in reps]
    return {
        "setup_s": statistics.median(rep[setup_key] for rep in probes + reps),
        "orbits_per_s": statistics.median(orbits / _call_seconds(rep, key) for rep in reps),
        "latency_p50_ms": statistics.median(percentile(s, 0.5, min_beyond=0) for s in by_rep),
        "latency_p90_ms": statistics.median(percentile(s, 0.9, min_beyond=0) for s in by_rep),
        "peak_rss_mb": statistics.median(rep["peak_rss_kb"] / 1024 for rep in reps),
    }


def layer_metrics(requests: list[dict], reps: list[dict]) -> dict[str, float]:
    """Per-layer metrics from traced repetitions: medians over them, times
    scaled like the end-to-end ones."""
    metrics = {name: statistics.median(rep["layers"][name] * (rep["scale"] if name in TIME_METRICS else 1)
                                       for rep in reps)
               for name in reps[0]["layers"]}
    metrics["enumeration.yield_ratio"] = (
        metrics["enumeration.orbits_yielded"] / metrics["enumeration.partitions_scanned"]
        if metrics["enumeration.partitions_scanned"] else 0.0)
    metrics["hesselink.image_ratio"] = (
        metrics["hesselink.q_in_image"] / metrics["hesselink.q_examined"]
        if metrics["hesselink.q_examined"] else 0.0)
    metrics["report.json_bytes"] = sum(
        result["bytes"] for request, result in zip(requests, reps[0]["results"])
        if request["format"] == "json")
    metrics["trace.spans"] = statistics.median(rep["spans"] for rep in reps)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.REQUESTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "orbitres" / "cli.py").is_file():
        print(f"error: no orbitres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    requests = workloads.REQUESTS[args.workload](args.seed)
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    for name in ("outputs", "scratch"):
        (out_dir / name).mkdir(parents=True)
    try:
        run_worker([], out_dir)  # a fresh checkout compiles its bytecode here, untimed
        probes = [run_worker([], out_dir) for _ in range(SETUP_PROBES)]
        reps = measure(requests, args.seconds, bool(args.trace), out_dir)
        failed, problems = judge(requests, reps, out_dir / "outputs")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in ("outputs", "scratch"):
            shutil.rmtree(out_dir / name, ignore_errors=True)

    units, extras = metric_units(bool(args.trace))
    metrics = layer_metrics(requests, reps) if args.trace else e2e_metrics(requests, reps, probes)
    attempted = len(requests) * len(reps)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "repetitions": len(reps), "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "latency_samples": len(latency_samples(requests, reps)),
        "repetition_call_s": [_call_seconds(rep) for rep in reps],
        "metrics": metrics, "problems": problems[:50],
        "unscaled_metrics": None if args.trace else e2e_metrics(requests, reps, probes, scaled=False),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name:32} {value:14.6g} {units.get(name) or extras[name]}")
    print(f"{'failed_ratio':32} {failed / attempted:14.6g} ({failed}/{attempted}, {len(reps)} repetitions)")
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
