"""One measured repetition, in a fresh interpreter.

Imports orbitres.cli and builds its parser first, timing that as set-up;
then reads a job from stdin and runs each request through
``orbitres.cli.main`` in-process, one after the other, with stdout written
to a file, as a CLI user redirecting it would, and stderr captured.  Prints
one JSON line: set-up time, peak RSS, and per request the latency, exit
code, any exception and a digest of the output.

Right after set-up, and after the last request, the worker times twenty
fixed chunks of pure-Python work (``chunk``).  While requests run, a SIGALRM
timer times one more chunk every SAMPLE_EVERY_S seconds, also in the middle
of a request; that time is left out of the request's latency.  Each request reports the median chunk
time of the samples taken from WINDOW_S before it starts to WINDOW_S after
it ends, which lets run.py express its time at a fixed machine speed.  On
a shared machine the speed changes within a second, so chunks timed only
between requests miss much of what a request of a second or two met.

Job keys: ``requests`` (argv lists), ``trace`` (record spans),
``out_dir`` (write output i to i.out there), ``spans_path`` (write spans
there, or null).
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
_start = time.perf_counter()
import orbitres.cli  # noqa: E402

orbitres.cli.build_parser()
SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer  # noqa: E402

SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.5
CHUNK_PARTITIONS_OF = 12


def _partitions(total: int, max_part: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first, *rest)


def chunk() -> float:
    """Seconds a fixed chunk of work takes now.

    The chunk (generators, tuples, dict updates) is the kind of work the
    program does, so it slows down with the program when other tenants of
    the machine take the shared core, caches or memory bandwidth.
    """
    start = time.perf_counter()
    tally: dict[int, int] = {}
    for parts in _partitions(CHUNK_PARTITIONS_OF, CHUNK_PARTITIONS_OF):
        tally[len(parts)] = tally.get(len(parts), 0) + sum(p % 2 for p in parts)
    return time.perf_counter() - start


class Sampler:
    """SIGALRM handler: times a chunk and keeps (when, seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0  # seconds spent in the handler, to leave out of latencies

    def __call__(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, chunk()))
        self.spent += time.perf_counter() - start

    def around(self, start: float, end: float) -> float:
        return statistics.median(took for when, took in self.samples
                                 if start - WINDOW_S <= when <= end + WINDOW_S)


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as kept:
        for block in iter(lambda: kept.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run(job: dict) -> dict:
    tracer = Tracer() if job["trace"] else None
    main = tracer.install() if tracer else orbitres.cli.main
    sampler = Sampler()
    for _ in range(20):  # samples for the set-up and the first request's window
        sampler(None, None)
    setup_calibration = statistics.median(took for _, took in sampler.samples)
    signal.signal(signal.SIGALRM, sampler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    results, spans = [], []  # spans: (start, end) of each request
    for index, argv in enumerate(job["requests"]):
        path = os.path.join(job["out_dir"], f"{index}.out")
        err = io.StringIO()
        error = None
        if tracer:
            tracer.request_id = index
        with open(path, "w", encoding="utf-8") as out:
            spent = sampler.spent
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed request, not a failed run
                code, error = None, traceback.format_exc()[-2000:]
            out.flush()
            end = time.perf_counter()
            latency = end - start - (sampler.spent - spent)
        spans.append((start, end))
        results.append({
            "latency_s": latency, "exit": code, "error": error or err.getvalue()[-500:],
            "sha256": _file_sha256(path), "bytes": os.path.getsize(path),
        })
    signal.setitimer(signal.ITIMER_REAL, 0)
    for _ in range(20):  # samples for the last request's window
        sampler(None, None)
    for result, (start, end) in zip(results, spans):
        result["calibration_s"] = sampler.around(start, end)
    summary = {
        "setup_s": SETUP_S,
        "setup_calibration_s": setup_calibration,
        "calibration_s": statistics.median(took for _, took in sampler.samples),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    if tracer:
        summary["layers"] = tracer.layer_metrics()
        summary["spans"] = len(tracer.spans)
        if job["spans_path"]:
            tracer.write_spans(job["spans_path"])
    return summary


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))
