"""Spans around the calls into each orbitres layer, recorded from outside.

``Tracer.install`` rebinds every public function listed in LAYERS, in every
orbitres module namespace that holds it, to a wrapper that records a span:
name, start, end, parent span and request id.  Rebinding the name in every
namespace catches ``from .x import f`` imports and calls inside the module
alike.  Spans stay in memory; ``layer_metrics`` turns them into per-layer
times, and ``write_spans`` writes them out when the repetition ends.

The tracer's own cost, trace.overhead_s, is the span count times the cost
of one span, timed in the same process on a traced and a plain no-op call
(``span_cost``).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

# span name -> the per-layer metric whose time it counts
LAYERS = {
    "orbits.parse_algebra": "orbits.parse_s",
    "orbits.parse_partition": "orbits.parse_s",
    "orbits.validate_orbit": "orbits.parse_s",
    "orbits.profile": "orbits.profile_s",
    "orbits.is_even_orbit": "orbits.profile_s",
    "orbits.orbit_dimension": "orbits.profile_s",
    "enumeration.enumerate_orbits": "enumeration.s",
    "picard.picard": "picard.s",
    "picard.q_factorial_certificate": "picard.s",
    "picard.is_factorial": "picard.s",
    "hesselink.polarizable": "hesselink.polarizable_s",
    "hesselink.resolution_by_search": "hesselink.search_s",
    "hesselink.admissible_reports": "hesselink.records_s",
    "resolution.closed_form_verdict": "resolution.closed_form_s",
    "resolution.admits_symplectic_resolution": "resolution.dispatch_s",
    "report.build_report": "report.build_s",
    "report.report_json": "report.render_json_s",
    "json.dumps": "report.render_json_s",
    "report.report_text": "report.render_text_s",
    "report.atlas_markdown": "report.render_md_s",
    "report.atlas_csv": "report.render_csv_s",
}
TIME_METRICS = tuple(dict.fromkeys(LAYERS.values())) + (
    "report.assembly_s", "cli.overhead_s", "trace.overhead_s")
COUNT_METRICS = (
    "enumeration.partitions_scanned",
    "enumeration.orbits_yielded",
    "hesselink.q_examined",
    "hesselink.q_in_image",
)

_DONE = object()


class _JsonProxy:
    """Stands in for the json module inside orbitres.cli, with dumps traced."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def span_cost(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds one span adds to a call: the median over ``rounds`` of the
    per-call difference between a traced and a plain no-op."""
    def noop():
        return None

    costs = []
    for _ in range(rounds):
        traced = Tracer().wrap("probe", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - plain) / calls)
    return statistics.median(costs)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request id]
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: Counter = Counter()
        self._scan_depth = 0

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request_id])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn, after=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result)
            return result
        return traced

    def wrap_pulls(self, name: str, generator_fn):
        """One span per item pulled, so only the generator's own work counts."""
        def traced(*args, **kwargs):
            iterator = generator_fn(*args, **kwargs)
            while True:
                index = self._open(name)
                try:
                    item = next(iterator, _DONE)
                finally:
                    self._close(index)
                if item is _DONE:
                    return
                self.counts["enumeration.orbits_yielded"] += 1
                yield item
        return traced

    def wrap_scan(self, generator_fn):
        """Count the partitions a top-level partitions_desc call yields; the
        function recurses through its module name, so inner calls pass by."""
        def counted(*args, **kwargs):
            if self._scan_depth:
                yield from generator_fn(*args, **kwargs)
                return
            self._scan_depth += 1
            try:
                for parts in generator_fn(*args, **kwargs):
                    self.counts["enumeration.partitions_scanned"] += 1
                    yield parts
            finally:
                self._scan_depth -= 1
        return counted

    def _count_records(self, records) -> None:
        self.counts["hesselink.q_examined"] += len(records)
        self.counts["hesselink.q_in_image"] += sum(1 for r in records if r.in_image)

    def install(self):
        """Rebind the traced functions; returns a traced orbitres.cli.main."""
        import orbitres.cli as cli

        modules = [m for name, m in sys.modules.items()
                   if name == "orbitres" or name.startswith("orbitres.")]
        replacements = {}
        for span_name in LAYERS:
            module_name, function_name = span_name.split(".")
            if module_name == "json":
                continue
            original = getattr(sys.modules[f"orbitres.{module_name}"], function_name)
            if function_name == "enumerate_orbits":
                wrapper = self.wrap_pulls(span_name, original)
            elif function_name == "admissible_reports":
                wrapper = self.wrap(span_name, original, after=self._count_records)
            else:
                wrapper = self.wrap(span_name, original)
            replacements[id(original)] = wrapper
        import orbitres.enumeration as enumeration
        replacements[id(enumeration.partitions_desc)] = self.wrap_scan(enumeration.partitions_desc)
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in replacements:
                    namespace[key] = replacements[id(value)]
        cli.json = _JsonProxy(self.wrap("json.dumps", json.dumps))
        return self.wrap("cli.main", cli.main)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer seconds and counts for the spans recorded so far.

        A layer's time sums its spans, leaving out spans nested inside a span
        of the same layer.  report.assembly_s and cli.overhead_s are self
        times: build_report and cli.main minus their direct child spans.
        trace.overhead_s is the span count times ``span_cost()``.
        """
        spans = self.spans
        metrics = dict.fromkeys(TIME_METRICS, 0.0)
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            if name == "cli.main":
                metrics["cli.overhead_s"] += duration - children[index]
                continue
            layer = LAYERS[name]
            if name == "report.build_report":
                metrics["report.assembly_s"] += duration - children[index]
            while parent >= 0 and LAYERS.get(spans[parent][0]) != layer:
                parent = spans[parent][3]
            if parent < 0:
                metrics[layer] += duration
        metrics["trace.overhead_s"] = len(spans) * span_cost()
        for name in COUNT_METRICS:
            metrics[name] = self.counts[name]
        return metrics

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, request in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "request": request}) + "\n")
