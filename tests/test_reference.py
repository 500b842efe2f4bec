"""The benchmark's seed-independent outputs match their recorded digests.

Runs the atlas calls, the selfcheck sweep and the 32 report anchors of
``perfbench/workloads.py`` in-process through ``orbitres.cli.main`` and
checks each output with ``perfbench/checks.check_output`` against
``perfbench/reference.json``: the oracle checks and the digest of the whole
output.  It reads ``perfbench/`` and writes nothing there.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from orbitres.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402

REQUESTS = workloads.atlas_requests(0) + workloads.selfcheck_requests(0)
REQUESTS += [r for r in workloads.report_requests(0) if r["anchor"]]
REFERENCE = checks.load_reference()


def test_every_seed_independent_request_is_recorded():
    assert len(REQUESTS) == 37
    assert sorted(map(checks.request_key, REQUESTS)) == sorted(REFERENCE)


@pytest.mark.parametrize("request_", REQUESTS, ids=checks.request_key)
def test_output_matches_reference(monkeypatch, request_):
    monkeypatch.delenv("ORBITRES_MAX_M", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(request_["argv"])
    assert checks.check_output(request_, out.getvalue(), code, REFERENCE) == []
