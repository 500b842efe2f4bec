"""Record the digests of the seed-independent requests in reference.json.

    python3 perfbench/record_reference.py

Runs the atlas calls, the selfcheck sweep and the report anchors once and
stores, per request, the digest checks.py compares later outputs with.
Refuses to record an output that fails any other check.  Re-record only when
a change is meant to alter these answers, and say so in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

import checks
import workloads
from run import run_worker


def main() -> int:
    requests = workloads.atlas_requests(0) + workloads.selfcheck_requests(0)
    requests += [r for r in workloads.report_requests(0) if r["anchor"]]
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent.parent) as keep_dir:
        rep = run_worker([r["argv"] for r in requests], keep_dir)
        digests = {}
        for index, (request, result) in enumerate(zip(requests, rep["results"])):
            text = (Path(keep_dir) / f"{index}.out").read_text()
            problems = checks.check_output(request, text, result["exit"], {})
            problems = [p for p in problems if p != "no digest recorded for this request"]
            if problems:
                print(f"{checks.request_key(request)}: {problems}", file=sys.stderr)
                return 1
            digests[checks.request_key(request)] = checks.output_digest(request, text)
    checks.REFERENCE_PATH.write_text(json.dumps(dict(sorted(digests.items())), indent=2) + "\n")
    print(f"recorded {len(digests)} digests in {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
