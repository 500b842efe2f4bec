"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from orbitres import Family, LieType, admits_symplectic_resolution, count_orbits  # noqa: E402
from orbitres import enumerate_orbits, orbit_dimension, validate_orbit  # noqa: E402

FAMILY = {"sl": Family.SL, "sp": Family.SP, "so_odd": Family.SO_ODD, "so_even": Family.SO_EVEN}


def _outputs(requests, tmp_path, trace=False):
    rep = run.run_worker([r["argv"] for r in requests], tmp_path, trace=trace)
    texts = [(tmp_path / f"{i}.out").read_text() for i in range(len(requests))]
    return rep, texts


def test_report_generator_is_deterministic_and_valid():
    first, again, other = (workloads.report_requests(s) for s in (7, 7, 8))
    assert first == again
    assert [r["argv"] for r in first] != [r["argv"] for r in other]
    assert len(first) == 160
    assert sum(r["anchor"] for r in first) == 32
    for request in first:
        assert sum(request["parts"]) == request["m"]
        assert request["parts"] == sorted(request["parts"], reverse=True)
        assert workloads.is_valid(request["family"], request["parts"])
        validate_orbit(LieType(FAMILY[request["family"]], request["m"]), request["parts"])
        if not request["anchor"]:
            assert len(request["parts"]) <= 9
    formats = [r["format"] for r in first if not r["anchor"]]
    assert formats.count("json") == formats.count("text")


def test_parity_rule_rejects_what_orbitres_rejects():
    assert workloads.is_valid("sp", [3, 3, 2])
    assert not workloads.is_valid("sp", [3, 2, 1])
    assert workloads.is_valid("so_odd", [3, 2, 2])
    assert not workloads.is_valid("so_even", [4, 2, 1, 1])


@pytest.mark.parametrize("family,low,step", [("sl", 1, 1), ("sp", 2, 2), ("so_odd", 3, 2), ("so_even", 4, 2)])
def test_oracles_agree_with_orbitres_on_small_algebras(family, low, step):
    for m in range(low, 15, step):
        lie_type = LieType(FAMILY[family], m)
        assert workloads.orbit_count(family, m) == count_orbits(lie_type)
        for orbit in enumerate_orbits(lie_type):
            parts = list(orbit.partition.parts)
            assert checks.dimension(family, parts) == orbit_dimension(orbit)
            expected = admits_symplectic_resolution(orbit).answer.value == "yes"
            assert checks.resolvable(family, parts) == expected


def test_percentile_refuses_p90_with_fewer_than_ten_samples_beyond():
    samples = [(float(v), 1) for v in range(1, 100)]  # p90 is 90, with 9 beyond
    with pytest.raises(ValueError):
        run.percentile(samples, 0.9)
    samples.append((100.0, 1))
    assert run.percentile(samples, 0.9) == 90.0
    assert run.percentile(samples, 0.5) == 50.0


def test_digest_check_catches_a_flipped_verdict(tmp_path):
    reference = checks.load_reference()
    anchors = [r for r in workloads.report_requests(0)
               if r["anchor"] and r["family"] == "so_even" and r["m"] == 64]
    rep, texts = _outputs(anchors, tmp_path)
    for request, text, result in zip(anchors, texts, rep["results"]):
        assert checks.check_output(request, text, result["exit"], reference) == []
        flip = {"yes": "no", "no": "yes"}
        if request["format"] == "json":
            doctored = json.loads(text)
            doctored["resolution"]["answer"] = flip[doctored["resolution"]["answer"]]
            doctored = json.dumps(doctored, indent=2)
        else:
            answer = "yes" if "resolution     yes" in text else "no"
            doctored = text.replace(f"resolution     {answer}", f"resolution     {flip[answer]}")
        assert doctored != text
        problems = checks.check_output(request, doctored, 0, reference)
        assert "digest differs from the recorded one" in problems


def test_records_check_catches_blanked_and_doctored_records(tmp_path):
    request = workloads._report_request("sp", 12, [3, 3, 2, 2, 1, 1], "json", None, False)
    rep, (text,) = _outputs([request], tmp_path)
    assert checks.check_output(request, text, 0, {}) == []
    row = json.loads(text)
    blanked = dict(row, hesselink=[])
    assert any("Hesselink records" in p for p in checks.check_output(request, json.dumps(blanked), 0, {}))
    records = [dict(h) for h in row["hesselink"]]
    hit = next(h for h in records if h["in_image"])
    hit["N_P"] *= 2
    doctored = dict(row, hesselink=records)
    assert any("differ from the witnesses" in p
               for p in checks.check_output(request, json.dumps(doctored), 0, {}))


def test_oracle_catches_a_wrong_picard_group_in_a_seeded_report(tmp_path):
    request = next(r for r in workloads.report_requests(5) if not r["anchor"] and r["format"] == "text")
    rep, (text,) = _outputs([request], tmp_path)
    assert checks.check_output(request, text, 0, {}) == []
    line = next(line for line in text.splitlines() if line.strip().startswith("picard"))
    doctored = text.replace(line, "  picard         Z^7")
    assert any("picard Z^7" in p for p in checks.check_output(request, doctored, 0, {}))


def test_nonzero_exit_counts_as_failed(tmp_path):
    requests = [
        workloads._report_request("sp", 6, [2, 2, 1, 1], "text", None, False),
        workloads._report_request("sp", 6, [3, 2, 1], "text", None, False),  # 3 and 1 once each
    ]
    rep = run.run_worker([r["argv"] for r in requests], tmp_path)
    assert [result["exit"] for result in rep["results"]] == [0, 2]
    failed, problems = run.judge(requests, [rep, rep], tmp_path)
    assert failed == 2
    assert any("exit code 2" in p for p in problems)


def test_tracing_keeps_outputs_and_describes_every_metric(tmp_path):
    requests = [r for r in workloads.report_requests(3) if r["m"] == 64][:10]
    plain, _ = _outputs(requests, tmp_path)
    traced, _ = _outputs(requests, tmp_path, trace=True)
    assert [r["sha256"] for r in plain["results"]] == [r["sha256"] for r in traced["results"]]
    layers = traced["layers"]
    bcd = sum(1 for r in requests if r["family"] != "sl")
    assert layers["hesselink.q_examined"] >= bcd
    assert layers["report.build_s"] >= layers["report.assembly_s"] > 0
    assert layers["enumeration.partitions_scanned"] == 0
    assert layers["trace.overhead_s"] > 0

    emitted = set(run.layer_metrics(requests, [traced]))
    result, extras = run.metric_units(trace=True)
    assert not set(result) & set(extras)
    assert set(result) | set(extras) == emitted
    assert set(json.loads((HERE / "metrics.json").read_text())["layers"]) == emitted
