"""Tests of the benchmark itself: each workload at a tiny size with its
checks, the checkers against corrupted reports, the detector's thread-count
determinism, and the span recorder.

    python3 -m pytest perfbench -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, calibration, check, make_config  # noqa: E402

ROOT = HERE.parent
CAL = calibration(ROOT)
# two 20k-point chunks, so that a second thread has work
TWO_CHUNKS = 20001


def _command(tmp, name, config, threads=None, trace=False):
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    op_dir = tmp / "op"
    op_dir.mkdir()
    op = run.run_op(WORKLOADS[name], cfg_path, op_dir, trace=trace, threads=threads)
    return op, op_dir


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    runs = {}
    for name in WORKLOADS:
        config = make_config(name, 0, ROOT, size="tiny")
        op, op_dir = _command(tmp_path_factory.mktemp(name), name, config)
        runs[name] = (op, config, op_dir / "out")
    return runs


def _report(tiny, name):
    op, config, out = tiny[name]
    return json.loads((out / workloads.CHECKS[name][0]).read_text()), config


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(tiny, name):
    op, config, out = tiny[name]
    assert op["failures"] == []
    assert check(name, out, config, CAL) == []
    assert op["run_s"] > 0.0 and op["setup_s"] > 0.0 and op["peak_rss_mb"] > 0.0
    assert workloads.variance_term(name, out) > 0.0


def test_detect_check_rejects_wrong_chi(tiny):
    report, config = _report(tiny, "detect-line")
    report["chi"] += 1e-9
    assert any(f.startswith("chi ") for f in workloads.check_detect(report, config, CAL))


def test_growth_check_rejects_volume_off_by_1e6(tiny):
    report, config = _report(tiny, "growth-surface")
    report["runs"][0]["table"][-1]["volume"] *= 1.0 + 1e-6
    fails = workloads.check_growth(report, config, CAL)
    assert any("ln(V_n/V_0)" in f for f in fails)


def test_exponents_check_rejects_nonzero_sum(tiny):
    report, config = _report(tiny, "exponents-orbit")
    report["sum"] = 1e-5
    fails = workloads.check_exponents(report, config, CAL)
    assert any(f.startswith("exponent sum") for f in fails)


def test_check_reports_malformed_report(tiny, tmp_path):
    report, config = _report(tiny, "exponents-orbit")
    del report["spectrum"][0]["exponents"]
    (tmp_path / "exponents.json").write_text(json.dumps(report))
    fails = check("exponents-orbit", tmp_path, config, CAL)
    assert fails and "malformed" in fails[0]


def test_detect_reports_identical_for_one_and_two_threads(tmp_path):
    config = make_config("detect-line", 0, ROOT, size="tiny")
    config["mc"]["samples"] = TWO_CHUNKS
    files = {}
    for threads in (1, 2):
        tmp = tmp_path / f"t{threads}"
        tmp.mkdir()
        op, op_dir = _command(tmp, "detect-line", config, threads=threads)
        assert op["failures"] == []
        out = op_dir / "out"
        files[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(files[1]) == ["detect.csv", "detect.json", "runs.jsonl"]
    assert files[1] == files[2]


def test_traced_run_keeps_worker_parents_and_reports_every_layer(tmp_path):
    config = make_config("detect-line", 0, ROOT, size="tiny")
    config["mc"]["samples"] = TWO_CHUNKS
    op, op_dir = _command(tmp_path, "detect-line", config, threads=2, trace=True)
    assert op["failures"] == []
    recorded, missing = spans.read_spans(op_dir / "spans.jsonl")
    assert missing == []
    main_thread = next(s["thread"] for s in recorded
                       if s["name"] == "experiments.cmd_detect")
    workers = [s for s in recorded if s["thread"] != main_thread]
    assert workers, "two chunks on two threads should run on a worker"
    by_id = {s["id"]: s for s in recorded}
    for s in workers:
        assert s["parent"] in by_id
    assert {by_id[s["parent"]]["name"] for s in workers
            if by_id[s["parent"]]["thread"] == main_thread} == {
        "lyapunov.integrated_exponent"}
    metrics = spans.op_metrics(recorded)
    assert set(metrics) | {"trace.overhead_s"} == {n for n, _ in spans.LAYER_METRICS}
    assert metrics["lyapunov.integrated.samples"] == TWO_CHUNKS
    assert metrics["bundles.ladder_retry_ratio"] >= 1.0
    assert metrics["torusmap.points"] > TWO_CHUNKS


def test_self_time_subtracts_union_of_overlapping_children():
    recorded = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 6.0},  # another thread
        {"id": 4, "parent": 2, "start": 2.0, "end": 3.0},
    ]
    assert spans.self_times(recorded) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_metrics_of_a_missing_helper_are_absent():
    per_op = [{name: 1.0 for name, _ in spans.LAYER_METRICS}]
    metrics, absent = spans.layer_metrics(per_op, ["bundles._transport_pair"], 0.1)
    assert absent == ["bundles.frame_products", "bundles.ladder_retry_ratio",
                      "bundles.orbit_mb", "bundles.transport.rows_transported"]
    assert all(metrics[name]["value"] is None for name in absent)
    assert metrics["leafgrowth.edges_deduped"]["value"] == 1.0
    assert metrics["trace.overhead_s"]["value"] == 0.1


def test_benchmark_json_names_every_metric_reported():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload",
         "detect-line", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
