"""Smoke test of the benchmark's own code at tiny workload sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"


def _bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    spec = _bench_spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(harness.PER_LAYER)
    assert spec["paths"] == [HERE.name]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    out = harness.measure(WORKLOADS[name].shrunk(), 5, 0.0, SRC, tmp_path)
    session = out["session"]
    assert (session.attempted, session.failed) == (4, 0)  # warm-up + 3
    assert len(out["samples"]["run_s"]) == harness.MIN_TIMED_RUNS
    assert len(out["samples"]["setup_s"]) == harness.SETUP_REPEATS
    assert set(out["metrics"]) == {n for n, _ in harness.END_TO_END}
    assert all(math.isfinite(v) and v > 0 for v in out["metrics"].values())
    assert out["metrics"]["auc"] <= 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_reports_every_layer(name, tmp_path):
    workload = WORKLOADS[name].shrunk()
    out = harness.measure_traced(workload, 5, 0.0, SRC, tmp_path)
    assert out["session"].failed == 0
    m = out["metrics"]
    assert list(m) == [n for n, _ in harness.PER_LAYER]
    slices = 2 * workload.synth["n_per_class"]
    assert m["features.build_features.rows"] >= slices
    assert m["synth.generate.total_s"] > 0
    assert 0 < m["untraced_s"] < m["trace.run_s"]
    assert out["samples"]["trace.overhead_s"]
    if workload.config["feature_source"] == "radiomics":
        assert m["features.build_features.columns"] == 374
        assert m["data_model.load_sample.calls"] == slices
        assert m["kernels.conv_full.calls"] == 0
        assert m["kernels.glrlm_counts.roi_pixels"] > 0
    else:
        assert m["kernels.glrlm_counts.calls"] == 0
        assert m["kernels.conv_full.gflop_per_s"] > 0
        assert m["crbm.train.images_per_s"] > 0
    if workload.config["feature_source"] == "crbm-patch":
        # every slice is loaded once to train and once to extract
        assert m["data_model.load_sample.calls"] == 2 * slices


def test_tracer_self_times_and_idle_modules():
    tracer = tracing.Tracer()
    with tracer.span("run"):
        with tracer.span("a.outer"):
            with tracer.span("b.inner"):
                pass
        with tracer.span("b.inner"):
            pass
    stats = tracer.aggregate()
    assert stats["b.inner"]["calls"] == 2
    assert sum(row["self_s"] for row in stats.values()) \
        == pytest.approx(stats["run"]["total_s"])
    assert tracer.idle_modules(("a", "b", "c")) == ["c"]


def test_unreported_self_time_fails_the_consistency_check():
    tracer = tracing.Tracer()
    with tracer.span("run"):
        with tracer.span("pls.fit_reducer"):
            with tracer.span("not.reported"):
                sum(range(10000))
    metrics = harness.layer_metrics(tracer.aggregate())
    assert metrics["pls.fit_reducer.self_s"] > 0
    assert harness.consistency_problems(metrics) != []
    del tracer.spans[2]  # without the unreported span the sum holds
    assert harness.consistency_problems(
        harness.layer_metrics(tracer.aggregate())) == []


def test_trace_points_are_restored():
    from crbm_radiomics import kernels
    before = kernels.conv_full
    with tracing.Tracer().installed():
        assert kernels.conv_full is not before
    assert kernels.conv_full is before


def test_changed_report_is_a_failed_run(tmp_path):
    session = harness.Session(WORKLOADS["radiomics-rf"].shrunk(), 5, SRC,
                              tmp_path)
    session.setup()
    session.timed_run(0)
    report = tmp_path / "out" / "run0.json"
    doc = json.loads(report.read_text())
    doc["report"]["auc"] = 0.5
    report.write_text(json.dumps(doc))
    _, problems = harness.check_outputs(report, session.shape,
                                        session._reference)
    assert any("ROC CSV" in p for p in problems)
    assert any("first run's bytes" in p for p in problems)
    report.write_text("{")
    assert "unreadable output" in harness.check_outputs(
        report, session.shape, None)[1][0]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "radiomics-rf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
