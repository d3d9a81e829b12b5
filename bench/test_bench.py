"""Tests of the benchmark itself, at smoke sizes."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.add_src_path()

import mixedsums.norms  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def out_dir(monkeypatch, tmp_path):
    """Keep the tests' temporary inputs and span files out of bench/out."""
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


def smoke(workload: str, trace: int, seconds: float = 0.0) -> dict:
    args = run.parse_args(
        ["--workload", workload, "--seconds", str(seconds), "--trace", str(trace), "--size", "smoke"]
    )
    return run.run(args, env={}, import_s=0.0)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_workload_reports_every_metric(workload):
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    plain = smoke(workload, trace=0)
    assert plain["failed"] == 0, plain["failures"]
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    assert all(plain["reported"][k]["value"] > 0 for k in ("item_p50_ms", "item_tail_ms"))
    traced = smoke(workload, trace=1)
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert traced["missing_spans"] == []


def test_corrupted_brute_value_counts_as_failed(monkeypatch):
    honest = mixedsums.norms.brute_force_norm

    def off_by_one(form, *args, **kwargs):
        est = honest(form, *args, **kwargs)
        return dataclasses.replace(est, value=est.value + 1.0)

    monkeypatch.setattr(mixedsums.norms, "brute_force_norm", off_by_one)
    result = smoke("brute_exact", trace=0)
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert result["failed_frac"] == 1.0


def test_changed_output_on_rerun_counts_as_failed(tmp_path):
    items = workloads.setup_bound_growth(0, "smoke", tmp_path)
    golden = [item.encode(item.run()) for item in items]
    golden[0] = golden[0] + b"!"
    _, failures, _ = run.measure(items, [None] * len(items), golden, 0.0)
    assert [name for name, _ in failures] == [items[0].name]


@pytest.mark.parametrize("workload", ["suite", "ascent_large"])
def test_traced_self_times_sum_to_at_most_item_latency(workload, tmp_path):
    items = workloads.WORKLOADS[workload](0, "smoke", tmp_path)
    with tracing.Tracer() as tracer:
        latencies, failures, _ = run.measure(items, [None] * len(items), [None] * len(items), 0.0, tracer)
    groups = tracing.by_item(tracer.spans)
    assert set(groups) == set(range(len(items)))
    for item_id, spans in groups.items():
        self_time = tracing.attribute(spans)
        assert sum(self_time.values()) <= latencies[item_id] + 1e-9


def test_attribute_splits_concurrent_leaves():
    S = tracing.Span
    spans = [
        S(0, "norms.ascent", 0.0, 10.0, None, 0, 1, None),
        S(1, "forms.partial_contract", 1.0, 5.0, 0, 0, 2, None),
        S(2, "norms.dual_maximizer", 2.0, 6.0, 0, 0, 3, None),
    ]
    self_time = tracing.attribute(spans)
    assert self_time == pytest.approx({0: 5.0, 1: 2.5, 2: 2.5})
    summary = tracing.summarize(spans)
    assert summary["names"]["norms.ascent"]["s"] == pytest.approx(10.0)
    assert summary["layers"]["norms"] == pytest.approx(7.5)


def test_tail_keeps_ten_samples_beyond():
    pct, value = run.tail([float(x) for x in range(1, 101)])
    assert value == 90.0
    assert pct == pytest.approx(100.0 * 89 / 99)


def test_run_fails_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
