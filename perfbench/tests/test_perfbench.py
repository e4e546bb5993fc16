"""Tests of the benchmark's own code: names, repeatable counts, failing checks.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import spans
import workloads
from kronproj import adaptive, oracle, projmaint, sketch

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced(workload, seed, rounds):
    tracer = spans.Tracer()
    budget = workloads.Budget(rounds=rounds)
    with tracer.installed():
        run = workloads.WORKLOADS[workload](seed, budget)
    return run, spans.layer_metrics(tracer.spans, budget.started, run, 0.0)


def test_printed_names_and_units_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(bench.WORKLOAD_NAMES)
    e2e = {name: unit for name, (_, unit, _) in bench.end_to_end(workloads.Run()).items()}
    assert e2e == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = spans.layer_metrics([], 0.0, workloads.Run(), 0.0)
    assert {n: u for n, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_result_line_carries_every_end_to_end_metric(capsys):
    assert bench.run_one("adaptive-setquery", 3, 0.5, 0) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload,rounds", [
    ("maint-uniform", 1), ("maint-sparse", 1), ("adaptive-setquery", 1), ("sketch-ce", 1),
])
def test_counts_repeat_exactly_for_a_seed(workload, rounds):
    first, a = _traced(workload, 5, rounds)
    second, b = _traced(workload, 5, rounds)
    counted = [n for n, (_, unit) in a.items() if unit in ("count", "bytes", "fraction")]
    counted.remove("trace.overhead_frac")
    assert {n: a[n][0] for n in counted} == {n: b[n][0] for n in counted}
    assert first.attempted == second.attempted > 0 and first.failed == second.failed == 0
    busy = [n for n in counted if n.endswith(".calls") and a[n][0]]
    assert busy, "the workload reached no traced layer"


def test_maintenance_counts_cover_every_branch():
    _, m = _traced("maint-sparse", 5, 1)
    assert m["projmaint.update.lazy"][0] > 0 and m["projmaint.update.woodbury"][0] > 0
    steps = workloads.MAINT_ROUND["sparse-k"]
    assert m["projmaint.update.calls"][0] == m["projmaint.query.calls"][0] == steps
    assert m["kronlinalg.woodbury_update.calls"][0] == 0
    assert m["oracle.exact_projection.calls"][0] == steps // workloads.MAINT_CHECK_EVERY["sparse-k"]


def test_corrupted_query_fails_the_oracle_check(monkeypatch, capsys):
    query = projmaint.MaintainedProjection.query
    monkeypatch.setattr(projmaint.MaintainedProjection, "query",
                        lambda self, h: query(self, h) * (1.0 + 1e-6))
    assert bench.run_one("maint-sparse", 2, 0.5, 0) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_corrupted_setquery_answer_fails(monkeypatch):
    step = adaptive.setquery_step
    monkeypatch.setattr(adaptive, "setquery_step", lambda *a: step(*a) * 1.5)
    run = workloads.run_adaptive_setquery(2, workloads.Budget(rounds=1))
    assert run.failed / run.attempted > 0


def test_corrupted_ce_report_fails(monkeypatch):
    estimate = sketch.ce_estimate

    def biased(*args, **kwargs):
        rep = estimate(*args, **kwargs)
        rep.mean_bias += 10.0 * rep.se_mean
        return rep

    monkeypatch.setattr(sketch, "ce_estimate", biased)
    run = workloads.run_sketch_ce(2, workloads.Budget(rounds=1))
    assert run.failed == run.attempted == len(workloads.CE_FAMILIES)


def test_envelope_misses_fail_only_beyond_the_delta_share(monkeypatch):
    exact = oracle.exact_set_query
    calls = []

    def truth_far_once(G, h, coords):
        calls.append(1)
        return exact(G, h, coords) + (100.0 if len(calls) == 2 else 0.0)

    monkeypatch.setattr(oracle, "exact_set_query", truth_far_once)
    ten = workloads.run_adaptive_setquery(4, workloads.Budget(rounds=10))
    assert ten.counts["adaptive.envelope_miss_wrappers"] == 1 and ten.failed == 0
    calls.clear()
    one = workloads.run_adaptive_setquery(4, workloads.Budget(rounds=1))
    assert one.counts["adaptive.envelope_miss_wrappers"] == 1 and one.failed == 1


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "sketch-ce",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
