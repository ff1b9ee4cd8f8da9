"""Tests of the benchmark itself: python -m pytest bench -q"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] holds a counted leaf [1, 2] and a span child [3, 9];
    # the child holds a counted leaf [4, 6]
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 6, 9, 10]))
    t.enter("root", span=True)
    t.enter("leaf")
    t.exit()
    t.enter("child", span=True)
    t.enter("leaf")
    t.exit()
    t.exit()
    t.exit()

    root, child = t.spans
    assert (root["start"], root["end"], root["self"]) == (0, 10, 10 - 1 - 6)
    assert (child["start"], child["end"], child["self"]) == (3, 9, 6 - 2)
    assert child["parent"] == root["id"] and child["run"] == root["run"] == root["id"]
    assert t.stats["leaf"].calls == 2 and t.stats["leaf"].self_s == 3
    assert t.stats["root"].self_s == 3 and t.stats["child"].self_s == 4
    assert len(t.spans) == 2  # counted leaves keep no per-call records


def test_wrapped_call_self_time_excludes_wrapped_callees():
    t = tracing.Tracer(clock=FakeClock([0, 2, 7, 9]))
    inner = t.wrap("inner", lambda: "x")
    outer = t.wrap("outer", lambda: inner(), span=True)
    assert outer() == "x"
    assert t.stats["outer"].total_s == 9 and t.stats["outer"].self_s == 4
    assert t.stats["inner"].self_s == 5


def test_benchmark_json_matches_the_workloads_and_their_arrows():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(workloads.ARROWS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.fixture(scope="module")
def traced_tiny_runs():
    return {
        w: run.run_workload(w, workloads.DEV_SEED, 0.0, trace=True, tiny=True)
        for w in workloads.WORKLOADS
    }


def test_traced_runs_are_correct_and_deterministic(traced_tiny_runs):
    for w, result in traced_tiny_runs.items():
        assert result["correct"], (w, result["problems"])
        assert result["failed"] == 0
        assert [e["threads"] for e in result["executions"]] == [2, 1, 1]
        # repeats of the same seed are not new operations
        assert result["attempted"] == result["executions"][0]["attempted"]


def test_untraced_run_reports_the_end_to_end_metrics():
    result = run.run_workload("pk_fixed_v", workloads.DEV_SEED, 0.0, trace=False, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_layer_metric_moves_only_where_its_layer_works(traced_tiny_runs, workload):
    metrics = traced_tiny_runs[workload]["metrics"]
    assert set(metrics) == set(workloads.ARROWS)
    for name, (moves, idle) in workloads.ARROWS.items():
        value = metrics[name]["value"]
        if workload in moves:
            assert value > 0, (name, value)
        if workload in idle:
            assert value == 0, (name, value)


@pytest.fixture(scope="module")
def coverage_result():
    from scorefim.studies import _coverage_worker, parse_study_config

    raw = workloads.plan("pk_fixed_v", workloads.DEV_SEED, tiny=True).studies[0][1]
    config = parse_study_config(raw)
    return config, _coverage_worker((config, 0))


def test_clean_replicate_passes(coverage_result):
    config, result = coverage_result
    assert checks.replicate_problem("_coverage_worker", config, result) is None


@pytest.mark.parametrize("corrupt", ["nan", "asymmetric", "indefinite", "theta"])
def test_corrupted_replicate_counts_as_failure(coverage_result, corrupt):
    config, result = coverage_result
    bad = dict(result, fim=np.array(result["fim"], dtype=float))
    if corrupt == "nan":
        bad["fim"][0, 0] = np.nan
    elif corrupt == "asymmetric":
        bad["fim"][0, 1] += 1e-9
    elif corrupt == "indefinite":
        bad["fim"][0, 0] = -1.0
    else:
        bad["theta"] = np.array(result["theta"]) * np.inf
    assert checks.replicate_problem("_coverage_worker", config, bad)


def test_study_with_inconsistent_m_effective_is_flagged(coverage_result, tmp_path):
    from scorefim.studies import StudyReport

    config, result = coverage_result
    report = StudyReport("coverage", {}, (), m_effective=config.M - 1, failures=0)
    assert "M_effective" in checks.study_problem(config, report, [result] * config.M, tmp_path)
    ok = StudyReport("coverage", {}, (), m_effective=config.M, failures=0)
    assert checks.study_problem(config, ok, [result] * config.M, tmp_path) is None
