"""Charged failures, percentiles and the row comparison."""

import json
import random
from pathlib import Path

from perfbench import harness
from perfbench.harness import (
    PROBE_WINDOW,
    Outcome,
    normalize,
    percentile,
    rows_match,
    summarize,
)
from perfbench.speed import REFERENCE_PROBE_MS

LIMIT_MS = 100.0


def _outcomes(latencies, failed=()):
    return [
        Outcome(i, "k", "select 1", ms, error="boom" if i in failed else None)
        for i, ms in enumerate(latencies)
    ]


def test_percentile_interpolates_between_order_statistics():
    assert percentile([], 0.5) == 0.0
    assert percentile([5.0], 0.9) == 5.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0


def test_a_charged_failure_never_reads_as_faster():
    rng = random.Random(0)
    for _ in range(200):
        latencies = [rng.uniform(0.1, 2 * LIMIT_MS) for _ in range(rng.randint(1, 30))]
        before = summarize(_outcomes(latencies), LIMIT_MS)
        failing = rng.randrange(len(latencies))
        after = summarize(_outcomes(latencies, {failing}), LIMIT_MS)
        assert after["throughput_qps"] <= before["throughput_qps"]
        assert after["latency_p50_ms"] >= before["latency_p50_ms"]
        assert after["latency_p90_ms"] >= before["latency_p90_ms"]
        assert after["completed_frac"] < before["completed_frac"]


def test_a_fast_failure_is_charged_the_limit():
    summary = summarize(_outcomes([1.0, 1.0], failed={1}), LIMIT_MS)
    assert summary["throughput_qps"] == 1 / ((1.0 + LIMIT_MS) / 1000.0)
    assert summary["latency_p90_ms"] > 0.9 * LIMIT_MS


def test_latencies_are_rescaled_window_by_window():
    slow = [
        Outcome(i, "k", "select 1", 10.0, probe_ms=2 * REFERENCE_PROBE_MS)
        for i in range(PROBE_WINDOW)
    ]
    fast = [
        Outcome(i, "k", "select 1", 10.0, probe_ms=REFERENCE_PROBE_MS / 2)
        for i in range(PROBE_WINDOW)
    ]
    scaled = [outcome.latency_ms for outcome in normalize(slow + fast)]
    assert scaled == [5.0] * PROBE_WINDOW + [20.0] * PROBE_WINDOW
    # Unprobed outcomes keep their latency.
    assert normalize(_outcomes([3.0]))[0].latency_ms == 3.0


def test_a_rescaled_failure_is_still_charged_the_limit():
    outcomes = [
        Outcome(0, "k", "select 1", 1.0, probe_ms=REFERENCE_PROBE_MS / 4),
        Outcome(1, "k", "select 1", 1.0, error="boom", probe_ms=REFERENCE_PROBE_MS / 4),
    ]
    summary = summarize(normalize(outcomes), LIMIT_MS)
    assert summary["latency_p90_ms"] > 0.9 * LIMIT_MS
    assert summary["throughput_qps"] == 1 / ((4.0 + LIMIT_MS) / 1000.0)


def test_rows_compare_in_order_only_under_order_by():
    assert rows_match("select a from t order by a", [(1,), (2,)], [(1,), (2,)])
    assert not rows_match("select a from t order by a", [(2,), (1,)], [(1,), (2,)])
    assert rows_match("select a from t", [(2,), (1,)], [(1,), (2,)])
    assert not rows_match("select a from t", [(1,), (1,)], [(1,), (2,)])


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in harness.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in harness.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in harness.PER_LAYER]
    # dashboard runs by hand only; see NOTES.md.
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        set(harness.WORKLOADS) - {"dashboard"}
    )
