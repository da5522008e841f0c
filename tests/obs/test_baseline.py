"""Tests for the counter fingerprint and the two comparisons that gate on it.

``counters_of`` reduces a trace's metrics to 12 deterministic model
counts.  ``repro trace-diff`` (:func:`repro.obs.analysis.diff_traces`)
compares them between two traces and ``repro runs compare``
(:func:`repro.obs.history.compare_runs`) between two registry rows.  In
both, a counter or verdict difference fails and wall-clock time is only
advisory.
"""

import pytest

from repro.obs import TraceMetrics, TraceRecord, counters_of, diff_traces
from repro.obs.history import compare_runs
from repro.obs.registry import RunRecord, RunRegistry


def trace(rounds=100, round_s=0.01, messages=0):
    """One synthetic MPC run: ``rounds`` rounds of ``round_s`` seconds,
    each sending ``messages`` 8-bit messages."""
    records = [
        TraceRecord("span", "mpc.round", k * round_s, round_s,
                    {"round": k, "messages": messages,
                     "message_bits": 8 * messages, "oracle_queries": 0})
        for k in range(rounds)
    ]
    records.append(TraceRecord("span", "mpc.run", 0.0, rounds * round_s,
                               {"rounds": rounds}))
    return records


def row(*, rounds=100, wall_s=1.0, verdict="pass"):
    return RunRecord(
        experiment_id="E-LINE", scale="quick", verdict=verdict, seed=7,
        wall_s=wall_s,
        counters={"mpc.runs": 9, "mpc.rounds": rounds, "oracle.queries": 42},
    )


@pytest.fixture()
def registry(tmp_path):
    with RunRegistry(str(tmp_path / "runs.db")) as reg:
        yield reg


class TestCounters:
    def test_empty_metrics_all_zero(self):
        fingerprint = counters_of(TraceMetrics().to_dict())
        assert set(fingerprint) == {
            "mpc.runs", "mpc.rounds", "mpc.messages", "mpc.message_bits",
            "mpc.oracle_queries", "oracle.queries", "oracle.repeat_queries",
            "ram.runs", "ram.instructions", "ram.time", "ram.oracle_queries",
            "ram.peak_memory_words",
        }
        assert all(v == 0 for v in fingerprint.values())

    def test_extracts_model_counts_from_real_records(self):
        records = [
            TraceRecord("span", "mpc.run", 0.0, 0.1, {"rounds": 2}),
            TraceRecord("span", "mpc.round", 0.0, 0.05,
                        {"round": 0, "messages": 3, "message_bits": 24,
                         "oracle_queries": 2}),
            TraceRecord("span", "mpc.round", 0.05, 0.05,
                        {"round": 1, "messages": 1, "message_bits": 8,
                         "oracle_queries": 0}),
            TraceRecord("event", "oracle.query", 0.0, None, {"repeat": False}),
            TraceRecord("event", "oracle.query", 0.0, None, {"repeat": True}),
        ]
        fingerprint = counters_of(TraceMetrics.from_records(records).to_dict())
        assert fingerprint["mpc.runs"] == 1
        assert fingerprint["mpc.rounds"] == 2
        assert fingerprint["mpc.messages"] == 4
        assert fingerprint["mpc.message_bits"] == 32
        assert fingerprint["oracle.queries"] == 2
        assert fingerprint["oracle.repeat_queries"] == 1


class TestCompare:
    def test_identical_entries_zero_drift(self):
        diff = diff_traces(trace(), trace())
        assert diff.counter_drifts == []
        assert not diff.has_differences
        assert diff.rounds_compared == 100
        assert "zero counter drift" in diff.render()

    def test_plus_one_round_regression_is_fatal(self):
        """A synthetic +1 round drift is flagged, and is the only drift."""
        diff = diff_traces(trace(rounds=100), trace(rounds=101))
        (drift,) = diff.counter_drifts
        assert drift.key == "mpc.rounds"
        assert drift.baseline == 100 and drift.current == 101
        assert diff.has_differences  # trace-diff exits 1
        assert "FAIL" in diff.render()

    def test_wall_clock_regression_is_advisory(self, registry):
        a = registry.record(row(wall_s=1.0))
        b = registry.record(row(wall_s=2.0))
        comparison = compare_runs(registry, a, b)
        assert comparison.identical  # runs compare exits 0
        assert "(2.00x, advisory)" in comparison.render()

    def test_wall_clock_within_tolerance_silent(self):
        base = trace(round_s=0.010)
        within = diff_traces(base, trace(round_s=0.014),
                             latency_tolerance=0.5)
        assert within.latency_regressions == []
        assert "structurally identical" in within.render()
        beyond = diff_traces(base, trace(round_s=0.016),
                             latency_tolerance=0.5)
        assert len(beyond.latency_regressions) == 100
        assert not beyond.has_differences

    def test_status_flip_is_fatal(self, registry):
        a = registry.record(row(verdict="pass"))
        b = registry.record(row(verdict="fail"))
        comparison = compare_runs(registry, a, b)
        assert not comparison.identical  # runs compare exits 1
        assert comparison.counter_drifts == []
        assert comparison.metric_drifts == [("verdict", "pass", "fail")]
        assert "VERDICT pass -> fail" in comparison.render()

    def test_render_table_lists_each_drift(self):
        diff = diff_traces(trace(rounds=100, messages=1),
                           trace(rounds=101, messages=1))
        assert {d.key for d in diff.counter_drifts} == {
            "mpc.rounds", "mpc.messages", "mpc.message_bits",
        }
        text = diff.render()
        for d in diff.counter_drifts:
            assert f"COUNTER {d.key}: {d.baseline:g} -> {d.current:g}" in text
        assert "FAIL: 3 counter drifts" in text
