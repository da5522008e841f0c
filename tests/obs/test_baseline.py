"""Tests for the counter fingerprint and the two comparisons that report it.

``counters_of`` reduces a trace's metrics to 12 deterministic model
counts.  ``repro trace-diff`` compares two traces record by record
(:func:`repro.obs.forensics.explain_divergence`) and prints the
fingerprint's drift (:func:`repro.obs.forensics.counter_drifts`) as
context; ``repro runs compare`` (:func:`repro.obs.history.compare_runs`)
compares it between two registry rows.  In both, a counter or verdict
difference fails; wall-clock time is never compared by the first and
only advisory in the second.
"""

import pytest

from repro.obs import (
    TraceMetrics,
    TraceRecord,
    counter_drifts,
    counters_of,
    explain_divergence,
    render_divergence,
)
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
        assert explain_divergence(trace(), trace()) is None
        assert counter_drifts(trace(), trace()) == []

    def test_plus_one_round_regression_is_fatal(self):
        """A synthetic +1 round drift is flagged, and is the only drift."""
        base, cur = trace(rounds=100), trace(rounds=101)
        d = explain_divergence(base, cur)
        assert d is not None  # trace-diff exits 1
        (drift,) = counter_drifts(base, cur)
        assert drift == ("mpc.rounds", 100, 101)
        assert "COUNTER mpc.rounds: 100 -> 101" in render_divergence(
            d, drifts=[drift]
        )

    def test_wall_clock_regression_is_advisory(self, registry):
        a = registry.record(row(wall_s=1.0))
        b = registry.record(row(wall_s=2.0))
        comparison = compare_runs(registry, a, b)
        assert comparison.identical  # runs compare exits 0
        assert "(2.00x, advisory)" in comparison.render()

    def test_wall_clock_within_tolerance_silent(self):
        """trace-diff never compares timing, however far it moves."""
        base = trace(round_s=0.010)
        for round_s in (0.014, 0.016, 1.0):
            assert explain_divergence(base, trace(round_s=round_s)) is None

    def test_status_flip_is_fatal(self, registry):
        a = registry.record(row(verdict="pass"))
        b = registry.record(row(verdict="fail"))
        comparison = compare_runs(registry, a, b)
        assert not comparison.identical  # runs compare exits 1
        assert comparison.counter_drifts == []
        assert comparison.metric_drifts == [("verdict", "pass", "fail")]
        assert "VERDICT pass -> fail" in comparison.render()

    def test_render_table_lists_each_drift(self):
        base, cur = trace(rounds=100, messages=1), trace(rounds=101, messages=1)
        drifts = counter_drifts(base, cur)
        assert {key for key, _, _ in drifts} == {
            "mpc.rounds", "mpc.messages", "mpc.message_bits",
        }
        text = render_divergence(explain_divergence(base, cur), drifts=drifts)
        for key, b, c in drifts:
            assert f"COUNTER {key}: {b:g} -> {c:g}" in text
