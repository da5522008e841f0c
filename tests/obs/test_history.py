"""Tests for the cross-run registry queries (repro.obs.history)."""

import pytest

from repro.obs.history import compare_runs, render_runs_table
from repro.obs.registry import RunRecord, RunRegistry


def _record(experiment_id="E-X", *, verdict="pass", wall_s=1.0, seed=7,
            counters=None, metrics=None, scale="quick"):
    return RunRecord(
        experiment_id=experiment_id,
        scale=scale,
        verdict=verdict,
        seed=seed,
        wall_s=wall_s,
        counters=counters or {},
        metrics=metrics or {},
    )


@pytest.fixture()
def registry(tmp_path):
    with RunRegistry(str(tmp_path / "runs.db")) as reg:
        yield reg


class TestCompareRuns:
    def test_identical_rows(self, registry):
        a = registry.record(_record(counters={"mpc.rounds": 5}))
        b = registry.record(_record(counters={"mpc.rounds": 5}, wall_s=9.0))
        comparison = compare_runs(registry, a, b)
        assert comparison.identical  # wall-clock never compared
        assert "identical" in comparison.render()

    def test_counter_and_verdict_drift(self, registry):
        a = registry.record(_record(counters={"mpc.rounds": 5}))
        b = registry.record(_record(
            counters={"mpc.rounds": 6}, verdict="fail",
            metrics={"k": 1},
        ))
        comparison = compare_runs(registry, a, b)
        assert not comparison.identical
        assert ("mpc.rounds", 5.0, 6.0) in comparison.counter_drifts
        assert comparison.metric_drifts[0] == ("verdict", "pass", "fail")
        d = comparison.to_dict()
        assert d["identical"] is False
        assert d["counter_drifts"][0]["key"] == "mpc.rounds"

    def test_missing_run_raises(self, registry):
        a = registry.record(_record())
        with pytest.raises(KeyError):
            compare_runs(registry, a, 999)


class TestRunsTable:
    def test_renders_all_rows(self, registry):
        registry.record(_record("E-A"))
        registry.record(_record("E-B", verdict="fail"))
        table = render_runs_table(registry.runs())
        lines = table.splitlines()
        assert lines[0].startswith("id")
        assert len(lines) == 3
        assert "E-B" in lines[1]  # newest first

    def test_empty(self):
        assert "empty" in render_runs_table([])
