"""Tests for the persistent run registry (repro.obs.registry)."""

import os
import sqlite3

import pytest

from repro.experiments.base import ExperimentResult
from repro.obs.registry import (
    DEFAULT_REGISTRY,
    RunRecord,
    RunRegistry,
    default_registry_path,
    deterministic_metrics,
)


def _record(experiment_id="E-X", verdict="pass", **kw):
    base = dict(
        experiment_id=experiment_id,
        scale="quick",
        verdict=verdict,
        seed=7,
        jobs=1,
        wall_s=0.25,
        metrics={"estimates.p.value": 0.5},
        counters={"mpc.rounds": 12},
    )
    base.update(kw)
    return RunRecord(**base)


class TestDeterministicMetrics:
    def test_strips_wall_clock_keys(self):
        flat = {
            "duration_s": 1.25,
            "trace.mpc.rounds": 9,
            "trace.mpc.round_latency_s.mean": 0.01,
            "trace.experiments.runs": 1,
            "estimates.p.value": 0.5,
        }
        out = deterministic_metrics(flat)
        assert out == {
            "trace.mpc.rounds": 9,
            "estimates.p.value": 0.5,
        }

    def test_sorted_keys(self):
        out = deterministic_metrics({"b": 2, "a": 1})
        assert list(out) == ["a", "b"]


class TestRunRegistry:
    def test_record_and_get_roundtrip(self, tmp_path):
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            run_id = reg.record(_record())
            assert run_id == 1
            back = reg.get(run_id)
        assert back.experiment_id == "E-X"
        assert back.verdict == "pass"
        assert back.passed
        assert back.metrics == {"estimates.p.value": 0.5}
        assert back.counters == {"mpc.rounds": 12}
        assert back.ts_utc  # filled at record time
        assert back.run_id == 1

    def test_append_only_ids_increase(self, tmp_path):
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            ids = [reg.record(_record()) for _ in range(3)]
        assert ids == [1, 2, 3]

    def test_get_missing_raises(self, tmp_path):
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            with pytest.raises(KeyError):
                reg.get(99)

    def test_runs_filter_order_limit(self, tmp_path):
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            reg.record(_record("E-A"))
            reg.record(_record("E-B"))
            reg.record(_record("E-A", verdict="fail"))
            newest = reg.runs("E-A")
            assert [r.run_id for r in newest] == [3, 1]
            oldest = reg.runs("E-A", newest_first=False)
            assert [r.run_id for r in oldest] == [1, 3]
            assert [r.run_id for r in reg.runs(limit=1)] == [3]
            assert sorted({r.experiment_id for r in reg.runs()}) == [
                "E-A", "E-B",
            ]
            assert len(reg) == 3
            assert [r.run_id for r in reg] == [1, 2, 3]

    def test_reopen_persists(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunRegistry(path) as reg:
            reg.record(_record())
        with RunRegistry(path) as reg:
            assert reg.count() == 1

    def test_gc_keep_last_per_experiment(self, tmp_path):
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            for _ in range(4):
                reg.record(_record("E-A"))
            reg.record(_record("E-B"))
            removed = reg.gc(keep_last=2)
            assert removed == 2
            assert [r.run_id for r in reg.runs("E-A")] == [4, 3]
            # E-B had fewer than keep_last rows: untouched.
            assert len(reg.runs("E-B")) == 1

    def test_gc_before_timestamp(self, tmp_path):
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            reg.record(_record(ts_utc="2020-01-01T00:00:00+00:00"))
            reg.record(_record(ts_utc="2026-01-01T00:00:00+00:00"))
            assert reg.gc(before="2025-01-01") == 1
            assert reg.count() == 1

    def test_gc_noop_and_validation(self, tmp_path):
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            reg.record(_record())
            assert reg.gc() == 0
            with pytest.raises(ValueError):
                reg.gc(keep_last=-1)

    @pytest.mark.parametrize("before", ["yesterday", "2026-13-01", ""])
    def test_gc_bad_before_deletes_nothing(self, tmp_path, before):
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            reg.record(_record(ts_utc="2020-01-01T00:00:00+00:00"))
            reg.record(_record(ts_utc="2026-01-01T00:00:00+00:00"))
            with pytest.raises(ValueError, match="ISO-8601"):
                reg.gc(keep_last=0, before=before)
            assert reg.count() == 2

    @pytest.mark.parametrize("before", [
        "2026-01-01",                 # date only: midnight UTC
        "2026-01-01T00:00:00",        # no offset: read as UTC
        "2026-01-01T02:00:00+02:00",  # the same instant at +02:00
    ])
    def test_gc_before_compares_utc_instants(self, tmp_path, before):
        stamps = [
            "2025-12-31T23:59:59+00:00",
            "2026-01-01T00:00:00+00:00",
            "2026-01-01T01:00:00+00:00",
        ]
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            for stamp in stamps:
                reg.record(_record(ts_utc=stamp))
            assert reg.gc(before=before) == 1
            assert [r.ts_utc for r in reg] == stamps[1:]

    def test_schema_version_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "runs.db")
        RunRegistry(path).close()
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version 99"):
            RunRegistry(path)

    def test_open_uses_env_var(self, tmp_path, monkeypatch):
        env_path = tmp_path / "env" / "runs.db"
        monkeypatch.setenv("REPRO_REGISTRY", str(env_path))
        assert default_registry_path() == str(env_path)
        with RunRegistry.open() as reg:
            assert reg.path == str(env_path)
        assert env_path.exists()

    def test_default_path_is_home_db(self, monkeypatch):
        monkeypatch.delenv("REPRO_REGISTRY", raising=False)
        assert default_registry_path() == os.path.expanduser(DEFAULT_REGISTRY)


class TestRunRecordFromResult:
    def _result(self):
        return ExperimentResult(
            experiment_id="E-X",
            title="t",
            paper_claim="c",
            passed=True,
            metrics={"duration_s": 0.5, "estimates": {"p": {"value": 0.25}}},
        )

    def test_from_result_strips_wall_clock(self):
        rec = RunRecord.from_result(
            self._result(), scale="quick", jobs=4,
            counters={"mpc.rounds": 3},
            trace_metrics={"mpc": {"rounds": 3}},
            violations=1,
        )
        assert rec.experiment_id == "E-X"
        assert rec.verdict == "pass"
        assert rec.jobs == 4
        assert rec.wall_s == 0.5
        assert rec.violations == 1
        assert "duration_s" not in rec.metrics
        assert rec.metrics["estimates.p.value"] == 0.25
        assert rec.metrics["trace.mpc.rounds"] == 3
        assert rec.counters == {"mpc.rounds": 3}

    def test_seed_is_stable_per_experiment_and_scale(self):
        a = RunRecord.from_result(self._result(), scale="quick")
        b = RunRecord.from_result(self._result(), scale="quick")
        c = RunRecord.from_result(self._result(), scale="full")
        assert a.seed == b.seed
        assert a.seed != c.seed

    def test_to_dict_roundtrips_into_constructor(self, tmp_path):
        rec = RunRecord.from_result(self._result(), scale="quick")
        clone = RunRecord(**rec.to_dict())
        with RunRegistry(str(tmp_path / "runs.db")) as reg:
            run_id = reg.record(clone)
            assert reg.get(run_id).metrics == rec.metrics
