"""Registry schema migrations (v1 -> v2 -> v3) and exclusions."""

import json
import sqlite3

import pytest

from repro.obs.registry import (
    SCHEMA_VERSION,
    BenchResult,
    RunRecord,
    RunRegistry,
    deterministic_metrics,
)

_V1_SCHEMA = """
CREATE TABLE runs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    ts_utc        TEXT    NOT NULL,
    git_sha       TEXT,
    experiment_id TEXT    NOT NULL,
    scale         TEXT    NOT NULL,
    params        TEXT    NOT NULL DEFAULT '{}',
    seed          INTEGER,
    jobs          INTEGER NOT NULL DEFAULT 1,
    wall_s        REAL,
    verdict       TEXT    NOT NULL,
    metrics       TEXT    NOT NULL DEFAULT '{}',
    counters      TEXT    NOT NULL DEFAULT '{}',
    violations    INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX runs_experiment_ts ON runs (experiment_id, ts_utc);
"""


def _make_v1_db(path: str) -> None:
    """A registry file exactly as the v1 code laid it down."""
    conn = sqlite3.connect(path)
    conn.executescript(_V1_SCHEMA)
    conn.execute(
        "INSERT INTO runs (ts_utc, experiment_id, scale, verdict, metrics) "
        "VALUES (?, ?, ?, ?, ?)",
        ("2026-01-01T00:00:00+00:00", "E-LINE", "quick", "pass",
         json.dumps({"mpc.rounds": 40})),
    )
    conn.execute("PRAGMA user_version = 1")
    conn.commit()
    conn.close()


class TestMigration:
    def test_v1_database_migrates_in_place(self, tmp_path):
        path = str(tmp_path / "v1.db")
        _make_v1_db(path)
        with RunRegistry.open(path) as registry:
            (record,) = registry.runs()
            # Old rows read back with NULL telemetry columns.
            assert record.experiment_id == "E-LINE"
            assert record.rss_peak_kb is None
            assert record.overhead_frac is None
        conn = sqlite3.connect(path)
        assert (
            conn.execute("PRAGMA user_version").fetchone()[0]
            == SCHEMA_VERSION
        )
        columns = {
            row[1] for row in conn.execute("PRAGMA table_info(runs)")
        }
        tables = {
            row[0] for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        conn.close()
        assert {"rss_peak_kb", "overhead_frac"} <= columns
        # A v1 file jumps straight to v3: bench_results exists too.
        assert "bench_results" in tables

    def test_migrated_database_accepts_v2_rows(self, tmp_path):
        path = str(tmp_path / "v1.db")
        _make_v1_db(path)
        with RunRegistry.open(path) as registry:
            run_id = registry.record(RunRecord(
                experiment_id="E-LINE",
                scale="quick",
                verdict="pass",
                rss_peak_kb=2048.0,
                overhead_frac=0.01,
            ))
            record = registry.get(run_id)
        assert record.rss_peak_kb == 2048.0
        assert record.overhead_frac == 0.01

    def test_fresh_database_is_current_version(self, tmp_path):
        path = str(tmp_path / "fresh.db")
        with RunRegistry.open(path):
            pass
        conn = sqlite3.connect(path)
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        conn.close()
        assert version == SCHEMA_VERSION == 3

    def test_v2_database_migrates_to_v3(self, tmp_path):
        """A v2 file (telemetry columns, no bench_results) gains the
        bench_results table in place and keeps its rows readable."""
        path = str(tmp_path / "v2.db")
        _make_v1_db(path)
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE runs ADD COLUMN rss_peak_kb REAL")
        conn.execute("ALTER TABLE runs ADD COLUMN overhead_frac REAL")
        conn.execute("PRAGMA user_version = 2")
        conn.commit()
        conn.close()
        with RunRegistry.open(path) as registry:
            (record,) = registry.runs()
            assert record.experiment_id == "E-LINE"
            assert registry.bench_count() == 0
            bench_id = registry.record_bench(BenchResult(
                experiment_id="E-LINE", wall_s=0.5, suite="full",
            ))
            (row,) = registry.bench_results()
            assert row.bench_id == bench_id
            assert (row.suite, row.wall_s) == ("full", 0.5)
        conn = sqlite3.connect(path)
        assert (
            conn.execute("PRAGMA user_version").fetchone()[0]
            == SCHEMA_VERSION
        )
        conn.close()

    def test_v2_migration_preserves_telemetry_columns(self, tmp_path):
        """The v2 -> v3 bump must not disturb the v2 ALTERs."""
        path = str(tmp_path / "v2.db")
        _make_v1_db(path)
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE runs ADD COLUMN rss_peak_kb REAL")
        conn.execute("ALTER TABLE runs ADD COLUMN overhead_frac REAL")
        conn.execute(
            "UPDATE runs SET rss_peak_kb = 1024.0, overhead_frac = 0.02"
        )
        conn.execute("PRAGMA user_version = 2")
        conn.commit()
        conn.close()
        with RunRegistry.open(path) as registry:
            (record,) = registry.runs()
        assert record.rss_peak_kb == 1024.0
        assert record.overhead_frac == 0.02

    def test_future_version_still_refused(self, tmp_path):
        path = str(tmp_path / "future.db")
        with RunRegistry.open(path):
            pass
        conn = sqlite3.connect(path)
        conn.execute("PRAGMA user_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ValueError, match="schema version 99"):
            RunRegistry.open(path)


class TestTelemetryExclusion:
    def test_deterministic_metrics_drops_telemetry_keys(self):
        flat = {
            "mpc.rounds": 40,
            "telemetry.heartbeats": 12,
            "telemetry.rss_peak_kb": 4096.0,
            "telemetry.overhead_frac": 0.01,
            "duration_s": 1.0,
        }
        kept = deterministic_metrics(flat)
        assert kept == {"mpc.rounds": 40}

    def test_record_round_trips_telemetry_columns(self, tmp_path):
        path = str(tmp_path / "rt.db")
        record = RunRecord(
            experiment_id="T1",
            scale="quick",
            verdict="pass",
            rss_peak_kb=1234.5,
            overhead_frac=0.002,
        )
        payload = record.to_dict()
        assert payload["rss_peak_kb"] == 1234.5
        assert payload["overhead_frac"] == 0.002
        with RunRegistry.open(path) as registry:
            run_id = registry.record(record)
            loaded = registry.get(run_id)
        assert loaded.rss_peak_kb == 1234.5
        assert loaded.overhead_frac == 0.002
