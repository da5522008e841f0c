"""Registry schema migrations (v1 -> v2 -> v3 -> v4) and exclusions."""

import json
import sqlite3

import pytest

from repro.obs.registry import (
    SCHEMA_VERSION,
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

#: What v3 added on top of v1 + the v2 telemetry columns: the wall-clock
#: bench table that v4 no longer creates.
_V3_BENCH_SCHEMA = """
CREATE TABLE bench_results (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    ts_utc        TEXT    NOT NULL,
    git_sha       TEXT,
    experiment_id TEXT    NOT NULL,
    suite         TEXT    NOT NULL DEFAULT 'quick',
    scale         TEXT    NOT NULL DEFAULT 'quick',
    backend       TEXT    NOT NULL DEFAULT 'python',
    jobs          INTEGER NOT NULL DEFAULT 1,
    warmup        INTEGER NOT NULL DEFAULT 0,
    repeats       INTEGER NOT NULL DEFAULT 1,
    wall_s        REAL,
    mean_s        REAL,
    rss_peak_kb   REAL,
    passed        INTEGER NOT NULL DEFAULT 1,
    fingerprint   TEXT    NOT NULL DEFAULT '{}',
    counters      TEXT    NOT NULL DEFAULT '{}'
);
CREATE INDEX bench_results_experiment_ts
    ON bench_results (experiment_id, ts_utc);
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


def _make_v3_db(path: str) -> None:
    """A registry file as the v3 code laid it down, one row per table."""
    _make_v1_db(path)
    conn = sqlite3.connect(path)
    conn.execute("ALTER TABLE runs ADD COLUMN rss_peak_kb REAL")
    conn.execute("ALTER TABLE runs ADD COLUMN overhead_frac REAL")
    conn.execute(
        "UPDATE runs SET rss_peak_kb = 1024.0, overhead_frac = 0.02, "
        "counters = ?", (json.dumps({"mpc.rounds": 40}),),
    )
    conn.executescript(_V3_BENCH_SCHEMA)
    conn.execute(
        "INSERT INTO bench_results (ts_utc, experiment_id, suite, wall_s, "
        "fingerprint) VALUES (?, ?, ?, ?, ?)",
        ("2026-01-02T00:00:00+00:00", "E-LINE", "full", 0.5,
         json.dumps({"cpu_count": 2})),
    )
    conn.execute("PRAGMA user_version = 3")
    conn.commit()
    conn.close()


def _tables(path: str) -> set[str]:
    conn = sqlite3.connect(path)
    names = {
        row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    conn.close()
    return names


def _rows(path: str, table: str) -> list[tuple]:
    conn = sqlite3.connect(path)
    rows = conn.execute(f"SELECT * FROM {table} ORDER BY id").fetchall()
    conn.close()
    return rows


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
        conn.close()
        assert {"rss_peak_kb", "overhead_frac"} <= columns
        # A v1 file jumps straight to v4, which has no bench table.
        assert "bench_results" not in _tables(path)

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
        assert version == SCHEMA_VERSION == 4
        assert "bench_results" not in _tables(path)

    def test_v2_database_migrates_to_v3(self, tmp_path):
        """A v2 file (telemetry columns, no bench_results) takes the
        v2 -> v3 step and on to the current v4, where only the stamp
        moves: it keeps its rows readable and gains no bench table."""
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
        conn = sqlite3.connect(path)
        assert (
            conn.execute("PRAGMA user_version").fetchone()[0]
            == SCHEMA_VERSION
        )
        conn.close()
        assert "bench_results" not in _tables(path)

    def test_v3_database_migrates_to_v4_keeping_bench_results(self, tmp_path):
        """A v3 file is stamped v4; its runs rows read back unchanged and
        its bench_results table and row stay as they were, unread."""
        path = str(tmp_path / "v3.db")
        _make_v3_db(path)
        runs_before = _rows(path, "runs")
        bench_before = _rows(path, "bench_results")
        with RunRegistry.open(path) as registry:
            (record,) = registry.runs()
        assert (record.experiment_id, record.verdict) == ("E-LINE", "pass")
        assert record.metrics == {"mpc.rounds": 40}
        assert record.counters == {"mpc.rounds": 40}
        assert (record.rss_peak_kb, record.overhead_frac) == (1024.0, 0.02)
        conn = sqlite3.connect(path)
        assert conn.execute("PRAGMA user_version").fetchone()[0] == 4
        conn.close()
        assert _rows(path, "runs") == runs_before
        assert "bench_results" in _tables(path)
        assert _rows(path, "bench_results") == bench_before
        assert len(bench_before) == 1

    def test_v2_migration_preserves_telemetry_columns(self, tmp_path):
        """The v2 -> v4 bump must not disturb the v2 ALTERs."""
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
