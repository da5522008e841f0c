"""The persistent run registry: one SQLite row per experiment run.

Every ``repro run`` / ``repro run-all`` invocation records its outcome
into an **append-only** SQLite database, so verdicts and deterministic
counters can be compared *across* runs (``repro runs compare``), not
just within one trace.

Resolution order for the database path:

1. an explicit ``--registry PATH`` flag (:func:`RunRegistry.open` arg);
2. the ``REPRO_REGISTRY`` environment variable;
3. ``~/.repro/runs.db`` (created on first write).

One row per run (schema v4, ``PRAGMA user_version``; older databases
are migrated in place on open -- v1 gains the two nullable telemetry
columns, and every older file is stamped v4):

| column | meaning |
|---|---|
| ``id`` | monotonically increasing row id (the "run id" the CLI prints) |
| ``ts_utc`` | ISO-8601 UTC timestamp of the record call |
| ``git_sha`` | ``git rev-parse HEAD`` of the working tree (NULL outside a repo) |
| ``experiment_id`` / ``scale`` | what ran |
| ``params`` | JSON of run parameters (currently ``{"scale": ...}``) |
| ``seed`` | the experiment's deterministic seed family -- ``trial_seed(experiment_id, scale)`` |
| ``jobs`` | parallelism degree of the run |
| ``wall_s`` | wall-clock seconds (the one non-deterministic scalar) |
| ``verdict`` | ``"pass"`` / ``"fail"`` (the shape-check verdict) |
| ``metrics`` | JSON of **deterministic** flat metrics (wall-clock keys stripped -- see :func:`deterministic_metrics`) |
| ``counters`` | JSON of the counter fingerprint (:func:`repro.obs.metrics.counters_of`) |
| ``violations`` | invariant-monitor violation count |
| ``rss_peak_kb`` | peak RSS sampled during the run (NULL without ``--telemetry``) |
| ``overhead_frac`` | tracer self-overhead / wall-clock (NULL without ``--telemetry``) |

Because ``metrics``/``counters`` exclude every wall-clock quantity, a
serial run and a ``--jobs 8`` run of the same experiment record
byte-identical ``metrics`` and ``counters`` columns -- only ``wall_s``
and ``jobs`` differ.  Runtime-telemetry quantities (``telemetry.*``
flat keys) are likewise stripped from ``metrics`` and live only in
their own nullable columns, so a ``--telemetry`` run fingerprints
identically to a plain one.  That is the property ``runs compare``
(:mod:`repro.obs.history`) leans on: any cross-run difference in those
columns is a behavior change, never scheduling noise.

Schema v3 had a second table, ``bench_results``, for wall-clock bench
rows.  v4 drops it from new files; a v3 file keeps the table and its
rows as they are, unread, so migrating loses no data.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterator, Mapping

from repro.obs.schema import volatile_metric

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_REGISTRY",
    "RunRecord",
    "RunRegistry",
    "default_registry_path",
    "deterministic_metrics",
    "git_sha",
]

SCHEMA_VERSION = 4

#: The home-directory default (``~`` expanded at open time).
DEFAULT_REGISTRY = os.path.join("~", ".repro", "runs.db")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
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
    violations    INTEGER NOT NULL DEFAULT 0,
    rss_peak_kb   REAL,
    overhead_frac REAL
);
CREATE INDEX IF NOT EXISTS runs_experiment_ts
    ON runs (experiment_id, ts_utc);
"""


def deterministic_metrics(flat: Mapping) -> dict:
    """``flat`` minus every wall-clock key, sorted.

    The filter behind the registry's ``metrics`` column: of a flat
    ``ExperimentResult.flat_metrics`` mapping, keep only keys whose
    values are reproducible for a fixed tree (counters, histograms,
    estimator statistics) and drop timings (``duration_s``, per-round
    latency stats, per-experiment wall-clock) and runtime-telemetry
    readings (``telemetry.*`` -- RSS, CPU, sample counts, overhead
    fractions; those go in the dedicated nullable columns instead).
    Which keys those are is declared in :mod:`repro.obs.schema`
    (:func:`~repro.obs.schema.volatile_metric`).
    """
    return {key: flat[key] for key in sorted(flat) if not volatile_metric(key)}


_GIT_SHA_CACHE: dict[str, str | None] = {}


def git_sha(cwd: str | None = None) -> str | None:
    """``git rev-parse HEAD`` for ``cwd`` (default: process cwd).

    Returns ``None`` outside a repository or when git is unavailable;
    cached per directory for the life of the process.
    """
    key = os.path.abspath(cwd or os.getcwd())
    if key not in _GIT_SHA_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=key,
                capture_output=True,
                text=True,
                timeout=10,
            )
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _GIT_SHA_CACHE[key] = sha or None
    return _GIT_SHA_CACHE[key]


def default_registry_path() -> str:
    """``REPRO_REGISTRY`` if set, else ``~/.repro/runs.db`` (expanded)."""
    env = os.environ.get("REPRO_REGISTRY")
    if env:
        return os.path.expanduser(env)
    return os.path.expanduser(DEFAULT_REGISTRY)


@dataclass(frozen=True)
class RunRecord:
    """One registry row (``run_id`` is ``None`` until recorded)."""

    experiment_id: str
    scale: str
    verdict: str
    ts_utc: str = ""
    git_sha: str | None = None
    params: dict = field(default_factory=dict)
    seed: int | None = None
    jobs: int = 1
    wall_s: float | None = None
    metrics: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    violations: int = 0
    rss_peak_kb: float | None = None
    overhead_frac: float | None = None
    run_id: int | None = None

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        """JSON-serializable view (``repro runs show --json``)."""
        return {
            "run_id": self.run_id,
            "ts_utc": self.ts_utc,
            "git_sha": self.git_sha,
            "experiment_id": self.experiment_id,
            "scale": self.scale,
            "params": self.params,
            "seed": self.seed,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "verdict": self.verdict,
            "metrics": self.metrics,
            "counters": self.counters,
            "violations": self.violations,
            "rss_peak_kb": self.rss_peak_kb,
            "overhead_frac": self.overhead_frac,
        }

    @staticmethod
    def from_result(
        result,
        *,
        scale: str,
        jobs: int = 1,
        counters: Mapping | None = None,
        trace_metrics: Mapping | None = None,
        violations: int = 0,
    ) -> "RunRecord":
        """Build a record from an ``ExperimentResult``.

        ``trace_metrics`` is the run's ``TraceMetrics.to_dict()`` (when
        it ran captured); it is merged under the ``trace.`` namespace
        exactly as ``repro trace`` does before flattening, then wall
        -clock keys are stripped (:func:`deterministic_metrics`).

        A ``result.metrics["telemetry"]`` summary (attached by the CLI
        when ``--telemetry`` is on) populates the ``rss_peak_kb`` /
        ``overhead_frac`` columns; its flat keys never reach the
        ``metrics`` JSON.
        """
        from repro.obs.metrics import flatten_dotted
        from repro.parallel.seeds import trial_seed

        merged = dict(result.metrics)
        if trace_metrics is not None and "trace" not in merged:
            merged = {**merged, "trace": dict(trace_metrics)}
        flat = flatten_dotted(merged)
        telemetry = result.metrics.get("telemetry") or {}
        return RunRecord(
            experiment_id=result.experiment_id,
            scale=scale,
            verdict="pass" if result.passed else "fail",
            params={"scale": scale},
            seed=trial_seed(result.experiment_id, scale),
            jobs=jobs,
            wall_s=result.metrics.get("duration_s"),
            metrics=deterministic_metrics(flat),
            counters=dict(counters or {}),
            violations=violations,
            rss_peak_kb=telemetry.get("rss_peak_kb"),
            overhead_frac=telemetry.get("overhead_frac"),
        )


def _utc_stamp(text: str) -> str:
    """``text`` as the stamp :meth:`RunRegistry.record` writes, in UTC.

    Stamps are compared as text, so a bound must be in the same form:
    ISO-8601 to the second with a ``+00:00`` offset.  A value with no
    offset is read as UTC.
    """
    try:
        instant = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(
            f"before must be an ISO-8601 date or timestamp, got {text!r}"
        ) from None
    if instant.tzinfo is None:
        instant = instant.replace(tzinfo=timezone.utc)
    return instant.astimezone(timezone.utc).isoformat(timespec="seconds")


class RunRegistry:
    """Append-only store of :class:`RunRecord` rows in one SQLite file.

    Use as a context manager or call :meth:`close`; every writer opens
    the schema idempotently, so concurrent CLI invocations against the
    same file are safe (SQLite serializes writers).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path, timeout=30.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            self._conn.commit()
        elif version in (1, 2, 3):
            # v1 -> v2: the two nullable telemetry columns.  Additive,
            # so old rows read back with NULLs and old readers of the
            # migrated file would still see every v1 column.
            if version == 1:
                self._conn.execute(
                    "ALTER TABLE runs ADD COLUMN rss_peak_kb REAL"
                )
                self._conn.execute(
                    "ALTER TABLE runs ADD COLUMN overhead_frac REAL"
                )
            # v2 -> v3 -> v4: only the version stamp moves.  A v3
            # file's bench_results table stays as it is, unread.
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
            self._conn.commit()
        elif version != SCHEMA_VERSION:
            self._conn.close()
            raise ValueError(
                f"{path}: unsupported registry schema version {version} "
                f"(this build reads version {SCHEMA_VERSION})"
            )

    @classmethod
    def open(cls, path: str | None = None) -> "RunRegistry":
        """Open ``path``, or the default (env var / home) location."""
        return cls(os.path.expanduser(path) if path else default_registry_path())

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writes -----------------------------------------------------------

    def record(self, record: RunRecord) -> int:
        """Append one run; returns its assigned run id."""
        ts = record.ts_utc or datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
        sha = record.git_sha if record.git_sha is not None else git_sha()
        cursor = self._conn.execute(
            "INSERT INTO runs (ts_utc, git_sha, experiment_id, scale, "
            "params, seed, jobs, wall_s, verdict, metrics, counters, "
            "violations, rss_peak_kb, overhead_frac) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                ts,
                sha,
                record.experiment_id,
                record.scale,
                json.dumps(record.params, sort_keys=True),
                record.seed,
                record.jobs,
                record.wall_s,
                record.verdict,
                json.dumps(record.metrics, sort_keys=True),
                json.dumps(record.counters, sort_keys=True),
                record.violations,
                record.rss_peak_kb,
                record.overhead_frac,
            ),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def gc(self, *, keep_last: int | None = None,
           before: str | None = None) -> int:
        """Delete old rows; returns the number removed.

        ``keep_last=N`` keeps the N most recent rows **per experiment**
        (the retention policy); ``before=ISO-TS`` additionally drops
        everything older than the timestamp, read as UTC when it names
        no offset.  With neither argument it is a no-op.  A negative
        ``keep_last`` or a ``before`` that is not an ISO-8601 date or
        time raises :class:`ValueError` before any row is deleted.
        """
        if keep_last is not None and keep_last < 0:
            raise ValueError(f"keep_last must be >= 0, got {keep_last}")
        if before is not None:
            before = _utc_stamp(before)
        removed = 0
        if keep_last is not None:
            cursor = self._conn.execute(
                "DELETE FROM runs WHERE id NOT IN ("
                "  SELECT id FROM ("
                "    SELECT id, ROW_NUMBER() OVER ("
                "      PARTITION BY experiment_id ORDER BY id DESC"
                "    ) AS rank FROM runs"
                "  ) WHERE rank <= ?)",
                (keep_last,),
            )
            removed += cursor.rowcount
        if before is not None:
            cursor = self._conn.execute(
                "DELETE FROM runs WHERE ts_utc < ?", (before,)
            )
            removed += cursor.rowcount
        self._conn.commit()
        return removed

    # -- reads ------------------------------------------------------------

    @staticmethod
    def _row_to_record(row: sqlite3.Row) -> RunRecord:
        return RunRecord(
            run_id=row["id"],
            ts_utc=row["ts_utc"],
            git_sha=row["git_sha"],
            experiment_id=row["experiment_id"],
            scale=row["scale"],
            params=json.loads(row["params"] or "{}"),
            seed=row["seed"],
            jobs=row["jobs"],
            wall_s=row["wall_s"],
            verdict=row["verdict"],
            metrics=json.loads(row["metrics"] or "{}"),
            counters=json.loads(row["counters"] or "{}"),
            violations=row["violations"],
            rss_peak_kb=row["rss_peak_kb"],
            overhead_frac=row["overhead_frac"],
        )

    def get(self, run_id: int) -> RunRecord:
        """One row by id (KeyError if absent)."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"no run {run_id} in {self.path}")
        return self._row_to_record(row)

    def runs(
        self,
        experiment_id: str | None = None,
        *,
        limit: int | None = None,
        newest_first: bool = True,
    ) -> list[RunRecord]:
        """Rows, optionally filtered to one experiment.

        ``newest_first=False`` returns chronological order (what
        iterating the registry yields).
        """
        sql = "SELECT * FROM runs"
        args: list = []
        if experiment_id is not None:
            sql += " WHERE experiment_id = ?"
            args.append(experiment_id)
        sql += f" ORDER BY id {'DESC' if newest_first else 'ASC'}"
        if limit is not None:
            sql += " LIMIT ?"
            args.append(limit)
        return [
            self._row_to_record(row)
            for row in self._conn.execute(sql, args)
        ]

    def count(self) -> int:
        """Total rows."""
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])

    def __len__(self) -> int:
        return self.count()

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.runs(newest_first=False))
