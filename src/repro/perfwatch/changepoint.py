"""Statistical wall-clock regression detection: ``repro bench trend``.

``repro runs trend`` already gates *counters* with a rolling-mean
window; wall-clock needs a sturdier version of the same idea, because
timing history is contaminated in ways counters never are -- one
swapped-out run, one thermal throttle, one noisy neighbor.  The
detector here keeps the shared relative-threshold + absolute-floor
semantics (:func:`repro.obs.trendstats.rolling_gate`) but hardens both
halves:

* the baseline is the rolling **median** of the previous ``window``
  points, so a single historical outlier cannot poison it;
* on top of the relative gate, the latest point must also be a
  **robust z-score** outlier -- ``(x - median) / (1.4826 * MAD)``
  beyond ``z_threshold`` -- so a wide-but-noisy history does not fire
  on ordinary jitter.  A zero MAD (constant history) disables the
  z-term and the relative + absolute gate decides alone.

A confirmed regression is classified as a ``"spike"`` (only the latest
point is elevated -- often an environment hiccup worth re-running) or
a ``"drift"`` (the trailing points are elevated too -- a real,
sustained slowdown).

History comes from two sources, merged chronologically: the committed
``benchmarks/bench_history.json`` ledger (rows appended by
``repro bench run --history``) and the run registry's ``bench_results``
table.  Each experiment is one series.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.trendstats import ascii_sparkline, robust_z, rolling_gate

__all__ = [
    "DEFAULT_HISTORY",
    "BenchPoint",
    "BenchTrendReport",
    "BenchTrendSeries",
    "append_bench_history",
    "bench_trend",
    "detect_changepoint",
    "load_bench_history",
    "merge_points",
    "points_from_history",
    "points_from_registry",
]

#: The committed ledger ``repro bench run --history`` appends to.
DEFAULT_HISTORY = os.path.join("benchmarks", "bench_history.json")

_HISTORY_VERSION = 1


@dataclass(frozen=True)
class BenchPoint:
    """One wall-clock observation in a bench history series."""

    experiment_id: str
    wall_s: float
    suite: str = "quick"
    scale: str = "quick"
    ts_utc: str = ""
    git_sha: str | None = None
    #: Where the point came from: ``"history"`` or ``"registry"``.
    source: str = "history"


def load_bench_history(path: str = DEFAULT_HISTORY) -> list[dict]:
    """Raw ledger rows from a ``bench_history.json`` file.

    Accepts both the versioned envelope (``{"version": 1, "rows":
    [...]}``) and a bare list of rows.  A missing file is an empty
    history, not an error -- the first ``--history`` run creates it.
    """
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        payload = json.load(fh)
    if isinstance(payload, list):
        rows = payload
    elif isinstance(payload, dict):
        rows = payload.get("rows", [])
    else:
        raise ValueError(
            f"bench history {path!r}: expected a list or object, "
            f"got {type(payload).__name__}"
        )
    if not isinstance(rows, list):
        raise ValueError(f"bench history {path!r}: 'rows' is not a list")
    return [row for row in rows if isinstance(row, dict)]


def points_from_history(
    rows: Iterable[dict], *, source: str = "history"
) -> list[BenchPoint]:
    """Ledger rows -> points; rows without a numeric ``wall_s`` are
    dropped (they cannot be trended)."""
    points: list[BenchPoint] = []
    for row in rows:
        wall = row.get("wall_s")
        if isinstance(wall, bool) or not isinstance(wall, (int, float)):
            continue
        if math.isnan(wall) or math.isinf(wall):
            continue
        points.append(
            BenchPoint(
                experiment_id=str(row.get("experiment_id", "?")),
                wall_s=float(wall),
                suite=str(row.get("suite", "quick")),
                scale=str(row.get("scale", "quick")),
                ts_utc=str(row.get("ts_utc", "")),
                git_sha=row.get("git_sha"),
                source=source,
            )
        )
    return points


def points_from_registry(
    registry, *, suite: str | None = None
) -> list[BenchPoint]:
    """Chronological points from a :class:`~repro.obs.registry.RunRegistry`
    (its ``bench_results`` table, schema v3)."""
    results = registry.bench_results(suite=suite, newest_first=False)
    return points_from_history(
        (r.to_dict() for r in results), source="registry"
    )


def merge_points(
    *sources: Sequence[BenchPoint],
) -> list[BenchPoint]:
    """Concatenate point sources, dropping duplicate measurements.

    One ``bench run --history`` lands the same measurement in both the
    registry and the ledger; merging the two sources naively would
    double-count it (and a doubled latest point would halve every
    gap the gate is supposed to see).  Identity is
    ``(experiment_id, ts_utc, wall_s)`` -- the first source
    listing a measurement keeps it.
    """
    seen: set[tuple] = set()
    merged: list[BenchPoint] = []
    for source in sources:
        for point in source:
            key = (point.experiment_id, point.ts_utc, point.wall_s)
            if key in seen:
                continue
            seen.add(key)
            merged.append(point)
    return merged


def append_bench_history(
    results: Iterable,
    path: str = DEFAULT_HISTORY,
    *,
    keep_last: int | None = None,
) -> int:
    """Append bench rows to the committed ledger; returns the new total.

    ``results`` are :class:`~repro.obs.registry.BenchResult` rows; the
    ledger stores only the trend-relevant subset (no counters, no full
    fingerprint -- those live in the registry).  ``keep_last`` prunes
    each experiment's series to its N most recent rows
    so the committed file stays reviewably small.  Written with
    indentation and a trailing newline for clean git diffs.
    """
    rows = load_bench_history(path)
    for result in results:
        rows.append(
            {
                "experiment_id": result.experiment_id,
                "suite": result.suite,
                "scale": result.scale,
                "wall_s": result.wall_s,
                "mean_s": result.mean_s,
                "jobs": result.jobs,
                "ts_utc": result.ts_utc,
                "git_sha": result.git_sha,
            }
        )
    if keep_last is not None and keep_last > 0:
        kept: list[dict] = []
        seen: dict[str, int] = {}
        for row in reversed(rows):
            key = row.get("experiment_id")
            if seen.get(key, 0) < keep_last:
                seen[key] = seen.get(key, 0) + 1
                kept.append(row)
        rows = list(reversed(kept))
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(
            {"version": _HISTORY_VERSION, "rows": rows}, fh, indent=2
        )
        fh.write("\n")
    return len(rows)


@dataclass
class BenchTrendSeries:
    """One experiment's wall-clock series plus verdict."""

    experiment_id: str
    values: list[float]
    window: int
    threshold: float
    min_delta: float
    z_threshold: float
    latest: float | None = None
    baseline: float | None = None  # rolling median of the window
    ratio: float | None = None
    z: float | None = None  # robust z-score; None when MAD == 0
    regressed: bool = False
    kind: str | None = None  # "spike" | "drift" once regressed

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "n": len(self.values),
            "latest": self.latest,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "z": self.z,
            "regressed": self.regressed,
            "kind": self.kind,
            "window": self.window,
            "threshold": self.threshold,
            "min_delta": self.min_delta,
            "z_threshold": self.z_threshold,
        }


def detect_changepoint(
    series: BenchTrendSeries,
) -> BenchTrendSeries:
    """Fill one series' verdict fields in place (and return it).

    The gate needs at least 3 points (2 baseline + the latest); below
    that, no verdict.  The verdict requires **all** active terms:

    1. relative -- ``latest > median * (1 + threshold)``;
    2. absolute -- ``latest - median > min_delta`` (the noise floor
       that keeps sub-millisecond jitter from ever firing);
    3. robust z -- ``robust_z(latest, window) > z_threshold``, skipped
       when the window has zero MAD (no measurable spread).
    """
    values = series.values
    if len(values) < 3:
        return series
    gate = rolling_gate(
        values,
        window=series.window,
        threshold=series.threshold,
        min_delta=series.min_delta,
        robust=True,
    )
    series.latest = gate.latest
    series.baseline = gate.baseline
    series.ratio = gate.ratio
    window_values = values[max(0, len(values) - 1 - series.window):-1]
    series.z = robust_z(values[-1], window_values)
    regressed = gate.regressed
    if regressed and series.z is not None:
        regressed = series.z > series.z_threshold
    series.regressed = regressed
    if regressed:
        series.kind = _classify(series)
    return series


def _classify(series: BenchTrendSeries) -> str:
    """``"drift"`` when the elevation is sustained, else ``"spike"``.

    Counts trailing consecutive points above the relative bar; two or
    more mean the slowdown predates the latest run.
    """
    baseline = series.baseline
    if baseline is None or baseline <= 0:
        return "spike"
    bar = baseline * (1.0 + series.threshold)
    elevated = 0
    for value in reversed(series.values):
        if value > bar:
            elevated += 1
        else:
            break
    return "drift" if elevated >= 2 else "spike"


@dataclass
class BenchTrendReport:
    """Everything ``repro bench trend`` computed, renderable + gateable."""

    series: list[BenchTrendSeries] = field(default_factory=list)
    window: int = 8
    threshold: float = 0.5
    min_delta: float = 0.005
    z_threshold: float = 4.0

    @property
    def regressions(self) -> list[BenchTrendSeries]:
        return [s for s in self.series if s.regressed]

    @property
    def exit_code(self) -> int:
        """0 clean, 1 when any series regressed (the CI gate)."""
        return 1 if self.regressions else 0

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "threshold": self.threshold,
            "min_delta": self.min_delta,
            "z_threshold": self.z_threshold,
            "regressed": bool(self.regressions),
            "series": [s.to_dict() for s in self.series],
        }

    def render(self) -> list[str]:
        lines = [
            f"bench trend: window={self.window}, "
            f"threshold={self.threshold:.0%}, "
            f"min-delta={self.min_delta * 1e3:g}ms, "
            f"z-threshold={self.z_threshold:g}",
            "",
        ]
        if not self.series:
            lines.append("no bench history (run `repro bench run` first)")
            return lines
        for s in self.series:
            spark = ascii_sparkline(s.values[-16:])
            label = s.experiment_id
            if s.latest is None:
                lines.append(
                    f"  {label:<22} {spark:<16} "
                    f"n={len(s.values)} (need >= 3 points)"
                )
                continue
            z_txt = f"z={s.z:+.1f}" if s.z is not None else "z=n/a"
            status = "ok"
            if s.regressed:
                status = f"REGRESSED ({s.kind})"
            lines.append(
                f"  {label:<22} {spark:<16} "
                f"latest {s.latest * 1e3:8.2f}ms vs median "
                f"{s.baseline * 1e3:8.2f}ms "
                f"({s.ratio:5.2f}x, {z_txt})  {status}"
            )
        for s in self.regressions:
            lines.append("")
            lines.append(
                f"regression: {s.experiment_id} is "
                f"{s.ratio:.2f}x its rolling median "
                f"({s.latest:.4f}s vs {s.baseline:.4f}s) -- "
                + (
                    "sustained across the trailing runs (drift)"
                    if s.kind == "drift"
                    else "isolated to the latest run (spike); consider "
                    "re-running before trusting it"
                )
            )
        return lines


def bench_trend(
    points: Sequence[BenchPoint],
    *,
    window: int = 8,
    threshold: float = 0.5,
    min_delta: float = 0.005,
    z_threshold: float = 4.0,
) -> BenchTrendReport:
    """Group points into one series per experiment and gate each.
    Points must arrive in chronological order per series (both sources
    emit them that way)."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    if min_delta < 0:
        raise ValueError(f"min_delta must be >= 0, got {min_delta}")
    grouped: dict[str, list[float]] = {}
    for point in points:
        grouped.setdefault(point.experiment_id, []).append(point.wall_s)
    report = BenchTrendReport(
        window=window,
        threshold=threshold,
        min_delta=min_delta,
        z_threshold=z_threshold,
    )
    for experiment_id in sorted(grouped):
        series = BenchTrendSeries(
            experiment_id=experiment_id,
            values=grouped[experiment_id],
            window=window,
            threshold=threshold,
            min_delta=min_delta,
            z_threshold=z_threshold,
        )
        report.series.append(detect_changepoint(series))
    return report
