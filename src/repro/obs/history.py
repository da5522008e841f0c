"""Cross-run queries over the run registry.

The query layer behind ``repro runs list`` and ``repro runs compare``:
given a :class:`~repro.obs.registry.RunRegistry`, it renders the run
table and diffs two rows' counter fingerprints and deterministic
metrics.  Experiments seed every RNG, so any
difference in those columns between two runs of one experiment is a
behavior change, never scheduling noise; wall-clock is shown but never
compared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.registry import RunRecord, RunRegistry

__all__ = [
    "RunComparison",
    "compare_runs",
    "render_runs_table",
]


# ---------------------------------------------------------------------------
# runs compare
# ---------------------------------------------------------------------------


@dataclass
class RunComparison:
    """Diff of two registry rows (``repro runs compare A B``)."""

    a: RunRecord
    b: RunRecord
    counter_drifts: list[tuple[str, float, float]] = field(default_factory=list)
    metric_drifts: list[tuple[str, object, object]] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        """No deterministic difference (wall-clock is never compared)."""
        return not self.counter_drifts and not self.metric_drifts

    def to_dict(self) -> dict:
        return {
            "a": self.a.run_id,
            "b": self.b.run_id,
            "identical": self.identical,
            "counter_drifts": [
                {"key": k, "a": va, "b": vb}
                for k, va, vb in self.counter_drifts
            ],
            "metric_drifts": [
                {"key": k, "a": va, "b": vb}
                for k, va, vb in self.metric_drifts
            ],
            "wall_s": {"a": self.a.wall_s, "b": self.b.wall_s},
        }

    def render(self) -> str:
        head = (
            f"runs compare: #{self.a.run_id} ({self.a.experiment_id}"
            f"@{self.a.ts_utc}) vs #{self.b.run_id} "
            f"({self.b.experiment_id}@{self.b.ts_utc})"
        )
        lines = [head]
        if self.a.verdict != self.b.verdict:
            lines.append(
                f"  VERDICT {self.a.verdict} -> {self.b.verdict}"
            )
        for key, va, vb in self.counter_drifts:
            lines.append(f"  COUNTER {key}: {va:g} -> {vb:g}")
        for key, va, vb in self.metric_drifts:
            lines.append(f"  metric {key}: {va!r} -> {vb!r}")
        if self.a.wall_s and self.b.wall_s:
            ratio = self.b.wall_s / self.a.wall_s
            lines.append(
                f"  wall_s: {self.a.wall_s:.3f} -> {self.b.wall_s:.3f} "
                f"({ratio:.2f}x, advisory)"
            )
        if self.identical:
            lines.append("  deterministic columns identical")
        return "\n".join(lines)


def compare_runs(registry: RunRegistry, a: int, b: int) -> RunComparison:
    """Diff runs ``a`` and ``b`` (KeyError when either id is absent)."""
    ra, rb = registry.get(a), registry.get(b)
    comparison = RunComparison(ra, rb)
    for key in sorted(set(ra.counters) | set(rb.counters)):
        va, vb = ra.counters.get(key, 0), rb.counters.get(key, 0)
        if va != vb:
            comparison.counter_drifts.append((key, float(va), float(vb)))
    for key in sorted(set(ra.metrics) | set(rb.metrics)):
        va, vb = ra.metrics.get(key), rb.metrics.get(key)
        if va != vb:
            comparison.metric_drifts.append((key, va, vb))
    if ra.verdict != rb.verdict:
        comparison.metric_drifts.insert(0, ("verdict", ra.verdict, rb.verdict))
    return comparison


# ---------------------------------------------------------------------------
# runs list
# ---------------------------------------------------------------------------


def render_runs_table(records: Sequence[RunRecord]) -> str:
    """The aligned table ``repro runs list`` prints (newest first).

    ``rss_peak`` and ``ovh%`` come from the registry's nullable
    telemetry columns; runs recorded without ``--telemetry`` show "-".
    """
    if not records:
        return "runs list: registry is empty"
    headers = ("id", "timestamp (UTC)", "experiment", "scale", "verdict",
               "wall_s", "jobs", "viol", "rss_peak", "ovh%", "sha")
    rows = []
    for r in records:
        rows.append((
            str(r.run_id),
            r.ts_utc,
            r.experiment_id,
            r.scale,
            r.verdict,
            "-" if r.wall_s is None else f"{r.wall_s:.3f}",
            str(r.jobs),
            str(r.violations),
            "-" if r.rss_peak_kb is None else f"{r.rss_peak_kb / 1024:.1f}M",
            "-" if r.overhead_frac is None else f"{r.overhead_frac * 100:.2f}",
            (r.git_sha or "-")[:10],
        ))
    widths = [
        max(len(headers[c]), *(len(row[c]) for row in rows))
        for c in range(len(headers))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
