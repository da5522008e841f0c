"""Differential span profiling: ``repro profile --compare A B``.

One hotspot table says where a run's time went; two aligned tables say
where a *speedup or slowdown* went.  Given two traces of the same
experiment (e.g. E-LINE at two commits),
this module folds each through :class:`~repro.obs.profile.SpanProfiler`
and aligns the hotspot rows by span name.

The accounting identity that makes the attribution exact: self-times
partition a profiler's total (every traced second belongs to exactly
one span's self-time), so the per-span **self-time deltas sum to the
total wall-clock delta**.  A span present in only one trace (a version
that skips a phase entirely) contributes its full self-time on the
side it exists.  Whatever floating-point residue is left over is
reported as ``unattributed`` rather than silently absorbed.

Traces are deterministic counters plus wall-clock spans; the diff
reads only the spans, so it works on any two trace files -- different
commits, different machines -- as long as they ran
the same workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.exporters import iter_trace_records
from repro.obs.profile import SpanProfiler

__all__ = [
    "DiffProfile",
    "SpanDelta",
    "diff_profilers",
    "diff_trace_files",
]


@dataclass(frozen=True)
class SpanDelta:
    """One span name's timing in both traces, and the difference."""

    name: str
    count_a: int = 0
    count_b: int = 0
    self_a: float = 0.0
    self_b: float = 0.0
    cum_a: float = 0.0
    cum_b: float = 0.0

    @property
    def delta_self(self) -> float:
        """Seconds B spent beyond A in this span's own code (signed)."""
        return self.self_b - self.self_a

    @property
    def ratio(self) -> float | None:
        """``self_b / self_a``; None when A has no self-time here."""
        if self.self_a <= 0.0:
            return None
        return self.self_b / self.self_a

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count_a": self.count_a,
            "count_b": self.count_b,
            "self_a": round(self.self_a, 6),
            "self_b": round(self.self_b, 6),
            "delta_self": round(self.delta_self, 6),
            "cum_a": round(self.cum_a, 6),
            "cum_b": round(self.cum_b, 6),
            "ratio": self.ratio,
        }


@dataclass
class DiffProfile:
    """Two aligned hotspot tables and the attributed wall-clock delta."""

    label_a: str = "A"
    label_b: str = "B"
    total_a: float = 0.0
    total_b: float = 0.0
    deltas: list[SpanDelta] = field(default_factory=list)

    @property
    def total_delta(self) -> float:
        """Signed total wall-clock difference (B minus A)."""
        return self.total_b - self.total_a

    @property
    def attributed(self) -> float:
        """The part of ``total_delta`` the span deltas explain."""
        return sum(d.delta_self for d in self.deltas)

    @property
    def unattributed(self) -> float:
        """Float residue: total delta minus the span-attributed sum."""
        return self.total_delta - self.attributed

    def to_dict(self) -> dict:
        return {
            "label_a": self.label_a,
            "label_b": self.label_b,
            "total_a": round(self.total_a, 6),
            "total_b": round(self.total_b, 6),
            "total_delta": round(self.total_delta, 6),
            "attributed": round(self.attributed, 6),
            "unattributed": round(self.unattributed, 6),
            "spans": [d.to_dict() for d in self.deltas],
        }

    def render(self, *, top: int | None = None) -> str:
        """The ``repro profile --compare`` table."""
        shown = self.deltas if top is None else self.deltas[:top]
        sign = "+" if self.total_delta >= 0 else "-"
        lines = [
            f"differential profile: {self.label_a} -> {self.label_b}",
            f"  total {self.total_a:.4f}s -> {self.total_b:.4f}s  "
            f"(delta {sign}{abs(self.total_delta):.4f}s"
            + (
                f", {self.total_b / self.total_a:.2f}x"
                if self.total_a > 0
                else ""
            )
            + ")",
        ]
        if not shown:
            lines.append("  (no spans in either trace)")
            return "\n".join(lines)
        width = max(len(d.name) for d in shown)
        lines.append(
            f"  {'span':<{width}}  {'self A s':>9}  {'self B s':>9}  "
            f"{'delta s':>9}  {'share':>6}  {'ratio':>7}  "
            f"{'count A':>7}  {'count B':>7}"
        )
        denom = abs(self.total_delta) or 1.0
        for d in shown:
            share = d.delta_self / denom
            ratio = f"{d.ratio:6.2f}x" if d.ratio is not None else "    new"
            lines.append(
                f"  {d.name:<{width}}  {d.self_a:>9.4f}  {d.self_b:>9.4f}  "
                f"{d.delta_self:>+9.4f}  {share:>+5.0%}  {ratio}  "
                f"{d.count_a:>7}  {d.count_b:>7}"
            )
        if abs(self.unattributed) > 1e-6:
            lines.append(
                f"  {'(unattributed)':<{width}}  {'':>9}  {'':>9}  "
                f"{self.unattributed:>+9.4f}"
            )
        return "\n".join(lines)


def diff_profilers(
    a: SpanProfiler,
    b: SpanProfiler,
    *,
    label_a: str = "A",
    label_b: str = "B",
) -> DiffProfile:
    """Align two profilers' hotspot tables by span name.

    Rows are sorted by absolute self-time delta, so the spans that
    explain the most wall-clock difference lead the table regardless
    of direction.
    """
    map_a = a.hotspot_map()
    map_b = b.hotspot_map()
    deltas: list[SpanDelta] = []
    for name in sorted(set(map_a) | set(map_b)):
        ha = map_a.get(name)
        hb = map_b.get(name)
        deltas.append(
            SpanDelta(
                name=name,
                count_a=ha.count if ha else 0,
                count_b=hb.count if hb else 0,
                self_a=ha.self_s if ha else 0.0,
                self_b=hb.self_s if hb else 0.0,
                cum_a=ha.cum_s if ha else 0.0,
                cum_b=hb.cum_s if hb else 0.0,
            )
        )
    deltas.sort(key=lambda d: (-abs(d.delta_self), d.name))
    return DiffProfile(
        label_a=label_a,
        label_b=label_b,
        total_a=a.total_s,
        total_b=b.total_s,
        deltas=deltas,
    )


def diff_trace_files(
    path_a: str, path_b: str, *, label_a: str | None = None,
    label_b: str | None = None,
) -> DiffProfile:
    """Fold two JSONL trace files and diff them (streaming -- records
    are profiled as read, never held wholesale)."""
    profiler_a = SpanProfiler.of(iter_trace_records(path_a))
    profiler_b = SpanProfiler.of(iter_trace_records(path_b))
    return diff_profilers(
        profiler_a,
        profiler_b,
        label_a=label_a if label_a is not None else path_a,
        label_b=label_b if label_b is not None else path_b,
    )
