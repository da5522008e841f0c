"""Offline trace analytics: structure, locality, and trace diffs.

Where :mod:`repro.obs.metrics` reduces a trace to totals and
distributions, this module keeps the *structure*:

* :func:`communication_matrix` -- the machine x machine bits-sent
  matrix (per round or whole trace), read from the per-destination
  ``sent_to`` map on ``mpc.machine_step`` events;
* :func:`critical_path` -- per round, the slowest machine's local
  computation: the chain a perfectly parallel scheduler could not
  shorten (per-round latency is lower-bounded by its slowest machine);
* :func:`query_locality` -- per machine, repeat vs. unique oracle
  queries (keyed by the stable ``key`` field ``oracle.query`` events
  carry), i.e. how well a per-machine memo cache would behave;
* :func:`diff_traces` -- a structural **trace diff**: added/removed
  record kinds, deterministic-counter deltas (the
  :func:`~repro.obs.metrics.counters_of` fingerprint the run registry
  also stores), and advisory per-round latency regressions.

Everything here consumes plain ``TraceRecord`` sequences, so it works
identically on a live ``tracer.records`` tuple and on a JSONL file
loaded with :func:`~repro.obs.exporters.read_jsonl`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import TraceMetrics, counters_of
from repro.telemetry.config import excluded_from_determinism

__all__ = [
    "CommMatrix",
    "communication_matrix",
    "CriticalStep",
    "critical_path",
    "MachineLocality",
    "LocalityReport",
    "query_locality",
    "LatencyRegression",
    "Drift",
    "TraceDiff",
    "diff_traces",
]


# ---------------------------------------------------------------------------
# Communication matrix
# ---------------------------------------------------------------------------

@dataclass
class CommMatrix:
    """Bits sent from machine ``src`` to machine ``dst``.

    ``bits[(src, dst)]`` is the total payload routed on that edge;
    absent pairs sent nothing.  ``m`` is the machine count (from the
    run's budget announcement, falling back to the largest id seen).
    """

    m: int
    bits: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def total_bits(self) -> int:
        return sum(self.bits.values())

    def to_rows(self) -> list[list[int]]:
        """Dense ``m x m`` list-of-rows view (rows = senders)."""
        rows = [[0] * self.m for _ in range(self.m)]
        for (src, dst), bits in self.bits.items():
            if 0 <= src < self.m and 0 <= dst < self.m:
                rows[src][dst] = bits
        return rows

    def render(self, *, max_machines: int = 16) -> str:
        """ASCII matrix, senders down, receivers across."""
        shown = min(self.m, max_machines)
        rows = self.to_rows()
        width = max(
            5, *(len(str(rows[i][j])) for i in range(shown) for j in range(shown))
        ) if shown else 5
        lines = [
            f"communication matrix ({self.m} machines, "
            f"{self.total_bits} bits total; bits sent, row -> column):"
        ]
        header = "  src\\dst " + " ".join(f"{j:>{width}}" for j in range(shown))
        lines.append(header)
        for i in range(shown):
            cells = " ".join(f"{rows[i][j]:>{width}}" for j in range(shown))
            lines.append(f"  {i:>7} {cells}")
        if shown < self.m:
            lines.append(f"  ... ({self.m - shown} more machines not shown)")
        return "\n".join(lines)


def communication_matrix(records, *, round: int | None = None) -> CommMatrix:
    """Fold ``mpc.machine_step.sent_to`` maps into one :class:`CommMatrix`.

    ``round=None`` aggregates the whole trace; an integer restricts the
    matrix to that round index (across all runs in the trace).
    """
    m = 0
    bits: dict[tuple[int, int], int] = {}
    for record in records:
        if record.name == "mpc.run_start":
            m = max(m, record.attrs.get("m", 0))
        elif record.name == "mpc.machine_step":
            a = record.attrs
            if round is not None and a.get("round") != round:
                continue
            src = a.get("machine", 0)
            m = max(m, src + 1)
            for dst_key, sent in a.get("sent_to", {}).items():
                dst = int(dst_key)
                m = max(m, dst + 1)
                bits[(src, dst)] = bits.get((src, dst), 0) + int(sent)
    return CommMatrix(m=m, bits=bits)


# ---------------------------------------------------------------------------
# Critical path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalStep:
    """The slowest machine of one round."""

    round: int
    machine: int
    dur_s: float


def critical_path(records) -> list[CriticalStep]:
    """Per round, the machine whose local computation took longest.

    Rounds are a synchronization barrier, so the sum of these steps is
    the latency floor of an idealized parallel execution; comparing it
    with the actual per-round latency shows how much of the wall-clock
    is simulator serialization rather than inherent work.
    """
    slowest: dict[int, CriticalStep] = {}
    for record in records:
        if record.name != "mpc.machine_step":
            continue
        a = record.attrs
        round_k = a.get("round", 0)
        dur = float(a.get("dur", 0.0) or 0.0)
        known = slowest.get(round_k)
        if known is None or dur > known.dur_s:
            slowest[round_k] = CriticalStep(round_k, a.get("machine", 0), dur)
    return [slowest[k] for k in sorted(slowest)]


# ---------------------------------------------------------------------------
# Oracle-query locality
# ---------------------------------------------------------------------------

@dataclass
class MachineLocality:
    """One machine's oracle-query reuse profile."""

    machine: int
    total: int = 0
    unique: int = 0

    @property
    def repeat_fraction(self) -> float:
        if not self.total:
            return 0.0
        return (self.total - self.unique) / self.total


@dataclass
class LocalityReport:
    """Repeat vs. unique oracle queries, per machine and globally."""

    per_machine: dict[int, MachineLocality] = field(default_factory=dict)
    total: int = 0
    unique: int = 0

    @property
    def repeat_fraction(self) -> float:
        if not self.total:
            return 0.0
        return (self.total - self.unique) / self.total

    def render(self) -> str:
        lines = [
            f"oracle locality: {self.total} queries, {self.unique} unique "
            f"({self.repeat_fraction:.1%} a cache would absorb)"
        ]
        for machine in sorted(self.per_machine):
            loc = self.per_machine[machine]
            lines.append(
                f"  machine {machine:<4} {loc.total:>7} queries  "
                f"{loc.unique:>7} unique  repeat {loc.repeat_fraction:.1%}"
            )
        return "\n".join(lines)


def query_locality(records) -> LocalityReport:
    """Fold ``oracle.query`` events into a :class:`LocalityReport`.

    Uniqueness is judged by the event's stable ``key``
    (:func:`repro.oracle.counting.query_key`); traces written before
    the key existed fall back to the global ``repeat`` flag (then
    per-machine unique counts treat every query a machine makes as
    unique unless globally repeated).
    """
    report = LocalityReport()
    seen_global: set[str] = set()
    seen_per_machine: dict[int, set[str]] = {}
    for record in records:
        if record.name != "oracle.query":
            continue
        a = record.attrs
        machine = a.get("machine", 0)
        loc = report.per_machine.get(machine)
        if loc is None:
            loc = report.per_machine[machine] = MachineLocality(machine)
        loc.total += 1
        report.total += 1
        key = a.get("key")
        if key is None:
            if not a.get("repeat"):
                report.unique += 1
                loc.unique += 1
            continue
        if key not in seen_global:
            seen_global.add(key)
            report.unique += 1
        mine = seen_per_machine.setdefault(machine, set())
        if key not in mine:
            mine.add(key)
            loc.unique += 1
    return report


# ---------------------------------------------------------------------------
# Trace diff
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatencyRegression:
    """One round whose latency regressed beyond tolerance (advisory)."""

    round: int
    baseline_s: float
    current_s: float


@dataclass(frozen=True)
class Drift:
    """One deterministic counter whose value differs between two traces."""

    experiment_id: str
    key: str
    baseline: float
    current: float


@dataclass
class TraceDiff:
    """Structured difference between two traces of one workload.

    ``notes`` are identity-level mismatches (different experiment ids);
    ``added_kinds`` / ``removed_kinds`` are record names present in one
    trace only; ``counter_drifts`` are deterministic-counter deltas
    (fatal); latency regressions are wall-clock and therefore advisory.
    """

    notes: list[str] = field(default_factory=list)
    added_kinds: list[str] = field(default_factory=list)
    removed_kinds: list[str] = field(default_factory=list)
    counter_drifts: list[Drift] = field(default_factory=list)
    latency_regressions: list[LatencyRegression] = field(default_factory=list)
    rounds_compared: int = 0
    latency_tolerance: float = 0.5

    @property
    def has_differences(self) -> bool:
        """True when the traces differ structurally (not just in time)."""
        return bool(
            self.notes
            or self.added_kinds
            or self.removed_kinds
            or self.counter_drifts
        )

    def to_dict(self) -> dict:
        return {
            "notes": list(self.notes),
            "added_kinds": list(self.added_kinds),
            "removed_kinds": list(self.removed_kinds),
            "counter_drifts": [
                {
                    "key": d.key,
                    "baseline": d.baseline,
                    "current": d.current,
                }
                for d in self.counter_drifts
            ],
            "latency_regressions": [
                {
                    "round": r.round,
                    "baseline_s": round(r.baseline_s, 6),
                    "current_s": round(r.current_s, 6),
                }
                for r in self.latency_regressions
            ],
            "rounds_compared": self.rounds_compared,
            "has_differences": self.has_differences,
        }

    def render(self) -> str:
        if not self.has_differences and not self.latency_regressions:
            return (
                f"trace-diff: structurally identical "
                f"({self.rounds_compared} rounds compared, zero counter drift)"
            )
        lines = ["trace-diff:"]
        for note in self.notes:
            lines.append(f"  ! {note}")
        for kind in self.added_kinds:
            lines.append(f"  + record kind appeared: {kind}")
        for kind in self.removed_kinds:
            lines.append(f"  - record kind disappeared: {kind}")
        for d in self.counter_drifts:
            lines.append(
                f"  COUNTER {d.key}: {d.baseline:g} -> {d.current:g}"
            )
        if self.latency_regressions:
            lines.append(
                f"  {len(self.latency_regressions)} round latency "
                f"regressions beyond {self.latency_tolerance:.0%} (advisory):"
            )
            for r in self.latency_regressions[:10]:
                lines.append(
                    f"    round {r.round}: {r.baseline_s * 1e3:.3f}ms -> "
                    f"{r.current_s * 1e3:.3f}ms"
                )
        if self.has_differences:
            lines.append(
                f"FAIL: {len(self.counter_drifts)} counter drifts, "
                f"{len(self.added_kinds) + len(self.removed_kinds)} "
                f"record-kind changes"
            )
        return "\n".join(lines)


@dataclass
class _TraceFold:
    """Everything ``diff_traces`` needs from one trace, in one pass.

    Built by :meth:`of` with a single iteration over the record stream,
    so a lazily loaded trace (:func:`~repro.obs.exporters.
    iter_trace_records`) is folded without ever materializing.
    """

    experiment_ids: list[str] = field(default_factory=list)
    kinds: set[str] = field(default_factory=set)
    latencies: dict[int, float] = field(default_factory=dict)
    metrics: TraceMetrics = field(default_factory=TraceMetrics)

    @classmethod
    def of(cls, records) -> "_TraceFold":
        fold = cls()

        def tee():
            for record in records:
                if not excluded_from_determinism(record.name):
                    fold.kinds.add(record.name)
                if record.kind == "span":
                    if record.name == "experiment":
                        experiment_id = record.attrs.get("experiment_id")
                        if experiment_id is not None:
                            fold.experiment_ids.append(experiment_id)
                    elif record.name == "mpc.round":
                        round_k = record.attrs.get("round", 0)
                        fold.latencies[round_k] = (
                            fold.latencies.get(round_k, 0.0)
                            + (record.dur or 0.0)
                        )
                yield record

        fold.metrics = TraceMetrics.from_records(tee())
        return fold


def diff_traces(
    baseline_records,
    current_records,
    *,
    latency_tolerance: float = 0.5,
    min_latency_s: float = 0.001,
) -> TraceDiff:
    """Diff two traces of the same workload (``repro trace-diff``).

    Two runs of one seeded experiment -- even at different seeds of the
    *simulation's* wall clock, on different machines -- must produce
    zero structural differences: identical record-kind sets and
    identical deterministic counters.  Counters are the registry's
    fingerprint (:func:`~repro.obs.metrics.counters_of`).  Per-round
    latency is compared with relative ``latency_tolerance`` and an
    absolute ``min_latency_s`` noise floor; regressions are advisory.

    ``telemetry.*`` record names are excluded from the kind-set
    comparison (the exclusion contract,
    :func:`repro.telemetry.excluded_from_determinism`): runtime
    telemetry (resource samples, heartbeats, stall alerts) is opt-in
    host observability, not model behavior, so a telemetry-on trace
    must still diff clean against a telemetry-off baseline.

    Each record stream is consumed in **one pass**, so lazily loaded
    traces (:func:`~repro.obs.exporters.iter_trace_records`) diff
    without a whole-file load.
    """
    if latency_tolerance < 0:
        raise ValueError(
            f"latency_tolerance must be >= 0, got {latency_tolerance}"
        )
    diff = TraceDiff(latency_tolerance=latency_tolerance)

    base = _TraceFold.of(baseline_records)
    cur = _TraceFold.of(current_records)
    base_ids, cur_ids = base.experiment_ids, cur.experiment_ids
    if base_ids != cur_ids:
        diff.notes.append(
            f"experiments differ: {base_ids or ['?']} vs {cur_ids or ['?']}"
        )

    diff.added_kinds = sorted(cur.kinds - base.kinds)
    diff.removed_kinds = sorted(base.kinds - cur.kinds)

    base_counters = counters_of(base.metrics)
    cur_counters = counters_of(cur.metrics)
    for key in sorted(set(base_counters) | set(cur_counters)):
        b = base_counters.get(key, 0)
        c = cur_counters.get(key, 0)
        if b != c:
            diff.counter_drifts.append(Drift(
                experiment_id=",".join(cur_ids) or "trace",
                key=key,
                baseline=float(b),
                current=float(c),
            ))

    base_latency = base.latencies
    cur_latency = cur.latencies
    shared = sorted(set(base_latency) & set(cur_latency))
    diff.rounds_compared = len(shared)
    for round_k in shared:
        b = base_latency[round_k]
        c = cur_latency[round_k]
        if c > b * (1.0 + latency_tolerance) and c - b >= min_latency_s:
            diff.latency_regressions.append(LatencyRegression(round_k, b, c))
    return diff
