"""Offline trace analytics: communication structure and query locality.

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
  carry), i.e. how well a per-machine memo cache would behave.

Comparing two traces is :mod:`repro.obs.forensics`'s job
(``repro trace-diff``).

Everything here consumes plain ``TraceRecord`` sequences, so it works
identically on a live ``tracer.records`` tuple and on a JSONL file
loaded with :func:`~repro.obs.exporters.read_jsonl`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CommMatrix",
    "communication_matrix",
    "CriticalStep",
    "critical_path",
    "MachineLocality",
    "LocalityReport",
    "query_locality",
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
