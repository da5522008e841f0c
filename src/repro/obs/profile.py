"""Hotspot profiling over the trace stream (``repro profile``).

The tracer answers *what happened*; this module answers *where the
wall-clock went*.  Three tools, composable on one traced run:

* :class:`SpanProfiler` -- a tracer subscriber (or offline folder via
  :meth:`SpanProfiler.of`) that reconstructs span nesting from the
  completion-ordered record stream and aggregates, per span name,
  **cumulative** time (time inside the span, recursion counted once)
  and **self** time (cumulative minus direct children -- the time the
  span spent in its own code).  ``mpc.machine_step`` events carry a
  ``dur`` attr and are treated as spans, so an MPC round's self time is
  pure routing/bookkeeping overhead while machine compute shows up as
  its own row.
* :class:`ScopedCProfile` -- a :class:`~repro.obs.tracer.SpanHook`
  that attaches ``cProfile`` to exactly one span kind (only inside
  ``mpc.round``, or only inside the oracle's per-query window), so the
  function-level profile is not drowned by setup and analysis code.
* :class:`RoundMemorySampler` -- optional ``tracemalloc`` peak sampling
  per MPC round (the peak is reset at every round boundary).

``profile_experiment`` wires all three around one experiment run; the
CLI's ``repro profile`` is a thin shell over it.

Span nesting is reconstructed without start notifications: records
arrive in completion order, so when a span arrives, every already-seen
span that *started* inside it is one of its descendants, and the ones
not yet claimed by an intermediate span are its direct children.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracer import SpanHook, TraceRecord

__all__ = [
    "Hotspot",
    "RoundProfile",
    "SpanProfiler",
    "ScopedCProfile",
    "RoundMemorySampler",
    "ProfileSession",
    "profile_experiment",
]


@dataclass
class Hotspot:
    """Aggregated timing for one span name."""

    name: str
    count: int = 0
    cum_s: float = 0.0
    self_s: float = 0.0
    max_s: float = 0.0

    @property
    def mean_s(self) -> float:
        return self.cum_s / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "cum_s": round(self.cum_s, 6),
            "self_s": round(self.self_s, 6),
            "mean_s": round(self.mean_s, 6),
            "max_s": round(self.max_s, 6),
        }


@dataclass
class RoundProfile:
    """Where one MPC round's latency went."""

    round: int
    latency_s: float = 0.0
    machine_s: float = 0.0  # sum of machine_step durations
    messages: int = 0
    oracle_queries: int = 0
    slowest_machine: int | None = None
    slowest_machine_s: float = 0.0

    @property
    def overhead_s(self) -> float:
        """Round latency not inside any machine step (routing etc.)."""
        return max(0.0, self.latency_s - self.machine_s)

    def to_dict(self) -> dict:
        return {
            "round": self.round,
            "latency_s": round(self.latency_s, 6),
            "machine_s": round(self.machine_s, 6),
            "overhead_s": round(self.overhead_s, 6),
            "messages": self.messages,
            "oracle_queries": self.oracle_queries,
            "slowest_machine": self.slowest_machine,
            "slowest_machine_s": round(self.slowest_machine_s, 6),
        }


@dataclass
class _Node:
    """One closed interval awaiting adoption by its parent."""

    name: str
    start: float
    dur: float
    # name -> cumulative seconds inside this subtree, same-name
    # descendants subsumed by the shallowest occurrence.
    cum_by_name: dict[str, float] = field(default_factory=dict)


class SpanProfiler:
    """Self/cumulative time per span name, streamed or offline.

    Subscribe it to a live tracer (``tracer.subscribe(profiler)``) or
    fold an existing record list with :meth:`of`.  Spans from several
    MPC runs within one experiment aggregate together; per-round rows
    merge by round index.
    """

    def __init__(self) -> None:
        self._pending: list[_Node] = []
        self._by_name: dict[str, Hotspot] = {}
        self._rounds: dict[int, RoundProfile] = {}

    @classmethod
    def of(cls, records) -> "SpanProfiler":
        profiler = cls()
        for record in records:
            profiler(record)
        return profiler

    def __call__(self, record: TraceRecord) -> None:
        if record.kind == "span" and record.dur is not None:
            start = record.ts
            if "worker" in record.attrs:
                # Spans replayed over the repro.parallel bridge carry
                # the replay timestamp (the parent-stream emission
                # time), not the true start; the measured dur is real,
                # so the start is recovered the same way as for
                # duration-carrying events.  Without this, a trial's
                # rounds are never adopted by its mpc.run and nested
                # durations double-count as siblings.
                start = record.ts - record.dur
            self._close(record.name, start, record.dur, record.attrs)
        elif record.kind == "event":
            dur = record.attrs.get("dur")
            if isinstance(dur, (int, float)):
                # Duration-carrying events (mpc.machine_step) are spans
                # emitted at their end time.
                self._close(record.name, record.ts - dur, float(dur),
                            record.attrs)

    def _close(self, name: str, start: float, dur: float, attrs: dict) -> None:
        children: list[_Node] = []
        while self._pending and self._pending[-1].start >= start:
            children.append(self._pending.pop())
        child_dur = sum(c.dur for c in children)
        self_s = max(0.0, dur - child_dur)

        cum_by_name: dict[str, float] = {}
        for child in children:
            for child_name, seconds in child.cum_by_name.items():
                cum_by_name[child_name] = cum_by_name.get(child_name, 0.0) + seconds
        # This span subsumes any same-name descendants: its own full
        # duration is the subtree's cumulative time for this name.
        cum_by_name[name] = dur
        self._pending.append(_Node(name, start, dur, cum_by_name))

        spot = self._by_name.get(name)
        if spot is None:
            spot = self._by_name[name] = Hotspot(name)
        spot.count += 1
        spot.self_s += self_s
        spot.max_s = max(spot.max_s, dur)

        round_k = attrs.get("round")
        if isinstance(round_k, int):
            self._on_round_interval(name, dur, round_k, attrs)

    def _on_round_interval(self, name: str, dur: float, round_k: int,
                           attrs: dict) -> None:
        row = self._rounds.get(round_k)
        if row is None:
            row = self._rounds[round_k] = RoundProfile(round_k)
        if name == "mpc.round":
            row.latency_s += dur
            row.messages += attrs.get("messages", 0)
            row.oracle_queries += attrs.get("oracle_queries", 0)
        elif name == "mpc.machine_step":
            row.machine_s += dur
            if dur > row.slowest_machine_s:
                row.slowest_machine_s = dur
                row.slowest_machine = attrs.get("machine")

    def hotspots(self) -> list[Hotspot]:
        """Per-name aggregates, hottest self-time first.

        Cumulative times are finalized here from the unclaimed root
        intervals, so recursion and repeated runs count each second of
        wall-clock exactly once.
        """
        cum: dict[str, float] = {}
        for root in self._pending:
            for name, seconds in root.cum_by_name.items():
                cum[name] = cum.get(name, 0.0) + seconds
        out = []
        for name, spot in self._by_name.items():
            out.append(Hotspot(
                name=name,
                count=spot.count,
                cum_s=cum.get(name, 0.0),
                self_s=spot.self_s,
                max_s=spot.max_s,
            ))
        out.sort(key=lambda h: (-h.self_s, h.name))
        return out

    def rounds(self) -> list[RoundProfile]:
        """Per-round latency decomposition, in round order."""
        return [self._rounds[k] for k in sorted(self._rounds)]

    @property
    def total_s(self) -> float:
        """Total traced wall-clock: the sum of root span durations."""
        return sum(root.dur for root in self._pending)

    def render(self, *, top: int | None = None, slow_rounds: int = 5) -> str:
        """The sorted hotspot table ``repro profile`` prints."""
        hotspots = self.hotspots()
        shown = hotspots if top is None else hotspots[:top]
        lines = [
            f"hotspots ({len(hotspots)} span kinds, "
            f"total {self.total_s:.4f}s traced):"
        ]
        if shown:
            width = max(len(h.name) for h in shown)
            lines.append(
                f"  {'span':<{width}}  {'count':>7}  {'cum s':>9}  "
                f"{'self s':>9}  {'self %':>6}  {'mean ms':>9}  {'max ms':>9}"
            )
            total = self.total_s or 1.0
            for h in shown:
                lines.append(
                    f"  {h.name:<{width}}  {h.count:>7}  {h.cum_s:>9.4f}  "
                    f"{h.self_s:>9.4f}  {100 * h.self_s / total:>5.1f}%  "
                    f"{h.mean_s * 1e3:>9.3f}  {h.max_s * 1e3:>9.3f}"
                )
        rounds = self.rounds()
        if rounds and slow_rounds:
            slowest = sorted(rounds, key=lambda r: -r.latency_s)[:slow_rounds]
            lines.append(f"  slowest rounds (of {len(rounds)}):")
            for row in slowest:
                who = (
                    f"machine {row.slowest_machine} "
                    f"{row.slowest_machine_s * 1e3:.3f}ms"
                    if row.slowest_machine is not None
                    else "-"
                )
                lines.append(
                    f"    round {row.round:<5} {row.latency_s * 1e3:9.3f}ms  "
                    f"compute {row.machine_s * 1e3:9.3f}ms  "
                    f"overhead {row.overhead_s * 1e3:9.3f}ms  "
                    f"slowest: {who}"
                )
        return "\n".join(lines)


class ScopedCProfile(SpanHook):
    """``cProfile`` attached to one span kind via span hooks.

    With ``span=None`` the profile covers everything between
    :meth:`start` and :meth:`stop`.  With ``span="mpc.round"`` (or any
    span / hook-scope name: ``oracle.query``, ``mpc.machine_step``,
    ``experiment`` ...) the profiler is enabled only while a span of
    that name is open, so the function table shows just that code path.
    Nested occurrences are depth-counted; unbalanced exits (a run that
    raises mid-span) are cleaned up by :meth:`stop`.
    """

    def __init__(self, span: str | None = None) -> None:
        import cProfile

        self.span = span
        self._profile = cProfile.Profile()
        self._depth = 0
        self._running = False

    def _enable(self) -> None:
        if not self._running:
            self._profile.enable()
            self._running = True

    def _disable(self) -> None:
        if self._running:
            self._profile.disable()
            self._running = False

    def start(self) -> None:
        """Begin a profiling session (enables now when unscoped)."""
        if self.span is None:
            self._enable()

    def stop(self) -> None:
        """End the session; always safe to call in ``finally``."""
        self._depth = 0
        self._disable()

    def span_start(self, name: str, attrs: dict) -> None:
        if name == self.span:
            self._depth += 1
            if self._depth == 1:
                self._enable()

    def span_end(self, name: str) -> None:
        if name == self.span and self._depth > 0:
            self._depth -= 1
            if self._depth == 0:
                self._disable()

    def stats_table(self, *, top: int = 20, sort: str = "cumulative") -> str:
        """The ``pstats`` function table, as a string."""
        import io
        import pstats

        self._disable()
        buf = io.StringIO()
        stats = pstats.Stats(self._profile, stream=buf)
        stats.sort_stats(sort).print_stats(top)
        return buf.getvalue().rstrip()


class RoundMemorySampler:
    """Per-round peak heap usage via ``tracemalloc``.

    A tracer subscriber: at every closing ``mpc.round`` span it records
    ``tracemalloc``'s peak traced size since the previous round and
    resets the peak, giving a round-indexed memory profile.  Rounds
    with the same index across multiple runs keep the larger peak.
    Tracing costs real time and memory -- attach only when profiling.
    """

    def __init__(self) -> None:
        self.peak_bytes: dict[int, int] = {}
        self._started_here = False

    def start(self) -> None:
        import tracemalloc

        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_here = True
        tracemalloc.reset_peak()

    def stop(self) -> None:
        import tracemalloc

        if self._started_here and tracemalloc.is_tracing():
            tracemalloc.stop()
        self._started_here = False

    def __call__(self, record: TraceRecord) -> None:
        if record.kind != "span" or record.name != "mpc.round":
            return
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        round_k = record.attrs.get("round", 0)
        peak = tracemalloc.get_traced_memory()[1]
        self.peak_bytes[round_k] = max(self.peak_bytes.get(round_k, 0), peak)
        tracemalloc.reset_peak()

    def render(self, *, top: int = 5) -> str:
        if not self.peak_bytes:
            return "round memory: no mpc.round spans sampled"
        worst = sorted(self.peak_bytes.items(), key=lambda kv: -kv[1])[:top]
        lines = [
            f"round memory peaks ({len(self.peak_bytes)} rounds, "
            f"max {max(self.peak_bytes.values()) / 1024:.1f} KiB):"
        ]
        for round_k, peak in worst:
            lines.append(f"  round {round_k:<5} {peak / 1024:9.1f} KiB")
        return "\n".join(lines)


@dataclass
class ProfileSession:
    """Everything one ``profile_experiment`` run produced."""

    result: object  # ExperimentResult (not imported here: layering)
    records: tuple
    profiler: SpanProfiler
    cprofile: ScopedCProfile | None = None
    memory: RoundMemorySampler | None = None


def profile_experiment(
    experiment_id: str,
    scale: str = "quick",
    *,
    cprofile: bool = False,
    cprofile_span: str | None = None,
    memory: bool = False,
) -> ProfileSession:
    """Run one experiment under the full profiling harness.

    ``cprofile_span`` implies ``cprofile`` and scopes it to that span
    kind; ``memory`` attaches the per-round ``tracemalloc`` sampler.
    """
    # Imported here: repro.experiments itself imports repro.obs.
    from repro.experiments import run_experiment
    from repro.obs.tracer import Tracer, use_tracer

    tracer = Tracer()
    profiler = SpanProfiler()
    tracer.subscribe(profiler)
    scoped = (
        ScopedCProfile(cprofile_span) if (cprofile or cprofile_span) else None
    )
    sampler = RoundMemorySampler() if memory else None
    if scoped is not None:
        tracer.add_span_hook(scoped)
        scoped.start()
    if sampler is not None:
        tracer.subscribe(sampler)
        sampler.start()
    try:
        with use_tracer(tracer):
            result = run_experiment(experiment_id, scale=scale)
    finally:
        if scoped is not None:
            scoped.stop()
            tracer.remove_span_hook(scoped)
        if sampler is not None:
            sampler.stop()
    return ProfileSession(
        result=result,
        records=tracer.records,
        profiler=profiler,
        cprofile=scoped,
        memory=sampler,
    )
