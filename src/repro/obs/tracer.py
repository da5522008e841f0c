"""Structured tracing: spans, events, and the ambient-tracer context.

The observability layer records *what the model paid for and when*: a
trace is an ordered stream of :class:`TraceRecord` entries -- spans
(named intervals with a wall-clock duration: an experiment, one MPC
round, one RAM execution) and events (point-in-time marks: one oracle
query, one machine step, one batch of RAM instructions).  Every record
carries free-form ``attrs`` holding the model-level counters the paper
reasons about (rounds, message bits, oracle queries ``q``, ...), so a
trace is simultaneously a profile and a transcript of Definition
2.1-2.4 quantities.

Instrumented code never imports a concrete tracer: it calls
:func:`get_tracer` and checks ``.enabled``.  The default is the
process-wide :data:`NULL_TRACER`, whose every method is a no-op so
untraced runs pay one attribute check per instrumentation site.  A real
:class:`Tracer` is installed for a scope with :func:`use_tracer`::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        run_experiment("E-LINE")
    print(len(tracer.records))

The record stream fans out to any number of subscribers
(:meth:`Tracer.subscribe`): exporters (:mod:`repro.obs.exporters`) turn
it into JSONL files or a human-readable summary, invariant monitors
(:mod:`repro.obs.monitor`) check it against the paper's resource
budgets *while the run executes*, progress renderers
(:mod:`repro.obs.progress`) show per-round liveness, and
:mod:`repro.obs.metrics` aggregates it into per-round latency and
histogram metrics after the fact.

Subscribers only ever see *completed* spans (a span record is emitted
when the interval closes).  Profiling tools that must act at span
*boundaries* -- e.g. a :class:`~repro.obs.profile.ScopedCProfile` that
turns ``cProfile`` on only inside ``mpc.round`` -- register a **span
hook** (:meth:`Tracer.add_span_hook`): an object with
``span_start(name, attrs)`` / ``span_end(name)`` methods called at the
open and close of every span (and of hook-only scopes such as the
oracle's per-query window, see :meth:`Tracer.hook_scope`).  Hooks are
a profiling side-channel: they never receive records and cost nothing
when none are registered.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

__all__ = [
    "TraceRecord",
    "SpanHook",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "phase",
]


class SpanHook:
    """Base class for span-boundary hooks (see module docstring).

    Subclasses override either method; the defaults are no-ops so a
    hook interested only in starts (or only ends) stays minimal.
    """

    def span_start(self, name: str, attrs: dict) -> None:
        """Called when a span named ``name`` opens."""

    def span_end(self, name: str) -> None:
        """Called when a span named ``name`` closes (also on error exit)."""


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    ``kind`` is ``"span"`` or ``"event"``; ``ts`` is seconds since the
    tracer was created (for spans, the *start* time); ``dur`` is the
    span's duration in seconds and ``None`` for events.  ``attrs`` holds
    the model-level counters -- see docs/OBSERVABILITY.md for the schema
    of each record name.
    """

    kind: str
    name: str
    ts: float
    dur: float | None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable view (the JSONL exporter's row)."""
        out: dict = {"kind": self.kind, "name": self.name, "ts": round(self.ts, 9)}
        if self.dur is not None:
            out["dur"] = round(self.dur, 9)
        if self.attrs:
            out["attrs"] = self.attrs
        return out


@dataclass
class OpenSpan:
    """A span opened with :meth:`Tracer.begin_span`, awaiting its end.

    ``attrs`` may be mutated before :meth:`Tracer.end_span` to add
    end-of-span attributes (the begin/end twin of mutating the dict
    yielded by :meth:`Tracer.span`).
    """

    name: str
    start: float
    attrs: dict = field(default_factory=dict)


class NullTracer:
    """The zero-overhead default: records nothing, ``enabled`` is False.

    Hot paths guard their instrumentation with ``if tracer.enabled:``,
    so under the null tracer the only cost is that boolean check.
    """

    enabled: bool = False
    has_span_hooks: bool = False

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        return ()

    def event(self, name: str, **attrs) -> None:
        """Discard."""

    def record_span(self, name: str, start: float, **attrs) -> None:
        """Discard."""

    def now(self) -> float:
        """A clock is still provided so callers need no branching."""
        return time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """No-op scope; the yielded dict is accepted and dropped."""
        yield {}

    def begin_span(self, name: str, **attrs) -> "OpenSpan":
        """No-op twin of :meth:`Tracer.begin_span`."""
        return OpenSpan(name, 0.0, attrs)

    def end_span(self, open_span: "OpenSpan", **attrs) -> None:
        """Discard."""

    @contextmanager
    def hook_scope(self, name: str) -> Iterator[None]:
        """No-op hook window."""
        yield

    def replay(self, record: "TraceRecord", **extra_attrs) -> None:
        """Discard."""


class Tracer:
    """A recording tracer with fan-out to any number of subscribers.

    Records accumulate in memory (``.records``, unless constructed with
    ``keep_records=False``) and are simultaneously pushed to every
    subscriber callable the moment they are emitted.  Subscribers are
    how exporters (stream a trace to disk), invariant monitors
    (:mod:`repro.obs.monitor`), and live progress renderers
    (:mod:`repro.obs.progress`) coexist on one stream::

        tracer = Tracer(sink=JsonlExporter("t.jsonl"))   # subscriber 1
        tracer.subscribe(InvariantMonitor(tracer=tracer))  # subscriber 2
        tracer.subscribe(LiveProgress())                   # subscriber 3

    ``sink`` is kept as a convenience alias for the first subscriber.
    Subscribers are notified in subscription order; a subscriber may
    itself emit records (e.g. a monitor emitting ``monitor.violation``),
    which re-enter the fan-out immediately.
    """

    enabled: bool = True

    def __init__(
        self,
        sink: Callable[[TraceRecord], None] | None = None,
        *,
        subscribers: Iterable[Callable[[TraceRecord], None]] = (),
        keep_records: bool = True,
    ) -> None:
        self._t0 = time.perf_counter()
        self._records: list[TraceRecord] = []
        self._keep_records = keep_records
        self._subscribers: list[Callable[[TraceRecord], None]] = []
        self._span_hooks: list[SpanHook] = []
        # Optional self-overhead meter (repro.telemetry.OverheadMeter):
        # times every _emit fan-out when attached; one attribute check
        # otherwise.
        self._meter = None
        if sink is not None:
            self._subscribers.append(sink)
        self._subscribers.extend(subscribers)

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """Everything recorded so far, in emission order."""
        return tuple(self._records)

    @property
    def subscribers(self) -> tuple[Callable[[TraceRecord], None], ...]:
        """The current fan-out targets, in notification order."""
        return tuple(self._subscribers)

    def subscribe(
        self, subscriber: Callable[[TraceRecord], None]
    ) -> Callable[[TraceRecord], None]:
        """Add a fan-out target; returns it (handy for inline lambdas)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Callable[[TraceRecord], None]) -> None:
        """Remove a previously subscribed target (ValueError if absent)."""
        self._subscribers.remove(subscriber)

    @property
    def has_span_hooks(self) -> bool:
        """True when at least one span hook is registered.

        Hot paths that open hook-only scopes guard on this, so the
        common no-hooks case costs one attribute check.
        """
        return bool(self._span_hooks)

    def add_span_hook(self, hook: SpanHook) -> SpanHook:
        """Register a span-boundary hook; returns it."""
        self._span_hooks.append(hook)
        return hook

    def remove_span_hook(self, hook: SpanHook) -> None:
        """Remove a previously added hook (ValueError if absent)."""
        self._span_hooks.remove(hook)

    def _hooks_start(self, name: str, attrs: dict) -> None:
        for hook in tuple(self._span_hooks):
            hook.span_start(name, attrs)

    def _hooks_end(self, name: str) -> None:
        for hook in tuple(self._span_hooks):
            hook.span_end(name)

    def now(self) -> float:
        """Seconds since this tracer was created (the trace clock)."""
        return time.perf_counter() - self._t0

    def set_meter(self, meter) -> None:
        """Attach (or, with ``None``, detach) an overhead meter.

        The meter is an object with ``begin() -> token`` / ``end(token)``
        methods (see :class:`repro.telemetry.OverheadMeter`) timing the
        full fan-out of every record -- the observability tax the
        ``telemetry.overhead_frac`` report subtracts from timing
        comparisons.  Nested emissions (a subscriber emitting) are the
        meter's problem: it only times the outermost window.
        """
        self._meter = meter

    def _emit(self, record: TraceRecord) -> None:
        meter = self._meter
        if meter is None:
            if self._keep_records:
                self._records.append(record)
            # Snapshot: a subscriber may subscribe/unsubscribe
            # mid-notification.
            for subscriber in tuple(self._subscribers):
                subscriber(record)
            return
        token = meter.begin()
        try:
            if self._keep_records:
                self._records.append(record)
            for subscriber in tuple(self._subscribers):
                subscriber(record)
        finally:
            meter.end(token)

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event."""
        self._emit(TraceRecord("event", name, self.now(), None, attrs))

    def record_span(self, name: str, start: float, **attrs) -> None:
        """Record a span that started at trace-clock time ``start``.

        The manual-timing twin of :meth:`span` for hot paths that guard
        on ``enabled`` and take their own timestamps via :meth:`now`.
        """
        self._emit(TraceRecord("span", name, start, self.now() - start, attrs))

    def begin_span(self, name: str, **attrs) -> OpenSpan:
        """Open a span now: notifies span hooks, emits nothing yet.

        The explicit twin of :meth:`span` for hot paths that cannot use
        a ``with`` block (the simulator's round loop).  Pair with
        :meth:`end_span`; mutate the returned ``OpenSpan.attrs`` to add
        end-of-span attributes.
        """
        if self._span_hooks:
            self._hooks_start(name, attrs)
        return OpenSpan(name, self.now(), attrs)

    def end_span(self, open_span: OpenSpan, **attrs) -> None:
        """Close a span from :meth:`begin_span` and emit its record."""
        if self._span_hooks:
            self._hooks_end(open_span.name)
        self._emit(TraceRecord(
            "span",
            open_span.name,
            open_span.start,
            self.now() - open_span.start,
            {**open_span.attrs, **attrs},
        ))

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        """Scope a span; mutate the yielded dict to add end-time attrs::

            with tracer.span("experiment", id="E-LINE") as out:
                ...
                out["passed"] = True
        """
        open_span = self.begin_span(name, **attrs)
        try:
            yield open_span.attrs
        finally:
            self.end_span(open_span)

    def replay(self, record: TraceRecord, **extra_attrs) -> None:
        """Re-emit a record captured on *another* tracer onto this stream.

        The worker-to-parent bridge of :mod:`repro.parallel`: a trial
        that ran under a private tracer (possibly in a worker process)
        ships its records back, and the parent replays them here so
        subscribers -- metrics, invariant monitors, exporters -- see one
        coherent stream.  The record's ``dur`` is preserved (it is a
        real measured interval); its ``ts`` is remapped to this tracer's
        clock *now*, keeping the parent stream monotonic.
        ``extra_attrs`` (e.g. ``worker=2, trial=17``) are merged over
        the record's own attributes.
        """
        self._emit(TraceRecord(
            record.kind,
            record.name,
            self.now(),
            record.dur,
            {**record.attrs, **extra_attrs} if extra_attrs else record.attrs,
        ))

    @contextmanager
    def hook_scope(self, name: str) -> Iterator[None]:
        """Notify span hooks of a named window without emitting a record.

        Used where a *record* per occurrence would be redundant or too
        hot (the oracle already emits an ``oracle.query`` event) but a
        scoped profiler still needs the boundaries.  Guard call sites
        with :attr:`has_span_hooks`.
        """
        self._hooks_start(name, {})
        try:
            yield
        finally:
            self._hooks_end(name)


#: Process-wide no-op tracer; the ambient default.
NULL_TRACER = NullTracer()

_active: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The ambient tracer instrumented code reports to."""
    return _active


def set_tracer(tracer: Tracer | NullTracer) -> Tracer | NullTracer:
    """Install ``tracer`` as ambient; returns the one it replaced."""
    global _active
    previous = _active
    _active = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Install ``tracer`` for a ``with`` scope, restoring on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def phase(name: str, **attrs) -> Iterator[dict]:
    """A named phase span on the ambient tracer (no-op when untraced).

    Experiments wrap their sweeps in phases so a trace shows where the
    wall-clock went::

        with phase("sweep", f="1/4"):
            for w in ws: ...
    """
    with get_tracer().span("phase", phase=name, **attrs) as extra:
        yield extra
