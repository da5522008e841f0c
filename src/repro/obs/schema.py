"""The trace schema: every record name, its attrs, and what is compared.

One declaration answers "is this deterministic?" for every consumer.
:data:`RECORDS` lists each record name with its kind and attrs, and
marks every attr as **model** data (a Definition 2.1-2.4 quantity, or
anything else a seeded run reproduces) or **volatile**: wall clock, host
readings, and the ``worker`` a trial ran on, which changes with
``--jobs N`` by design.  The ``telemetry.*`` names are **host records**:
they describe the process, not the model, so every attr they carry is
volatile and the records are skipped whole.
``ts``, and a span's ``dur``, are record fields rather than attrs and
are never compared.

The consumers:

* the lockstep comparison behind ``repro trace-diff``
  (:func:`repro.obs.forensics.explain_divergence`) compares each record
  by kind, name and :func:`model_attrs`, in stream order, skipping
  :data:`HOST_NAMES`;
* :func:`repro.obs.registry.deterministic_metrics` drops the flat metric
  keys :func:`volatile_metric` names, the metric-key view of the same
  volatile data.

A trace may hold a name or an attr declared nowhere here.  It is
compared as model data, so an undeclared record can only make a
comparison stricter, never looser.  ``tests/obs/test_schema.py`` fails on any record
a traced run emits that this module does not declare.  Nothing on the
emission path reads this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.tracer import TraceRecord

__all__ = [
    "HOST_NAMES",
    "RECORDS",
    "RecordSpec",
    "model_attrs",
    "volatile_metric",
]

#: Attrs :class:`repro.parallel.TrialPool` adds to every record it
#: replays from a trial, so any declared record may carry them: the
#: ``trial`` index is model data; the ``worker`` chunk that ran the
#: trial is volatile (serial runs report 0, ``--jobs N`` runs 0..N-1).
_REPLAY_MODEL = frozenset({"trial"})
_REPLAY_VOLATILE = frozenset({"worker"})


@dataclass(frozen=True)
class RecordSpec:
    """One declared record name: its kind and its model/volatile attrs."""

    kind: str
    model: frozenset[str]
    volatile: frozenset[str]
    host: bool = False

    @property
    def attrs(self) -> frozenset[str]:
        """Every attr a record of this name may carry."""
        return self.model | self.volatile


def _record(kind: str, model: str, volatile: str = "") -> RecordSpec:
    return RecordSpec(
        kind,
        frozenset(model.split()) | _REPLAY_MODEL,
        frozenset(volatile.split()) | _REPLAY_VOLATILE,
    )


def _host(kind: str, attrs: str) -> RecordSpec:
    volatile = frozenset(attrs.split()) | _REPLAY_MODEL | _REPLAY_VOLATILE
    return RecordSpec(kind, frozenset(), volatile, host=True)


#: Every record name the tracer emits; docs/OBSERVABILITY.md, "Trace
#: schema", says what each attr means.
RECORDS: dict[str, RecordSpec] = {
    "experiment": _record("span", "experiment_id scale passed"),
    "phase": _record("span", "phase f"),
    "mpc.run_start": _record("event", "m s_bits q max_rounds"),
    "mpc.run": _record(
        "span",
        "m s_bits q rounds halted total_messages total_message_bits "
        "total_oracle_queries",
    ),
    "mpc.round": _record(
        "span",
        "round messages message_bits oracle_queries active_machines "
        "halted_machines",
    ),
    "mpc.machine_step": _record(
        "event",
        "round machine incoming_bits oracle_queries sent_messages "
        "sent_bits sent_to",
        volatile="dur",
    ),
    "oracle.query": _record("event", "position round machine repeat key"),
    "ram.run": _record(
        "span", "instructions time oracle_queries peak_memory_words"
    ),
    "ram.batch": _record("event", "instructions time oracle_queries"),
    "bounds.expect_rounds": _record(
        "event", "lo hi w f lookahead hard_regime source"
    ),
    "monitor.violation": _record(
        "event", "check message round machine observed limit"
    ),
    "cost.model": _record("event", "model trigger params measured"),
    "cost.predicted": _record("event", "model status params entries note"),
    "cost.mismatch": _record(
        "event",
        "model counter kind status measured predicted lo hi slack drift "
        "ref note",
    ),
    "trial.result": _record("event", "estimate value binary"),
    "estimate.converged": _record(
        "event", "estimate n value half_width target"
    ),
    "telemetry.sample": _host(
        "event",
        "rss_kb rss_peak_kb threads cpu_user_s cpu_sys_s gc_collections "
        "gc_objects interval_s",
    ),
    "telemetry.heartbeat": _host("event", "elapsed_s rss_kb"),
    "telemetry.stall": _host(
        "event", "rss_kb check message observed limit"
    ),
    "telemetry.overhead": _host("event", "overhead_s records overhead_frac"),
}

#: Record names every determinism consumer skips whole.
HOST_NAMES = frozenset(name for name, spec in RECORDS.items() if spec.host)


def model_attrs(record: TraceRecord) -> dict:
    """``record.attrs`` without its declared volatile attrs.

    An undeclared name keeps every attr: it is compared as model data.
    """
    spec = RECORDS.get(record.name)
    volatile = spec.volatile if spec is not None else ()
    return {k: v for k, v in record.attrs.items() if k not in volatile}


#: The flat-metric view of the same volatile data: the experiment's wall
#: clock (``duration_s``), per-round latency and per-experiment span
#: durations folded from span ``dur`` fields, any ``wall_s``, and the
#: host records' readings (``telemetry.*``).
_METRIC_KEYS = ("duration_s",)
_METRIC_FRAGMENTS = (".round_latency_s.", ".wall_s")
_METRIC_PREFIXES = ("trace.experiments.", "experiments.", "telemetry.")


def volatile_metric(key: str) -> bool:
    """True when a flat metric key holds wall clock or a host reading."""
    return (
        key in _METRIC_KEYS
        or any(fragment in key for fragment in _METRIC_FRAGMENTS)
        or key.startswith(_METRIC_PREFIXES)
    )
