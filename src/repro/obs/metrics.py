"""Aggregated metrics over a trace: the numbers a perf PR watches.

:class:`TraceMetrics` folds a record stream into per-layer aggregates:

* **experiment** -- wall-clock per experiment span;
* **mpc** -- runs, rounds, per-round latency, and per-round
  messages / message-bits / oracle-queries distributions (the paper's
  communication and ``q`` budgets as measured histograms);
* **oracle** -- total vs. distinct queries, i.e. how well a
  memoizing oracle cache would behave (repeat fraction);
* **ram** -- instructions retired, model time, queries, peak words.

Distributions are reported as ``{count, sum, min, max, mean}``; the
small integer ones (queries, messages per round) also carry an exact
``histogram`` mapping value -> number of rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.obs.tracer import TraceRecord

__all__ = [
    "COUNTER_PATHS",
    "Distribution",
    "TraceMetrics",
    "counters_of",
    "flatten_dotted",
]


def flatten_dotted(node: dict, prefix: str = "") -> dict:
    """Flatten a nested mapping into sorted ``layer.metric[.stat]`` keys.

    The one flattening used everywhere a metrics tree meets a flat
    consumer (the registry's metrics column,
    ``ExperimentResult.flat_metrics``); hand-rolled flattening of
    ``to_dict()`` output is deprecated in favor of this.
    """
    flat: dict = {}
    for key, value in node.items():
        dotted = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            flat.update(flatten_dotted(value, dotted))
        else:
            flat[dotted] = value
    return dict(sorted(flat.items()))


@dataclass(frozen=True)
class Distribution:
    """Summary statistics of one per-round quantity."""

    count: int
    total: float
    minimum: float
    maximum: float
    histogram: dict[int, int] | None = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def of(values: Sequence[float], *, exact_histogram: bool = False
           ) -> "Distribution":
        if not values:
            return Distribution(0, 0.0, 0.0, 0.0, {} if exact_histogram else None)
        hist: dict[int, int] | None = None
        if exact_histogram:
            hist = {}
            for v in values:
                hist[int(v)] = hist.get(int(v), 0) + 1
        return Distribution(
            count=len(values),
            total=float(sum(values)),
            minimum=float(min(values)),
            maximum=float(max(values)),
            histogram=hist,
        )

    def to_dict(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }
        if self.histogram is not None:
            out["histogram"] = {str(k): v for k, v in sorted(self.histogram.items())}
        return out


@dataclass
class TraceMetrics:
    """The aggregate view of one trace."""

    experiments: dict[str, float] = field(default_factory=dict)
    mpc_runs: int = 0
    mpc_rounds: int = 0
    round_latency: Distribution = field(
        default_factory=lambda: Distribution.of(())
    )
    round_messages: Distribution = field(
        default_factory=lambda: Distribution.of((), exact_histogram=True)
    )
    round_message_bits: Distribution = field(
        default_factory=lambda: Distribution.of(())
    )
    round_oracle_queries: Distribution = field(
        default_factory=lambda: Distribution.of((), exact_histogram=True)
    )
    oracle_queries: int = 0
    oracle_repeat_queries: int = 0
    ram_runs: int = 0
    ram_instructions: int = 0
    ram_time: int = 0
    ram_oracle_queries: int = 0
    ram_peak_memory_words: int = 0

    @property
    def oracle_repeat_fraction(self) -> float:
        """Fraction of queries a memoizing cache would have answered."""
        if not self.oracle_queries:
            return 0.0
        return self.oracle_repeat_queries / self.oracle_queries

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "TraceMetrics":
        """Fold a record stream (see docs/OBSERVABILITY.md for names)."""
        m = cls()
        latencies: list[float] = []
        messages: list[int] = []
        bits: list[int] = []
        queries: list[int] = []
        for rec in records:
            a = rec.attrs
            if rec.name == "experiment" and rec.kind == "span":
                m.experiments[a.get("experiment_id", "?")] = rec.dur or 0.0
            elif rec.name == "mpc.run" and rec.kind == "span":
                m.mpc_runs += 1
                m.mpc_rounds += a.get("rounds", 0)
            elif rec.name == "mpc.round" and rec.kind == "span":
                latencies.append(rec.dur or 0.0)
                messages.append(a.get("messages", 0))
                bits.append(a.get("message_bits", 0))
                queries.append(a.get("oracle_queries", 0))
            elif rec.name == "oracle.query":
                m.oracle_queries += 1
                if a.get("repeat"):
                    m.oracle_repeat_queries += 1
            elif rec.name == "ram.run" and rec.kind == "span":
                m.ram_runs += 1
                m.ram_instructions += a.get("instructions", 0)
                m.ram_time += a.get("time", 0)
                m.ram_oracle_queries += a.get("oracle_queries", 0)
                m.ram_peak_memory_words = max(
                    m.ram_peak_memory_words, a.get("peak_memory_words", 0)
                )
        m.round_latency = Distribution.of(latencies)
        m.round_messages = Distribution.of(messages, exact_histogram=True)
        m.round_message_bits = Distribution.of(bits)
        m.round_oracle_queries = Distribution.of(queries, exact_histogram=True)
        return m

    def to_flat_dict(self) -> dict:
        """:meth:`to_dict` flattened to one level with dotted keys.

        The single key namespace shared by ``repro trace`` output and
        ``run-all --json``: every leaf of the nested dict becomes
        ``layer.metric[.stat]``, e.g. ``mpc.rounds``,
        ``mpc.round_latency_s.mean``, ``oracle.repeat_fraction``,
        ``experiments.E-LINE``.  Histogram buckets flatten as
        ``...histogram.<value>``.  Keys are sorted, so the mapping is
        stable across runs of the same tree.
        """
        return flatten_dotted(self.to_dict())

    def to_dict(self) -> dict:
        """JSON-serializable view (what ``repro trace`` prints)."""
        return {
            "experiments": {k: round(v, 6) for k, v in self.experiments.items()},
            "mpc": {
                "runs": self.mpc_runs,
                "rounds": self.mpc_rounds,
                "round_latency_s": self.round_latency.to_dict(),
                "round_messages": self.round_messages.to_dict(),
                "round_message_bits": self.round_message_bits.to_dict(),
                "round_oracle_queries": self.round_oracle_queries.to_dict(),
            },
            "oracle": {
                "queries": self.oracle_queries,
                "repeat_queries": self.oracle_repeat_queries,
                "repeat_fraction": round(self.oracle_repeat_fraction, 6),
            },
            "ram": {
                "runs": self.ram_runs,
                "instructions": self.ram_instructions,
                "time": self.ram_time,
                "oracle_queries": self.ram_oracle_queries,
                "peak_memory_words": self.ram_peak_memory_words,
            },
        }


#: Counter name -> path into ``TraceMetrics.to_dict()``.  Everything
#: here is a deterministic model-level count; wall-clock lives outside.
COUNTER_PATHS: dict[str, tuple[str, ...]] = {
    "mpc.runs": ("mpc", "runs"),
    "mpc.rounds": ("mpc", "rounds"),
    "mpc.messages": ("mpc", "round_messages", "sum"),
    "mpc.message_bits": ("mpc", "round_message_bits", "sum"),
    "mpc.oracle_queries": ("mpc", "round_oracle_queries", "sum"),
    "oracle.queries": ("oracle", "queries"),
    "oracle.repeat_queries": ("oracle", "repeat_queries"),
    "ram.runs": ("ram", "runs"),
    "ram.instructions": ("ram", "instructions"),
    "ram.time": ("ram", "time"),
    "ram.oracle_queries": ("ram", "oracle_queries"),
    "ram.peak_memory_words": ("ram", "peak_memory_words"),
}


def counters_of(metrics) -> dict[str, int]:
    """The deterministic counter fingerprint of one trace's metrics.

    The fingerprint the run registry stores in its ``counters`` column;
    ``repro trace-diff`` prints its drift as context when two traces
    diverge.  Accepts a :class:`TraceMetrics` instance or its
    ``to_dict()`` mapping.
    """
    if not isinstance(metrics, Mapping):
        metrics = metrics.to_dict()
    out: dict[str, int] = {}
    for name, path in COUNTER_PATHS.items():
        node: object = metrics
        for key in path:
            if not isinstance(node, Mapping) or key not in node:
                node = 0
                break
            node = node[key]
        out[name] = int(node)  # type: ignore[call-overload]
    return out
