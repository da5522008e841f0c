"""Unified tracing, metrics, monitoring & profiling for the whole model.

The package's parts (see docs/OBSERVABILITY.md for the trace schema
and a reading guide):

* :mod:`repro.obs.tracer` -- :class:`Tracer` / :class:`NullTracer`, the
  :class:`TraceRecord` stream with multi-subscriber fan-out, span
  boundary hooks (:class:`SpanHook`), and the ambient-tracer context
  (:func:`get_tracer` / :func:`use_tracer`) instrumented code reports
  to;
* :mod:`repro.obs.exporters` -- JSONL files and human-readable summaries;
* :mod:`repro.obs.metrics` -- :class:`TraceMetrics`, the aggregated
  per-round latency / messages / bits / queries view (nested and
  flat-dotted-key forms), and :func:`counters_of`, its deterministic
  counter fingerprint;
* :mod:`repro.obs.monitor` -- :class:`InvariantMonitor`, live checks of
  the paper's resource budgets (memory <= s, communication <= s*m,
  query budgets, round prediction bands) with a strict hard-fail mode;
* :mod:`repro.obs.progress` -- :class:`LiveProgress`, a per-round
  progress renderer on the same stream;
* :mod:`repro.obs.profile` -- :class:`SpanProfiler` hotspot self/cum
  times, span-scoped ``cProfile``, per-round ``tracemalloc`` peaks
  (``repro profile``);
* :mod:`repro.obs.forensics` -- the record-by-record trace comparison
  (``repro trace-diff``) and the causal window around its first
  diverging record;
* :mod:`repro.obs.schema` -- every record name and its attrs, each
  marked model data or volatile: the one definition of what the
  determinism checks compare;
* :mod:`repro.obs.registry` -- :class:`RunRegistry`, the append-only
  SQLite store of every experiment run (auto-recorded by ``repro
  run``/``run-all``, ``--registry PATH`` / ``REPRO_REGISTRY``);
* :mod:`repro.obs.convergence` -- streaming Welford/Wilson confidence
  intervals over the per-trial ``trial.result`` stream and the
  :class:`ConvergenceMonitor` (``estimate.converged`` events, "verdict
  not statistically resolved" flags);
* :mod:`repro.obs.history` -- cross-run queries over the registry:
  the ``repro runs {list,show,compare,gc}`` toolchain.

Instrumentation lives in :mod:`repro.mpc.simulator`,
:mod:`repro.oracle.counting`, :mod:`repro.ram.machine`, and
:mod:`repro.experiments.base`; with the default :data:`NULL_TRACER` it
all reduces to one boolean check per site.

Every name below is importable from this package, but the package
imports the submodule that defines a name only when the name is first
used (:func:`repro._lazy.lazy_exports`).  The paper core imports
:mod:`repro.obs.tracer` and :mod:`repro.obs.convergence` directly, so
an untraced run loads no other part of the package.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "convergence": (
        "ConvergenceMonitor",
        "EstimateStats",
        "WelfordAccumulator",
        "WilsonAccumulator",
        "attach_estimates",
    ),
    "exporters": (
        "JsonlExporter",
        "TraceFormatError",
        "coerce_jsonable",
        "iter_trace_records",
        "read_jsonl",
        "summarize",
        "write_jsonl",
    ),
    "forensics": (
        "CausalContext",
        "Divergence",
        "causal_context",
        "counter_drifts",
        "explain_divergence",
        "explain_trace_files",
        "render_divergence",
    ),
    "history": ("RunComparison", "compare_runs", "render_runs_table"),
    "metrics": (
        "COUNTER_PATHS",
        "Distribution",
        "TraceMetrics",
        "counters_of",
        "flatten_dotted",
    ),
    "monitor": ("InvariantMonitor", "InvariantViolation", "Violation"),
    "profile": (
        "ProfileSession",
        "RoundMemorySampler",
        "ScopedCProfile",
        "SpanProfiler",
        "profile_experiment",
    ),
    "progress": ("LiveProgress",),
    "registry": (
        "RunRecord",
        "RunRegistry",
        "default_registry_path",
        "deterministic_metrics",
        "git_sha",
    ),
    "tracer": (
        "NULL_TRACER",
        "NullTracer",
        "SpanHook",
        "TraceRecord",
        "Tracer",
        "get_tracer",
        "phase",
        "set_tracer",
        "use_tracer",
    ),
})
