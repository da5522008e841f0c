"""Performance observatory: measured, remembered, gated wall-clock.

The correctness loop is closed -- counters are fingerprinted
(:mod:`repro.obs.baseline`), predicted (:mod:`repro.costmodel`), and
forensically explained (:mod:`repro.obs.forensics`).  This package
closes the same loop around **speed**:

* :mod:`repro.perfwatch.suite` -- the curated benchmark suite behind
  ``repro bench run``: warmup + best-of-k timing per experiment, an
  environment fingerprint (git SHA, python, CPU, jobs) on
  every row, standardized ``BENCH_*.json`` payloads, and rows in the
  registry's ``bench_results`` table (schema v3);
* :mod:`repro.perfwatch.changepoint` -- statistical regression
  detection over bench history (``repro bench trend``): a rolling-
  median baseline with a MAD-based robust z-score *and* the shared
  relative-threshold + absolute-noise-floor gate, plus the committed
  ``benchmarks/bench_history.json`` ledger;
* :mod:`repro.perfwatch.diffprof` -- differential span profiling
  (``repro profile --compare A.jsonl B.jsonl``): aligns two traces'
  hotspot tables and attributes the wall-clock delta to named spans;
* :mod:`repro.perfwatch.budgets` -- declarative per-experiment
  wall-time / RSS budgets (``benchmarks/budgets.json``), checked as
  **advisory** monitor-style violations.

Wall-clock and budget data never enter any deterministic fingerprint:
perfwatch observes the runs the same way telemetry does -- from
outside the determinism contract.
"""

from repro.perfwatch.budgets import (
    Budget,
    BudgetViolation,
    check_budgets,
    default_budgets_path,
    load_budgets,
    render_budget_violations,
)
from repro.perfwatch.changepoint import (
    DEFAULT_HISTORY,
    BenchPoint,
    BenchTrendReport,
    BenchTrendSeries,
    append_bench_history,
    bench_trend,
    detect_changepoint,
    load_bench_history,
    merge_points,
    points_from_history,
    points_from_registry,
)
from repro.perfwatch.diffprof import (
    DiffProfile,
    SpanDelta,
    diff_profilers,
    diff_trace_files,
)
from repro.perfwatch.suite import (
    SUITES,
    BenchOutcome,
    environment_fingerprint,
    run_bench,
    run_suite,
    suite_experiments,
)

__all__ = [
    "DEFAULT_HISTORY",
    "SUITES",
    "BenchOutcome",
    "BenchPoint",
    "BenchTrendReport",
    "BenchTrendSeries",
    "Budget",
    "BudgetViolation",
    "DiffProfile",
    "SpanDelta",
    "append_bench_history",
    "bench_trend",
    "check_budgets",
    "default_budgets_path",
    "detect_changepoint",
    "diff_profilers",
    "diff_trace_files",
    "environment_fingerprint",
    "load_bench_history",
    "load_budgets",
    "merge_points",
    "points_from_history",
    "points_from_registry",
    "render_budget_violations",
    "run_bench",
    "run_suite",
    "suite_experiments",
]
