"""The curated benchmark suite behind ``repro bench run``.

The ``benchmarks/`` tree holds one ad-hoc pytest harness per
experiment; this module is the unified runner the CLI and CI drive
instead: a curated tier of experiments, each measured with **warmup +
best-of-k** repeats, stamped with an **environment fingerprint**, and
emitted three ways --

* a standardized ``BENCH_<id>.json`` payload per experiment (the same
  shape :func:`repro.obs.baseline.load_bench_dir` ingests, so the
  existing ``bench-compare`` counter gate reads suite output
  unchanged), finally populating the ``REPRO_BENCH_JSON`` trajectory;
* one row per experiment in the run registry's ``bench_results`` table
  (schema v3), the durable history ``repro bench trend`` gates on;
* optionally one appended row per experiment in the committed
  ``benchmarks/bench_history.json`` ledger
  (:func:`repro.perfwatch.changepoint.append_bench_history`).

Timing methodology: the warmup runs are discarded (they pay import,
allocation-pool, and branch-predictor costs); each timed repeat runs
**untraced** under a ``perf_counter`` pair so tracer overhead never
contaminates the number; ``wall_s`` is the **minimum** of the repeats
(the classical best-of-k noise-rejection estimator -- an OS scheduler
can only ever make a run slower, never faster).  One final *traced*
run -- excluded from timing -- captures the deterministic counter
fingerprint so every bench row cross-references the model behavior it
measured.  Experiments are deterministic, so the traced run's counters
are exactly the timed runs' counters.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Sequence

from repro.obs.baseline import counters_of
from repro.obs.metrics import TraceMetrics
from repro.obs.registry import BenchResult, git_sha
from repro.obs.tracer import NULL_TRACER, Tracer, use_tracer
from repro.parallel import resolve_jobs

__all__ = [
    "SUITES",
    "BenchOutcome",
    "environment_fingerprint",
    "run_bench",
    "run_suite",
    "suite_experiments",
]

#: The quick tier: experiments whose quick-scale run takes between the
#: trend gate's 5 ms noise floor and about two seconds, spanning the MPC
#: protocols, the word-RAM interpreter, the encoders and the Monte-Carlo
#: trials (E-GUESS samples a fresh random oracle per trial).  The
#: closed-form T1 and E-BOUND finish in ~0.1 ms, too fast for the gate
#: to ever fire on.
_QUICK = (
    "E-GUESS",
    "E-MEM",
    "E-BUDGET",
    "E-RAM",
    "E-ENC-A",
    "E-SIMLINE",
    "E-DECAY",
    "E-LINE",
)

SUITES: dict[str, tuple[str, ...] | None] = {
    "quick": _QUICK,
    # ``None`` = the full registered experiment inventory at run time.
    "full": None,
}


def suite_experiments(suite: str) -> list[str]:
    """The experiment ids one suite tier runs, in run order."""
    if suite not in SUITES:
        raise KeyError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        )
    names = SUITES[suite]
    if names is None:
        from repro.experiments import experiment_ids

        return experiment_ids()
    return list(names)


def _cpu_model() -> str | None:
    """The CPU model string from ``/proc/cpuinfo`` (None off-Linux)."""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def _rss_peak_kb() -> float | None:
    """Process RSS high-water mark in kB (``VmHWM``; None off-Linux).

    Monotone for the life of the process, so in a suite run it reads
    as "peak over this bench *and everything before it*" -- honest for
    advisory budget checks, useless for per-bench attribution.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM"):
                    return float(line.split()[1])
    except (OSError, IndexError, ValueError):
        pass
    return None


def environment_fingerprint(*, jobs: int | None = None) -> dict:
    """The context stamp every bench row carries.

    Wall-clock numbers are only comparable within one environment; the
    fingerprint makes "which environment" explicit: git SHA, python
    version/implementation, platform, CPU model and logical core
    count, plus the resolved parallelism degree.
    """
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "jobs": resolve_jobs(jobs),
    }


@dataclass
class BenchOutcome:
    """Everything one ``run_bench`` measurement produced."""

    result: BenchResult
    #: Every timed repeat, in run order (``result.wall_s`` is the min).
    repeats_s: list[float] = field(default_factory=list)
    #: Wall-clock of the untimed traced verification run (advisory).
    traced_s: float | None = None

    def bench_payload(self) -> dict:
        """The standardized ``BENCH_<id>.json`` content.

        A superset of the shape :func:`~repro.obs.baseline.load_bench_dir`
        reads (``experiment_id`` / ``counters`` / ``duration_s`` /
        ``passed``), extended with the suite timing block and the
        environment fingerprint.
        """
        r = self.result
        return {
            "experiment_id": r.experiment_id,
            "scale": r.scale,
            "passed": r.passed,
            "duration_s": r.wall_s,
            "counters": dict(r.counters),
            "suite": r.suite,
            "timing": {
                "warmup": r.warmup,
                "repeats": r.repeats,
                "best_s": r.wall_s,
                "mean_s": r.mean_s,
                "repeats_s": [round(v, 6) for v in self.repeats_s],
                "traced_s": self.traced_s,
            },
            "fingerprint": dict(r.fingerprint),
            "rss_peak_kb": r.rss_peak_kb,
        }


def run_bench(
    experiment_id: str,
    *,
    scale: str = "quick",
    suite: str = "quick",
    warmup: int = 1,
    repeats: int = 3,
    jobs: int | None = None,
    fingerprint: dict | None = None,
) -> BenchOutcome:
    """Measure one experiment: warmup, best-of-k, counters, fingerprint.

    The caller is expected to have installed the jobs scope
    (``use_jobs``); ``jobs`` here only labels the fingerprint.  ``fingerprint`` short-circuits the
    environment probe when the caller already built one for the whole
    suite.
    """
    from repro.experiments import run_experiment

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")
    # Warmup and timed repeats run under the null tracer even when an
    # ambient tracer is installed (e.g. the CLI's global --trace-out):
    # tracer overhead must never contaminate the timing, and bench
    # internals must never leak records into a determinism-checked
    # trace stream.
    repeats_s: list[float] = []
    passed = True
    with use_tracer(NULL_TRACER):
        for _ in range(warmup):
            run_experiment(experiment_id, scale=scale)
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_experiment(experiment_id, scale=scale)
            repeats_s.append(time.perf_counter() - start)
            passed = passed and result.passed
    # The counter fingerprint needs a traced run; timing is done, so
    # tracer overhead here costs nothing but wall time.
    captured: list = []
    tracer = Tracer(keep_records=False)
    tracer.subscribe(captured.append)
    start = time.perf_counter()
    with use_tracer(tracer):
        traced_result = run_experiment(experiment_id, scale=scale)
    traced_s = time.perf_counter() - start
    passed = passed and traced_result.passed
    counters = counters_of(TraceMetrics.from_records(captured))
    stamp = dict(
        fingerprint
        if fingerprint is not None
        else environment_fingerprint(jobs=jobs)
    )
    # Stamp identity here, at measurement time, so the registry row and
    # the history-ledger row of one measurement are recognizably the
    # same point (bench trend dedups on it when merging sources).
    result_row = BenchResult(
        experiment_id=experiment_id,
        suite=suite,
        scale=scale,
        jobs=resolve_jobs(jobs),
        warmup=warmup,
        repeats=repeats,
        wall_s=min(repeats_s),
        mean_s=sum(repeats_s) / len(repeats_s),
        rss_peak_kb=_rss_peak_kb(),
        passed=passed,
        fingerprint=stamp,
        counters=counters,
        ts_utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        git_sha=stamp.get("git_sha"),
    )
    return BenchOutcome(
        result=result_row, repeats_s=repeats_s, traced_s=traced_s
    )


def run_suite(
    suite: str = "quick",
    *,
    scale: str = "quick",
    warmup: int = 1,
    repeats: int = 3,
    jobs: int | None = None,
    experiments: Sequence[str] | None = None,
    progress: Callable[[str], None] | None = None,
) -> list[BenchOutcome]:
    """Run one suite tier end to end; returns per-experiment outcomes.

    ``experiments`` restricts the tier to a subset (ids must belong to
    the tier); ``progress`` receives one human line per finished bench
    (the CLI points it at stderr).
    """
    names = suite_experiments(suite)
    if experiments:
        unknown = sorted(set(experiments) - set(names))
        if unknown:
            raise KeyError(
                f"experiments {unknown} are not in the {suite!r} suite "
                f"(its tier: {names})"
            )
        names = [n for n in names if n in set(experiments)]
    stamp = environment_fingerprint(jobs=jobs)
    outcomes: list[BenchOutcome] = []
    for experiment_id in names:
        outcome = run_bench(
            experiment_id,
            scale=scale,
            suite=suite,
            warmup=warmup,
            repeats=repeats,
            jobs=jobs,
            fingerprint=stamp,
        )
        outcomes.append(outcome)
        if progress is not None:
            r = outcome.result
            spread = (
                max(outcome.repeats_s) / min(outcome.repeats_s)
                if outcome.repeats_s and min(outcome.repeats_s) > 0
                else 1.0
            )
            progress(
                f"bench {experiment_id:<14} best {r.wall_s * 1e3:9.2f}ms  "
                f"mean {r.mean_s * 1e3:9.2f}ms  spread {spread:4.2f}x  "
                f"{'ok' if r.passed else 'FAIL'}"
            )
    return outcomes
