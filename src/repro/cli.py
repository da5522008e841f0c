"""Command-line interface.

::

    python -m repro list                     # experiment inventory
    python -m repro run E-LINE [--scale full] [--strict-bounds] [--jobs N]
    python -m repro run-all [--scale quick] [--json] [--jobs N]
    python -m repro report [--scale quick] [--output EXPERIMENTS.md]
    python -m repro trace E-LINE [--trace-out t.jsonl] [--strict-bounds]
    python -m repro profile E-LINE [--cprofile-span mpc.round] [--memory]
    python -m repro trace-diff a.jsonl b.jsonl [--context K] [--json]
    python -m repro cost show [chain ram.line] [--latex]
    python -m repro cost eval chain T=64 m=4 b=2 v=8 u=16 q=none R=40
    python -m repro cost check [E-LINE E-RAM] [--strict] [--trace t.jsonl]
    python -m repro runs list [-e E-LINE] [-n 30] [--registry PATH]
    python -m repro runs show <run-id>
    python -m repro runs compare <a> <b>
    python -m repro runs gc --keep-last 50 [--before 2026-01-01]

``report`` regenerates the paper-vs-measured record (the markdown
committed to ``EXPERIMENTS.md``).

``trace`` runs one experiment under a recording tracer and prints the
span/event summary plus aggregated metrics (per-round latency, message
and query histograms, oracle cache behavior); ``--trace-out PATH``
additionally streams the raw JSONL trace to disk.  ``--trace-out`` is
also accepted by ``run``/``run-all``/``report`` (see
docs/OBSERVABILITY.md).

``profile`` runs one experiment under the hotspot profiler and prints
the per-span self/cumulative-time table plus the slowest rounds;
``--cprofile`` / ``--cprofile-span NAME`` attach ``cProfile`` (to the
whole run, or to one span kind only), ``--memory`` samples per-round
``tracemalloc`` peaks.  ``trace-diff`` compares two JSONL traces
record by record and exits 1 at the first diverging record, which it
prints with its causal window and the counter drift as context; what
is compared (model attrs, never wall clock, host readings or the
worker a trial ran on) is declared in :mod:`repro.obs.schema`.

``--jobs N`` (on ``run``/``run-all``/``trace``) fans the experiments'
Monte-Carlo trial loops across N worker processes via
:mod:`repro.parallel`; ``run-all`` additionally runs whole experiments
in parallel.  Results, verdicts, and model-level trace counters are
bit-identical at every N (the ``REPRO_JOBS`` environment variable sets
the default -- see docs/PERFORMANCE.md).

The ``cost`` family is the symbolic cost-model oracle
(:mod:`repro.costmodel`): ``cost show`` pretty-prints every protocol's
closed-form counter formulas (``--latex`` for paper-ready output),
``cost eval`` evaluates one model at concrete bindings, and ``cost
check`` runs experiments (or replays a ``--trace`` JSONL) under a
:class:`~repro.costmodel.CostOracle` and exits 1 the moment a measured
counter drifts from its prediction -- the CI contract for exact cost
regression.  Any traced ``run``/``run-all``/``trace`` invocation also
rides a cost oracle (when sympy is importable): verdict summaries land
in ``result.metrics["cost"]`` and the run registry, and
``cost.predicted``/``cost.mismatch`` events appear in the trace.

``--strict-bounds`` (on ``run``/``run-all``/``trace``) attaches a live
:class:`~repro.obs.InvariantMonitor` that hard-fails the command (exit
code 2) the moment a run violates a model invariant -- per-machine
memory over ``s``, round communication over ``s·m``, an oracle-query
budget, or a round count outside the theory prediction band.
``--progress`` renders per-round progress to stderr while a simulation
runs.

``--telemetry`` (on ``run``/``run-all``/``trace``; also the
``REPRO_TELEMETRY`` env var, vetoed by ``--no-telemetry``) turns on the
**runtime telemetry subsystem** (:mod:`repro.telemetry`): a background
resource sampler (``telemetry.sample`` events -- RSS / CPU / GC /
threads), one ``telemetry.heartbeat`` per Monte-Carlo trial with a
parent-side stall detector (``--stall-deadline SECONDS``; under
``--strict-bounds`` a stalled worker exits 2 like any invariant
violation), and tracer self-overhead accounting
(``telemetry.overhead_frac``).  Telemetry is excluded from every
determinism contract: fingerprints and registry ``metrics`` are
bit-identical with it on or off, and ``trace-diff`` skips its records.

``run`` and ``run-all`` append one row per experiment to the
**persistent run registry** (``--registry PATH``, the ``REPRO_REGISTRY``
env var, or ``~/.repro/runs.db``; opt out with ``--no-record``).  The
``runs`` family queries that history: ``runs list``/``show`` browse
rows, ``runs compare A B`` diffs two runs' deterministic counters and
metrics (exit 1 on drift), ``runs gc`` prunes old rows.
See docs/OBSERVABILITY.md, "Run registry & history".
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from functools import partial
from typing import Sequence

from repro.experiments import experiment_ids, experiment_info, run_experiment
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.parallel import TrialPool, resolve_jobs, use_jobs
from repro.telemetry.config import resolve_telemetry, use_telemetry

# The rest of the observability stack (the SQLite registry, the
# monitors, the sympy cost models) is imported inside the commands that
# use it, so `repro list` and an untraced `repro run` skip it.

__all__ = ["main", "build_report"]

# One-line descriptions (mirrors DESIGN.md's experiment index).
DESCRIPTIONS = {
    "T1": "Tables 1-3: parameter derivations are satisfiable",
    "F1": "Figure 1: Line chain structure",
    "E-RAM": "Theorem 3.1 upper bound: O(T*n) time, O(S) space",
    "E-LINE": "Lemma 3.2: Line rounds are linear in T",
    "E-SIMLINE": "Theorem A.1: SimLine rounds are Theta(T*u/s)",
    "E-GUESS": "Lemma 3.3 / A.7: skip-ahead succeeds w.p. 2^-u",
    "E-DECAY": "Exponential decay of per-round progress",
    "E-ENC-A": "Claim A.4: SimLine encoding round-trips within bound",
    "E-ENC-L": "Claim 3.7 / Defs 3.4-3.5: Line encoder and B-sets",
    "E-LIMIT": "Claim 3.8 / A.5: the counting limit on injective codes",
    "E-BOUND": "Claim 3.9 / A.8: assembled probability bounds",
    "E-MEM": "Total memory m*s >> S does not help",
    "E-BEST": "Theorem 1.1: nearly best-possible hardness gap",
    "E-BASE": "Section 1/1.2: RVW shuffles and Miltersen PRAM baselines",
    "E-HASH": "Theorem 1.1: concrete-hash instantiation f^h",
    "E-ABL-PLACE": "Ablation: input placement does not help",
    "E-BUDGET": "Definition 2.5: success probability vs round budget",
    "E-MHF": "Section 1.2: ROMix memory hardness is not round hardness",
    "E-SCALE": "The linear round law at paper-scale T",
    "E-PROGRESS": "Lemma A.2: per-round progress capped by h, measured",
    "E-THROUGHPUT": "K concurrent instances: parallelism buys throughput, not latency",
}


def _cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for experiment_id in experiment_ids():
        info = experiment_info(experiment_id)
        rows.append({
            "experiment_id": experiment_id,
            "description": (
                info["description"] or DESCRIPTIONS.get(experiment_id, "")
            ),
            "trial_parallel": info["trial_parallel"],
            "cost_models": info["cost_models"],
        })
    if getattr(args, "json", False):
        print(json.dumps(rows, indent=2))
        return 0
    width = max(len(r["experiment_id"]) for r in rows)
    for row in rows:
        par = "par" if row["trial_parallel"] else "-  "
        cost = "cost" if row["cost_models"] else "-   "
        print(
            f"{row['experiment_id']:<{width}}  {par}  {cost}  "
            f"{row['description']}"
        )
    print(
        "\n('par' = Monte-Carlo trials fan out with --jobs N; "
        "'cost' = traced runs announce symbolic cost models -- "
        "see repro cost check and docs/OBSERVABILITY.md)"
    )
    return 0


def _run_observed(
    experiment_id: str,
    scale: str,
    *,
    strict: bool = False,
    capture: bool = False,
    progress: bool = False,
    telemetry: bool = False,
    stall_deadline: float | None = None,
):
    """Run one experiment with optional monitor / capture / progress.

    Returns ``(result, records, monitor)``; ``records`` is a list of
    :class:`~repro.obs.TraceRecord` when ``capture`` is set, ``monitor``
    a strict :class:`~repro.obs.InvariantMonitor` when ``strict`` is
    set (in which case :class:`~repro.obs.InvariantViolation` may
    propagate).  Subscribes to the ambient tracer when one is active
    (global ``--trace-out``), otherwise installs a record-free tracer
    for the duration; with no options it is plain ``run_experiment``.

    Whenever a tracer is active (and sympy is importable) a
    :class:`~repro.costmodel.CostOracle` rides along; its verdict
    summary is merged into ``result.metrics["cost"]``, which flows to
    the run registry and ``runs compare``.

    ``telemetry`` (pre-resolved -- see
    :func:`repro.telemetry.resolve_telemetry`) attaches the runtime
    health rig: a :class:`~repro.telemetry.ResourceSampler`, a
    :class:`~repro.telemetry.StallDetector` (strict stalls raise like
    strict invariants), and an :class:`~repro.telemetry.OverheadMeter`
    on the tracer's emission path.  Their combined summary lands in
    ``result.metrics["telemetry"]`` and a ``telemetry.overhead`` event
    is emitted before teardown.  Every teardown -- unsubscribes,
    sampler/progress close, meter detach -- is one
    :class:`contextlib.ExitStack`, so a mid-run raise cannot leak a
    thread or a subscriber.
    """
    ambient = get_tracer()
    observed = strict or capture or progress or telemetry
    if not (ambient.enabled or observed):
        return run_experiment(experiment_id, scale=scale), None, None
    from repro.costmodel import CostOracle, available as cost_available
    from repro.obs import InvariantMonitor, LiveProgress
    from repro.telemetry import OverheadMeter, ResourceSampler, StallDetector

    if ambient.enabled:
        tracer, own = ambient, False
    else:
        tracer, own = Tracer(keep_records=False), True
    records: list | None = [] if capture else None
    monitor = InvariantMonitor(strict=strict, tracer=tracer) if strict else None
    cost = CostOracle(tracer=tracer) if cost_available() else None
    live = LiveProgress() if progress else None
    health = sampler = meter = None
    if telemetry:
        health = StallDetector(
            deadline_s=stall_deadline, strict=strict, tracer=tracer
        )
        sampler = ResourceSampler(tracer)
        meter = OverheadMeter()
    subscribers = [s for s in (
        cost,  # before capture, so cost.* events land in `records`
        records.append if records is not None else None,
        monitor,
        health,
        live,
    ) if s is not None]
    with contextlib.ExitStack() as stack:
        if meter is not None:
            meter.attach(tracer)
            stack.callback(tracer.set_meter, None)
        for subscriber in subscribers:
            tracer.subscribe(subscriber)
            stack.callback(tracer.unsubscribe, subscriber)
        if live is not None:
            stack.callback(live.close)
        if sampler is not None:
            stack.callback(sampler.close)
            sampler.start()
        stack.enter_context(use_telemetry(telemetry))
        if own:
            stack.enter_context(use_tracer(tracer))
        result = run_experiment(experiment_id, scale=scale)
        if telemetry:
            # Final sample first, then freeze the meter, then announce
            # the overhead while capture subscribers still listen.
            sampler.close()
            wall = result.metrics.get("duration_s")
            overhead = meter.summary(wall)
            tracer.event("telemetry.overhead", **overhead)
            result.metrics["telemetry"] = {
                **sampler.summary(),
                **overhead,
                **health.summary(),
            }
    if cost is not None and cost.checks:
        result.metrics["cost"] = cost.summary()
    return result, records, monitor


def _record_run(
    registry_path: str | None,
    result,
    *,
    scale: str,
    jobs: int,
    records=None,
    violations: int = 0,
) -> tuple[int, str]:
    """Append one run to the registry; returns ``(run_id, db_path)``."""
    from repro.obs import RunRecord, RunRegistry, TraceMetrics, counters_of

    counters: dict = {}
    trace_metrics = None
    if records:
        tm = TraceMetrics.from_records(records)
        counters = counters_of(tm)
        trace_metrics = tm.to_dict()
    record = RunRecord.from_result(
        result,
        scale=scale,
        jobs=jobs,
        counters=counters,
        trace_metrics=trace_metrics,
        violations=violations,
    )
    with RunRegistry.open(registry_path) as registry:
        run_id = registry.record(record)
        return run_id, registry.path


def _print_telemetry_summary(result) -> None:
    """The run's stderr telemetry one-liner plus straggler ranking."""
    tel = result.metrics.get("telemetry")
    if not tel:
        return
    rss = tel.get("rss_peak_kb")
    frac = tel.get("overhead_frac")
    print(
        f"telemetry: {tel.get('heartbeats', 0)} heartbeats, "
        f"{tel.get('stalls', 0)} stalls, "
        f"{tel.get('samples', 0)} resource samples, "
        f"rss peak {'-' if rss is None else f'{rss / 1024:.1f}M'}, "
        f"tracer overhead "
        f"{'-' if frac is None else f'{frac * 100:.2f}%'}",
        file=sys.stderr,
    )
    for row in tel.get("stragglers", []):
        print(
            f"  straggler: worker {row['worker']} trial {row['trial']} "
            f"({row['elapsed_s'] * 1e3:.3f}ms)",
            file=sys.stderr,
        )


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.obs import InvariantViolation

    record = not args.no_record
    telemetry = resolve_telemetry(args.telemetry)
    try:
        with use_jobs(args.jobs):
            result, records, monitor = _run_observed(
                args.experiment,
                args.scale,
                strict=args.strict_bounds,
                # Recording wants the run's counter fingerprint, which
                # only exists if the run was captured.
                capture=record,
                progress=args.progress,
                telemetry=telemetry,
                stall_deadline=args.stall_deadline,
            )
    except InvariantViolation as exc:
        v = exc.violation
        print(f"strict-bounds violation [{v.check}]: {v.message}",
              file=sys.stderr)
        return 2
    if monitor is not None:
        print(f"strict-bounds: {len(monitor.violations)} violations",
              file=sys.stderr)
    cost_summary = result.metrics.get("cost")
    if cost_summary:
        print(
            f"cost oracle: verdict={cost_summary['verdict']} "
            f"({cost_summary['checks']} checks, "
            f"{cost_summary['mismatched_counters']} mismatched counters)",
            file=sys.stderr,
        )
    _print_telemetry_summary(result)
    if record:
        run_id, db_path = _record_run(
            args.registry,
            result,
            scale=args.scale,
            jobs=resolve_jobs(args.jobs),
            records=records,
            violations=len(monitor.violations) if monitor else 0,
        )
        print(f"recorded run {run_id} -> {db_path}", file=sys.stderr)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
    return 0 if result.passed else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.costmodel import (
        CostOracle,
        available as cost_available,
        render_ledger,
    )
    from repro.obs import (
        ConvergenceMonitor,
        InvariantMonitor,
        InvariantViolation,
        JsonlExporter,
        LiveProgress,
        TraceMetrics,
        summarize,
    )
    from repro.telemetry import OverheadMeter, ResourceSampler, StallDetector

    trace_out = getattr(args, "trace_out", None)
    telemetry = resolve_telemetry(args.telemetry)
    sink = JsonlExporter(trace_out) if trace_out else None
    tracer = Tracer(sink=sink)
    monitor = InvariantMonitor(strict=args.strict_bounds, tracer=tracer)
    convergence = ConvergenceMonitor(tracer=tracer)
    cost = CostOracle(tracer=tracer) if cost_available() else None
    live = LiveProgress() if args.progress else None
    health = sampler = meter = None
    if telemetry:
        health = StallDetector(
            deadline_s=args.stall_deadline,
            strict=args.strict_bounds,
            tracer=tracer,
        )
        sampler = ResourceSampler(tracer)
        meter = OverheadMeter()
    try:
        with contextlib.ExitStack() as stack:
            if sink is not None:
                stack.callback(sink.close)
            if meter is not None:
                meter.attach(tracer)
                stack.callback(tracer.set_meter, None)
            for subscriber in (monitor, convergence, cost, health, live):
                if subscriber is not None:
                    tracer.subscribe(subscriber)
            if live is not None:
                stack.callback(live.close)
            if sampler is not None:
                stack.callback(sampler.close)
                sampler.start()
            stack.enter_context(use_telemetry(telemetry))
            stack.enter_context(use_tracer(tracer))
            stack.enter_context(use_jobs(args.jobs))
            result = run_experiment(args.experiment, scale=args.scale)
            if telemetry:
                sampler.close()
                overhead = meter.summary(result.metrics.get("duration_s"))
                tracer.event("telemetry.overhead", **overhead)
                result.metrics["telemetry"] = {
                    **sampler.summary(),
                    **overhead,
                    **health.summary(),
                }
    except InvariantViolation as exc:
        v = exc.violation
        print(f"strict-bounds violation [{v.check}]: {v.message}",
              file=sys.stderr)
        return 2
    metrics = TraceMetrics.from_records(tracer.records)
    result.metrics["trace"] = metrics.to_dict()
    result.metrics["monitor"] = {
        "strict": args.strict_bounds,
        "violations": [v.to_attrs() for v in monitor.violations],
    }
    if convergence.names:
        result.metrics["convergence"] = convergence.to_dict()
    if cost is not None and cost.checks:
        result.metrics["cost"] = cost.summary()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        print(result.render())
        print()
        print(summarize(tracer.records))
        print()
        print(json.dumps(metrics.to_dict(), indent=2))
        if convergence.names:
            print()
            print(convergence.render())
        if cost is not None and cost.checks:
            print()
            print(render_ledger(
                [c.to_attrs() for c in cost.checks],
                title="Predicted vs measured (cost oracle)",
            ))
        if monitor.violations:
            print()
            print(monitor.render())
    if sink is not None:
        print(f"trace: {sink.written} records -> {trace_out}", file=sys.stderr)
        sink.close()
    if args.strict_bounds:
        print(f"strict-bounds: {len(monitor.violations)} violations",
              file=sys.stderr)
    _print_telemetry_summary(result)
    return 0 if result.passed else 1


def _run_all_task(
    scale: str,
    strict: bool,
    want_counters: bool,
    record: bool,
    jobs: int,
    telemetry: bool,
    stall_deadline: float | None,
    experiment_id: str,
) -> dict:
    """One ``run-all`` unit of work, shaped for the process pool.

    Returns a picklable summary row.  Under a parallel ``run-all`` this
    executes in a worker whose ambient tracer is the pool's per-trial
    capture tracer (when the parent traces) -- the monitor subscribes
    to whatever is ambient, and counters are read back off its records,
    so the row is identical to what a serial run computes.  With
    ``record`` set, the row additionally carries a ready-to-insert
    registry record (``"record"``); the *parent* performs the inserts,
    so workers never contend on the SQLite file.

    ``telemetry`` (pre-resolved) arms per-trial heartbeats and the
    stall detector inside each experiment; the summary rides the row
    (and the registry record's nullable columns).  The resource sampler
    stays off here -- one background thread per run-all worker would
    measure the pool, not the experiment.
    """
    from repro.costmodel import CostOracle, available as cost_available
    from repro.obs import (
        InvariantMonitor,
        InvariantViolation,
        RunRecord,
        TraceMetrics,
        counters_of,
    )
    from repro.telemetry import OverheadMeter, StallDetector

    ambient = get_tracer()
    capture = want_counters or record
    own = not ambient.enabled and (strict or capture)
    tracer = Tracer(keep_records=False) if own else ambient
    # Per-experiment capture via subscription (not ``tracer.records``):
    # under a global --trace-out the ambient tracer accumulates records
    # across experiments, and counters must cover only this one.
    captured: list = []
    monitor = None
    cost = None
    health = None
    meter = None
    subscribers: list = []
    if tracer.enabled:
        if cost_available():
            cost = CostOracle(tracer=tracer)
            subscribers.append(cost)
        if capture:
            subscribers.append(captured.append)
        monitor = InvariantMonitor(strict=strict, tracer=tracer)
        subscribers.append(monitor)
        if telemetry:
            health = StallDetector(
                deadline_s=stall_deadline, strict=strict, tracer=tracer
            )
            subscribers.append(health)
            meter = OverheadMeter()
    start = time.time()
    try:
        with contextlib.ExitStack() as stack:
            if meter is not None:
                meter.attach(tracer)
                stack.callback(tracer.set_meter, None)
            for subscriber in subscribers:
                tracer.subscribe(subscriber)
                stack.callback(tracer.unsubscribe, subscriber)
            stack.enter_context(use_telemetry(telemetry))
            if own:
                stack.enter_context(use_tracer(tracer))
            result = run_experiment(experiment_id, scale=scale)
            if health is not None:
                result.metrics["telemetry"] = {
                    **meter.summary(result.metrics.get("duration_s")),
                    **health.summary(),
                }
    except InvariantViolation as exc:
        return {
            "experiment_id": experiment_id,
            "passed": False,
            "error": "invariant_violation",
            "violation": exc.violation.to_attrs(),
            "duration_s": round(time.time() - start, 6),
        }
    if cost is not None and cost.checks:
        result.metrics["cost"] = cost.summary()
    row = {
        "experiment_id": experiment_id,
        "title": result.title,
        "passed": result.passed,
        "duration_s": round(result.metrics.get("duration_s", 0.0), 6),
        "violations": len(monitor.violations) if monitor else 0,
        "cost_verdict": cost.verdict if cost is not None else "none",
    }
    if "telemetry" in result.metrics:
        row["telemetry"] = result.metrics["telemetry"]
    trace_metrics = (
        TraceMetrics.from_records(captured) if capture else None
    )
    if want_counters:
        row["counters"] = counters_of(trace_metrics)
    if record:
        row["record"] = RunRecord.from_result(
            result,
            scale=scale,
            jobs=jobs,
            counters=counters_of(trace_metrics),
            trace_metrics=trace_metrics.to_dict(),
            violations=row["violations"],
        ).to_dict()
    return row


def _run_all_line(row: dict) -> str:
    """One experiment's summary line: id, status, wall-time, title."""
    if row.get("error") == "invariant_violation":
        v = row["violation"]
        detail = f"[{v.get('check')}] {v.get('message')}"
        status = "BOUND"
    else:
        detail = row.get("title", "")
        status = "ok" if row["passed"] else "FAIL"
    return f"{row['experiment_id']:<12} {status:<5} {row['duration_s']:>7.2f}s  {detail}"


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.obs import RunRecord, RunRegistry, git_sha

    jobs = resolve_jobs(args.jobs)
    record = not args.no_record
    telemetry = resolve_telemetry(args.telemetry)
    wall_start = time.time()
    rows: list[dict] = []
    task = partial(
        _run_all_task, args.scale, args.strict_bounds, args.json, record,
        jobs, telemetry, args.stall_deadline,
    )
    if jobs > 1:
        # Fan out across experiments; workers pin their inner trial
        # loops to jobs=1 (one slot each), and ship trace records back
        # for replay when a global --trace-out tracer is listening.
        if args.progress:
            print("run-all --jobs N skips --progress (per-round renderers "
                  "interleave meaninglessly across processes)",
                  file=sys.stderr)
        rows = TrialPool(jobs=jobs).map(task, experiment_ids())
        if not args.json:
            for row in rows:
                print(_run_all_line(row))
    else:
        with use_jobs(args.jobs):
            for experiment_id in experiment_ids():
                row = task(experiment_id)
                rows.append(row)
                if not args.json:
                    print(_run_all_line(row))
    run_ids: dict[str, int] = {}
    db_path = None
    if record:
        # Single-writer inserts in the parent (workers only ship rows).
        with RunRegistry.open(args.registry) as registry:
            db_path = registry.path
            for row in rows:
                payload = row.pop("record", None)
                if payload is not None:
                    run_id = registry.record(RunRecord(**payload))
                    run_ids[row["experiment_id"]] = run_id
                    row["run_id"] = run_id
        print(
            f"recorded {len(run_ids)} runs -> {db_path}", file=sys.stderr
        )
    failures = [row["experiment_id"] for row in rows if not row["passed"]]
    wall_s = time.time() - wall_start
    if args.json:
        payload = {
            "scale": args.scale,
            "strict_bounds": args.strict_bounds,
            "jobs": jobs,
            "git_sha": git_sha(),
            "passed": not failures,
            "count": len(experiment_ids()),
            "failures": failures,
            "wall_s": round(wall_s, 6),
            "experiments": rows,
        }
        if record:
            payload["registry"] = {"path": db_path, "run_ids": run_ids}
        print(json.dumps(payload, indent=2))
        return 1 if failures else 0
    if failures:
        print(f"\nshape-check failures: {failures}", file=sys.stderr)
        return 1
    print(f"\nall {len(experiment_ids())} experiments matched the paper's "
          f"shapes ({wall_s:.1f}s wall, jobs={jobs})")
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.obs import RunRegistry, render_runs_table

    with RunRegistry.open(args.registry) as registry:
        records = registry.runs(args.experiment, limit=args.limit)
    if args.json:
        print(json.dumps([r.to_dict() for r in records], indent=2))
    else:
        print(render_runs_table(records))
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.obs import RunRegistry

    with RunRegistry.open(args.registry) as registry:
        try:
            record = registry.get(args.run_id)
        except KeyError as exc:
            print(f"runs show: {exc.args[0]}", file=sys.stderr)
            return 2
    print(json.dumps(record.to_dict(), indent=2))
    return 0


def _cmd_runs_compare(args: argparse.Namespace) -> int:
    from repro.obs import RunRegistry, compare_runs

    with RunRegistry.open(args.registry) as registry:
        try:
            comparison = compare_runs(registry, args.a, args.b)
        except KeyError as exc:
            print(f"runs compare: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        print(comparison.render())
    return 0 if comparison.identical else 1


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    if args.keep_last is None and args.before is None:
        print("runs gc: nothing to do (give --keep-last N and/or "
              "--before TS)", file=sys.stderr)
        return 2
    from repro.obs import RunRegistry

    with RunRegistry.open(args.registry) as registry:
        try:
            removed = registry.gc(keep_last=args.keep_last, before=args.before)
        except ValueError as exc:
            print(f"runs gc: {exc}", file=sys.stderr)
            return 2
        remaining = registry.count()
    print(f"runs gc: removed {removed} row(s), {remaining} remain")
    return 0


def build_report(scale: str = "quick") -> str:
    """The EXPERIMENTS.md content: paper-vs-measured for every claim."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Reproduction record for *On the Hardness of Massively Parallel*",
        "*Computation* (Chung, Ho, Sun; SPAA 2020).  The paper is pure",
        "theory, so its \"tables and figures\" are parameter tables, one",
        "illustration, and the theorem suite; each entry below regenerates",
        "one of them and records whether the measured *shape* (who wins,",
        "what exponent, where the crossover falls) matches the claim.",
        "Absolute constants are not expected to match: the substrate is a",
        "bit-level simulator at Monte-Carlo-observable parameters (see",
        "DESIGN.md section 4 for the scaled-parameter policy).",
        "",
        f"Generated with `python -m repro report --scale {scale}`.",
        "",
    ]
    all_passed = True
    for experiment_id in experiment_ids():
        result = run_experiment(experiment_id, scale=scale)
        all_passed = all_passed and result.passed
        verdict = "MATCH" if result.passed else "MISMATCH"
        lines.append(f"## {experiment_id} — {result.title}")
        lines.append("")
        lines.append(f"**Paper claim.** {result.paper_claim}")
        lines.append("")
        for table in result.tables:
            lines.append("```text")
            lines.append(table.render())
            lines.append("```")
            lines.append("")
        lines.append(f"**Measured.** {result.summary}")
        lines.append("")
        lines.append(f"**Shape verdict: {verdict}.**")
        lines.append("")
    lines.append("---")
    lines.append(
        f"Overall: {'every' if all_passed else 'NOT every'} experiment "
        "reproduced its claim's shape."
    )
    lines.append("")
    return "\n".join(lines)


def _stream_trace_or_exit(path: str):
    """Validate ``path`` as a non-empty JSONL trace; None means exit 2.

    Returns a zero-arg callable yielding a fresh streaming iteration
    (:func:`repro.obs.iter_trace_records`), so its consumers -- the
    trace diff and the cost oracle -- never hold a whole trace in
    memory.  The validation itself only reads the first record; a
    format error *later* in the file still surfaces as a
    :class:`TraceFormatError` from the consumer (callers wrap their
    consumption in :func:`_trace_error`).
    """
    from repro.obs import TraceFormatError, iter_trace_records

    try:
        first = next(iter_trace_records(path), None)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return None
    except TraceFormatError as exc:
        print(f"not a trace: {exc}", file=sys.stderr)
        return None
    if first is None:
        print(f"no trace records in {path}", file=sys.stderr)
        return None
    return lambda: iter_trace_records(path)


def _trace_error(exc: TraceFormatError) -> int:
    print(f"not a trace: {exc}", file=sys.stderr)
    return 2


def _cmd_report(args: argparse.Namespace) -> int:
    report = build_report(scale=args.scale)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import profile_experiment

    session = profile_experiment(
        args.experiment,
        scale=args.scale,
        cprofile=args.cprofile,
        cprofile_span=args.cprofile_span,
        memory=args.memory,
    )
    if args.json:
        payload = {
            "experiment_id": args.experiment,
            "scale": args.scale,
            "passed": session.result.passed,
            "total_s": session.profiler.total_s,
            "hotspots": [h.to_dict() for h in session.profiler.hotspots()],
            "rounds": [r.to_dict() for r in session.profiler.rounds()],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(session.profiler.render(top=args.top))
        if session.cprofile is not None:
            print()
            print(session.cprofile.stats_table(top=args.top or 20))
        if session.memory is not None:
            print()
            print(session.memory.render())
    status = "ok" if session.result.passed else "FAIL"
    print(f"profile: {args.experiment} {status}, "
          f"{len(session.records)} trace records", file=sys.stderr)
    return 0 if session.result.passed else 1


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.obs import (
        TraceFormatError,
        counter_drifts,
        explain_trace_files,
        render_divergence,
    )

    baseline = _stream_trace_or_exit(args.baseline)
    if baseline is None:
        return 2
    current = _stream_trace_or_exit(args.current)
    if current is None:
        return 2
    try:
        explained = explain_trace_files(
            args.baseline, args.current, context=args.context
        )
        drifts = counter_drifts(baseline, current) if explained else []
    except TraceFormatError as exc:
        return _trace_error(exc)
    if args.json:
        print(json.dumps({
            "has_differences": explained is not None,
            "first_divergence": explained[0].to_dict() if explained else None,
            "counter_drifts": [
                {"key": key, "baseline": b, "current": c}
                for key, b, c in drifts
            ],
        }, indent=2))
    elif explained is None:
        print("trace-diff: no diverging record (identical record by "
              "record; wall clock, host records and workers not compared)")
    else:
        print(render_divergence(*explained, drifts=drifts))
    return 1 if explained else 0


def _cost_unavailable(exc: CostModelUnavailable) -> int:
    print(f"cost: {exc}", file=sys.stderr)
    return 2


def _cmd_cost_show(args: argparse.Namespace) -> int:
    from repro.costmodel import (
        CostModelUnavailable,
        all_models,
        cost_model_for,
        render_formulas,
    )

    try:
        if args.models:
            models = [cost_model_for(model_id) for model_id in args.models]
        else:
            models = all_models()
    except CostModelUnavailable as exc:
        return _cost_unavailable(exc)
    except KeyError as exc:
        print(f"cost show: {exc.args[0]}", file=sys.stderr)
        return 2
    print(render_formulas(models, latex=args.latex))
    return 0


def _parse_cost_bindings(pairs: Sequence[str]) -> dict:
    """``NAME=VALUE`` pairs -> bindings (int / float / none / bool)."""
    bindings: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"binding {pair!r} is not NAME=VALUE")
        low = raw.lower()
        if low in ("none", "null"):
            bindings[key] = None
        elif low in ("true", "false"):
            bindings[key] = low == "true"
        else:
            try:
                bindings[key] = int(raw)
            except ValueError:
                bindings[key] = float(raw)
    return bindings


def _cmd_cost_eval(args: argparse.Namespace) -> int:
    from repro.costmodel import (
        CostEvalError,
        CostModelUnavailable,
        cost_model_for,
        eval_table,
    )

    try:
        model = cost_model_for(args.model)
        bindings = _parse_cost_bindings(args.bindings)
        print(eval_table(model, bindings))
    except CostModelUnavailable as exc:
        return _cost_unavailable(exc)
    except KeyError as exc:
        print(f"cost eval: {exc.args[0]}", file=sys.stderr)
        return 2
    except (CostEvalError, ValueError) as exc:
        print(f"cost eval: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_cost_check(args: argparse.Namespace) -> int:
    from repro.costmodel import (
        CostModelUnavailable,
        CostOracle,
        check_trace_records,
        render_ledger,
    )
    from repro.obs import TraceFormatError

    try:
        oracles: dict[str, CostOracle] = {}
        if args.trace is not None:
            source = _stream_trace_or_exit(args.trace)
            if source is None:
                return 2
            try:
                oracles[args.trace] = check_trace_records(source())
            except TraceFormatError as exc:
                return _trace_error(exc)
        else:
            targets = args.experiments or [
                eid for eid in experiment_ids()
                if experiment_info(eid)["cost_models"]
            ]
            unknown = sorted(set(targets) - set(DESCRIPTIONS))
            if unknown:
                print(f"cost check: unknown experiments {unknown}",
                      file=sys.stderr)
                return 2
            for eid in targets:
                tracer = Tracer(keep_records=False)
                oracle = CostOracle(tracer=tracer)
                tracer.subscribe(oracle)
                with use_tracer(tracer), use_jobs(args.jobs):
                    run_experiment(eid, scale=args.scale)
                oracles[eid] = oracle
    except CostModelUnavailable as exc:
        return _cost_unavailable(exc)
    summaries = {name: oracle.summary() for name, oracle in oracles.items()}
    failed = [n for n, s in summaries.items() if s["verdict"] == "fail"]
    evaluated = sum(s["passed"] + s["failed"] for s in summaries.values())
    if args.json:
        print(json.dumps({
            "strict": args.strict,
            "targets": summaries,
            "evaluated_checks": evaluated,
            "failed": failed,
            "passed": not failed and not (args.strict and evaluated == 0),
        }, indent=2))
    else:
        for name, oracle in oracles.items():
            print(render_ledger(
                [c.to_attrs() for c in oracle.checks],
                title=f"{name} -- predicted vs measured",
            ))
            print()
        marks = ", ".join(
            f"{name}={s['verdict']}" for name, s in summaries.items()
        )
        print(f"cost check: {evaluated} checks evaluated ({marks})")
    if failed:
        if not args.json:
            print(f"cost check: FAIL ({failed})", file=sys.stderr)
        return 1
    if args.strict and evaluated == 0:
        print("cost check --strict: no checks ran (nothing announced a "
              "cost model)", file=sys.stderr)
        return 1
    return 0


def _add_trace_out(parser: argparse.ArgumentParser, *, on_sub: bool) -> None:
    # Defined on the root parser (global flag) *and* on subcommands; the
    # subcommand copy uses SUPPRESS so an unset occurrence does not
    # clobber a value given before the subcommand.
    parser.add_argument(
        "--trace-out",
        dest="trace_out",
        metavar="PATH",
        default=argparse.SUPPRESS if on_sub else None,
        help="stream a JSONL trace of the run to PATH",
    )


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for Monte-Carlo trial loops (default: "
        "REPRO_JOBS env var, else 1 = serial; results are bit-identical "
        "at any N -- see docs/PERFORMANCE.md)",
    )


def _add_registry_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry",
        default=None,
        metavar="PATH",
        help="run-registry SQLite file (default: REPRO_REGISTRY env "
        "var, else ~/.repro/runs.db)",
    )


def _add_record_flags(parser: argparse.ArgumentParser) -> None:
    _add_registry_flag(parser)
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="do not append this run to the run registry",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--telemetry",
        dest="telemetry",
        action="store_true",
        default=None,
        help="attach the runtime telemetry subsystem: resource sampler, "
        "per-trial worker heartbeats + stall detection, tracer "
        "self-overhead accounting (default: the REPRO_TELEMETRY env var, "
        "else off; deterministic outputs are unaffected)",
    )
    group.add_argument(
        "--no-telemetry",
        dest="telemetry",
        action="store_false",
        help="force telemetry off, overriding REPRO_TELEMETRY",
    )
    parser.add_argument(
        "--stall-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-trial wall-clock budget before a heartbeat counts as a "
        "worker stall (default: REPRO_STALL_DEADLINE env var, else 30; "
        "0 flags every trial -- the CI negative control; with "
        "--strict-bounds a stall exits 2)",
    )


def _add_monitor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--strict-bounds",
        action="store_true",
        help="hard-fail (exit 2) the moment a run violates a model "
        "invariant (memory <= s, communication <= s*m, query budgets, "
        "round prediction band)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live per-round progress to stderr",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'On the Hardness of "
        "Massively Parallel Computation' (SPAA 2020)",
    )
    _add_trace_out(parser, on_sub=False)
    sub = parser.add_subparsers(dest="command", required=True)

    list_p = sub.add_parser(
        "list", help="list experiments (description + parallelization)"
    )
    list_p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    list_p.set_defaults(fn=_cmd_list)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", choices=sorted(DESCRIPTIONS))
    run_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    run_p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_trace_out(run_p, on_sub=True)
    _add_monitor_flags(run_p)
    _add_telemetry_flags(run_p)
    _add_jobs_flag(run_p)
    _add_record_flags(run_p)
    run_p.set_defaults(fn=_cmd_run)

    all_p = sub.add_parser("run-all", help="run every experiment")
    all_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    all_p.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable summary (per-experiment "
        "pass/fail, duration, headline counters) for CI",
    )
    _add_trace_out(all_p, on_sub=True)
    _add_monitor_flags(all_p)
    _add_telemetry_flags(all_p)
    _add_jobs_flag(all_p)
    _add_record_flags(all_p)
    all_p.set_defaults(fn=_cmd_run_all)

    runs_p = sub.add_parser(
        "runs",
        help="query the persistent run registry "
        "(list / show / compare / gc)",
    )
    runs_sub = runs_p.add_subparsers(dest="runs_command", required=True)

    rlist_p = runs_sub.add_parser("list", help="recorded runs, newest first")
    rlist_p.add_argument(
        "-e", "--experiment", default=None, metavar="ID",
        help="restrict to one experiment",
    )
    rlist_p.add_argument(
        "-n", "--limit", type=_non_negative_int, default=30, metavar="N",
        help="show at most N rows (default 30)",
    )
    rlist_p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_registry_flag(rlist_p)
    rlist_p.set_defaults(fn=_cmd_runs_list)

    rshow_p = runs_sub.add_parser(
        "show", help="one recorded run, in full (JSON)"
    )
    rshow_p.add_argument("run_id", type=int, help="registry run id")
    _add_registry_flag(rshow_p)
    rshow_p.set_defaults(fn=_cmd_runs_show)

    rcmp_p = runs_sub.add_parser(
        "compare",
        help="diff two runs' deterministic columns (exit 1 on drift)",
    )
    rcmp_p.add_argument("a", type=int, help="baseline run id")
    rcmp_p.add_argument("b", type=int, help="current run id")
    rcmp_p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_registry_flag(rcmp_p)
    rcmp_p.set_defaults(fn=_cmd_runs_compare)

    rgc_p = runs_sub.add_parser(
        "gc", help="prune old rows from the registry"
    )
    rgc_p.add_argument(
        "--keep-last", type=int, default=None, metavar="N",
        help="keep the N most recent runs per experiment",
    )
    rgc_p.add_argument(
        "--before", default=None, metavar="ISO_TS",
        help="also drop rows older than this ISO-8601 date or timestamp "
        "(UTC unless it names an offset)",
    )
    _add_registry_flag(rgc_p)
    rgc_p.set_defaults(fn=_cmd_runs_gc)

    rep_p = sub.add_parser("report", help="emit the EXPERIMENTS.md record")
    rep_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    rep_p.add_argument("--output", "-o", default=None)
    _add_trace_out(rep_p, on_sub=True)
    rep_p.set_defaults(fn=_cmd_report)

    prof_p = sub.add_parser(
        "profile", help="run one experiment under the hotspot profiler"
    )
    prof_p.add_argument("experiment", choices=sorted(DESCRIPTIONS))
    prof_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    prof_p.add_argument(
        "--top", type=_non_negative_int, default=None, metavar="N",
        help="limit the hotspot (and cProfile) tables to N rows",
    )
    prof_p.add_argument(
        "--cprofile", action="store_true",
        help="also run cProfile over the whole experiment",
    )
    prof_p.add_argument(
        "--cprofile-span", default=None, metavar="SPAN",
        help="scope cProfile to one span kind (e.g. mpc.round, "
        "oracle.query); implies --cprofile",
    )
    prof_p.add_argument(
        "--memory", action="store_true",
        help="sample per-round tracemalloc peak memory",
    )
    prof_p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    prof_p.set_defaults(fn=_cmd_profile)

    diff_p = sub.add_parser(
        "trace-diff",
        help="compare two JSONL traces record by record (exit 1 at the "
        "first diverging record, printed with its causal window and "
        "the counter drift)",
    )
    diff_p.add_argument("baseline", help="baseline trace (JSONL)")
    diff_p.add_argument("current", help="current trace (JSONL)")
    diff_p.add_argument(
        "--context",
        type=_non_negative_int,
        default=5,
        metavar="K",
        help="records of stream context around the divergence "
        "(default 5)",
    )
    diff_p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    diff_p.set_defaults(fn=_cmd_trace_diff)

    trc_p = sub.add_parser(
        "trace", help="run one experiment under the recording tracer"
    )
    trc_p.add_argument("experiment", choices=sorted(DESCRIPTIONS))
    trc_p.add_argument("--scale", choices=("quick", "full"), default="quick")
    trc_p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_trace_out(trc_p, on_sub=True)
    _add_monitor_flags(trc_p)
    _add_telemetry_flags(trc_p)
    _add_jobs_flag(trc_p)
    trc_p.set_defaults(fn=_cmd_trace)

    cost_p = sub.add_parser(
        "cost",
        help="symbolic cost-model oracle (show / eval / check)",
    )
    cost_sub = cost_p.add_subparsers(dest="cost_command", required=True)

    cshow_p = cost_sub.add_parser(
        "show", help="print the symbolic cost formulas with paper refs"
    )
    cshow_p.add_argument(
        "models", nargs="*", metavar="MODEL",
        help="model ids to show (default: all); see repro cost show",
    )
    cshow_p.add_argument(
        "--latex", action="store_true", help="render formulas as LaTeX"
    )
    cshow_p.set_defaults(fn=_cmd_cost_show)

    ceval_p = cost_sub.add_parser(
        "eval", help="evaluate one model's formulas at concrete bindings"
    )
    ceval_p.add_argument("model", metavar="MODEL", help="model id")
    ceval_p.add_argument(
        "bindings", nargs="+", metavar="NAME=VALUE",
        help="symbol bindings, e.g. T=64 m=4 b=2 v=8 u=16 q=none",
    )
    ceval_p.set_defaults(fn=_cmd_cost_eval)

    ccheck_p = cost_sub.add_parser(
        "check",
        help="run experiments (or replay a trace) under the cost oracle; "
        "exit 1 on any predicted-vs-measured mismatch",
    )
    ccheck_p.add_argument(
        "experiments", nargs="*", metavar="EXPERIMENT",
        help="experiments to check (default: every experiment with cost "
        "coverage -- see repro list)",
    )
    ccheck_p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay a recorded JSONL trace instead of running experiments",
    )
    ccheck_p.add_argument(
        "--scale", choices=("quick", "full"), default="quick"
    )
    ccheck_p.add_argument(
        "--strict", action="store_true",
        help="additionally fail when no checks ran at all",
    )
    ccheck_p.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    _add_jobs_flag(ccheck_p)
    ccheck_p.set_defaults(fn=_cmd_cost_check)

    args = parser.parse_args(argv)
    try:
        trace_out = getattr(args, "trace_out", None)
        if trace_out and args.command != "trace":
            # Global --trace-out: run the whole command under a streaming
            # tracer (the trace subcommand manages its own).
            from repro.obs import JsonlExporter

            with JsonlExporter(trace_out) as sink:
                with use_tracer(Tracer(sink=sink)):
                    code = args.fn(args)
                print(
                    f"trace: {sink.written} records -> {trace_out}",
                    file=sys.stderr,
                )
            return code
        return args.fn(args)
    except BrokenPipeError:
        # Downstream closed the pipe (repro runs list | head); exit
        # quietly instead of dumping a traceback, reopening stdout on
        # /dev/null so interpreter teardown does not re-raise EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
