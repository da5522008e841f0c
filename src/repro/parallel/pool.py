"""Process-pool fan-out for independent Monte-Carlo trials.

The experiments' trial loops are embarrassingly parallel: each trial
derives its own seed (:mod:`repro.parallel.seeds`), samples a fresh
``(oracle, input)`` pair, and contributes one number.  This module is
the one engine they all share::

    from repro.parallel import map_trials, seed_sequence

    seeds = seed_sequence("E-DECAY", "advance", trials)
    lengths = map_trials(partial(advance_length, params, stored), seeds)

:func:`map_trials` fans the trials across a
``concurrent.futures.ProcessPoolExecutor`` in contiguous chunks and
returns results **in trial order**, so a parallel run is
result-for-result identical to a serial one.  The parallelism degree
comes from, in priority order: the explicit ``jobs`` argument, the
ambient :func:`use_jobs` scope (how the CLI's ``--jobs`` reaches code
that never sees argv), the ``REPRO_JOBS`` environment variable, and
finally 1 (serial).

**Serial fallback.**  ``jobs=1``, a single trial, or a trial function
that cannot be pickled (a lambda, a closure) all run inline in the
parent process -- the non-picklable case emits one ``RuntimeWarning``
and degrades gracefully instead of crashing.  The serial path uses the
*same* capture-and-replay tracing as the parallel one, so the trace a
run produces is identical record by record at every ``jobs`` value,
apart from the ``worker`` tag.

**Worker-side observability.**  When the ambient tracer is enabled,
each trial runs under a private :class:`~repro.obs.Tracer` (in the
worker process for parallel runs, inline for serial ones); its records
travel back with the result and the parent replays them onto the
ambient stream tagged ``worker=<chunk> trial=<t>``
(:meth:`~repro.obs.Tracer.replay`).  Metrics aggregation, the
invariant monitors, and the counter fingerprints therefore
see the same deterministic stream regardless of ``jobs`` -- the
contract ``repro trace-diff`` enforces in CI.  The ``worker`` tag is
the *chunk index*, not the OS process id (scheduler-dependent); it
still changes with ``jobs`` (serial runs report 0), so
:mod:`repro.obs.schema` declares it volatile and ``trace-diff`` never
compares it.

**Worker heartbeats.**  When runtime telemetry is on
(:func:`repro.telemetry.use_telemetry` / ``REPRO_TELEMETRY``) and
tracing captures, every trial additionally records one
``telemetry.heartbeat`` event -- trial index, measured wall-clock, and
the worker's RSS -- which the parent-side
:class:`repro.telemetry.StallDetector` turns into ``telemetry.stall``
violations and straggler rankings.  Heartbeat *count* is one per trial
on both the serial and parallel paths, so it is deterministic; the
payloads (wall-clock, RSS) are not, which is why the ``telemetry.*``
names are host records that ``trace-diff`` skips whole.

**Failure semantics.**  A trial that raises aborts the map: the
original exception propagates in the parent with ``.trial_index`` set
(and a PEP-678 note naming trial and worker).  Unpicklable exceptions
degrade to a ``RuntimeError`` carrying their repr.  ``KeyboardInterrupt``
cancels all queued work before re-raising, so Ctrl-C exits promptly
instead of draining the queue.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.obs.tracer import (
    NULL_TRACER,
    TraceRecord,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.telemetry.config import telemetry_enabled

__all__ = [
    "TrialPool",
    "map_trials",
    "use_jobs",
    "default_jobs",
    "resolve_jobs",
]

#: Chunks per worker the dispatcher aims for; >1 smooths out uneven
#: per-trial cost without paying per-trial submission overhead.
_CHUNKS_PER_WORKER = 4

#: Upper bound on trials per chunk, so worker->parent result/trace
#: payloads stay bounded even for multi-thousand-trial sweeps.
_MAX_CHUNK = 64

_ambient_jobs: int | None = None


def default_jobs() -> int:
    """The ambient parallelism degree (no explicit ``jobs=`` given).

    An enclosing :func:`use_jobs` scope wins; otherwise the
    ``REPRO_JOBS`` environment variable (ignored if unparseable);
    otherwise 1.
    """
    if _ambient_jobs is not None:
        return _ambient_jobs
    env = os.environ.get("REPRO_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` argument: ``None`` means ambient, floor 1."""
    if jobs is None:
        return default_jobs()
    return max(1, int(jobs))


@contextmanager
def use_jobs(jobs: int | None) -> Iterator[int]:
    """Set the ambient parallelism for a scope (the CLI's ``--jobs``).

    ``None`` leaves the ambient value untouched (so callers can write
    ``with use_jobs(args.jobs):`` unconditionally).
    """
    global _ambient_jobs
    if jobs is None:
        yield default_jobs()
        return
    previous = _ambient_jobs
    _ambient_jobs = max(1, int(jobs))
    try:
        yield _ambient_jobs
    finally:
        _ambient_jobs = previous


def _freeze_exception(exc: BaseException) -> BaseException:
    """An exception safe to ship across the process boundary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_init() -> None:
    """Process-pool initializer: detach the worker from parent state.

    A forked worker inherits the parent's ambient tracer -- emitting
    into that copy would double-write the parent's sink file
    descriptors.  Workers report only through their private capture
    tracers, shipped back as records.
    """
    set_tracer(NULL_TRACER)


def _run_chunk(
    fn: Callable,
    chunk: Sequence[tuple[int, object]],
    capture: bool,
    heartbeat: bool = False,
) -> list[tuple[int, bool, object, tuple]]:
    """Worker entry point: run ``fn`` on each ``(t, item)`` of a chunk.

    Returns ``(t, ok, payload, records)`` tuples; on the first failing
    trial the chunk stops and the failure entry carries the exception.
    Also the *serial* executor (called inline with chunk size = all),
    so both paths share one code path and one trace shape.

    ``heartbeat`` is threaded in explicitly (not read from the ambient
    telemetry switch) because workers reset ambient state in
    ``_worker_init``; when set, every successful trial appends one
    ``telemetry.heartbeat`` record to its capture trace, carrying the
    trial index, measured wall-clock, and the worker's current RSS.
    """
    out: list[tuple[int, bool, object, tuple]] = []
    # Trials must never nest another pool: a worker is already one slot
    # of the parent's budget.
    with use_jobs(1):
        for t, item in chunk:
            records: tuple = ()
            try:
                if capture:
                    tracer = Tracer()
                    started = time.perf_counter()
                    with use_tracer(tracer):
                        value = fn(item)
                    if heartbeat:
                        from repro.telemetry.heartbeat import emit_heartbeat

                        emit_heartbeat(
                            tracer,
                            trial=t,
                            elapsed_s=time.perf_counter() - started,
                        )
                    records = tracer.records
                else:
                    value = fn(item)
            except Exception as exc:  # noqa: BLE001 - transported to parent
                if capture:
                    records = tracer.records
                out.append((t, False, _freeze_exception(exc), records))
                return out
            out.append((t, True, value, records))
    return out


def _replay(records: Sequence[TraceRecord], worker: int, trial: int) -> None:
    tracer = get_tracer()
    for record in records:
        tracer.replay(record, worker=worker, trial=trial)


def _raise_trial_failure(exc: BaseException, trial: int, worker: int):
    exc.trial_index = trial
    note = f"repro.parallel: raised in trial {trial} (worker {worker})"
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        add_note(note)
    raise exc


def _numeric(payload: object) -> bool | int | float | None:
    """A trial result as the Python number ``trial.result`` echoes, or
    None for a result that is not one."""
    if isinstance(payload, (np.bool_, np.integer, np.floating)):
        payload = payload.item()
    if isinstance(payload, (bool, int, float)):
        return payload
    return None


def _is_picklable(fn: Callable) -> bool:
    try:
        pickle.dumps(fn)
        return True
    except Exception:
        return False


@dataclass
class TrialPool:
    """A reusable fan-out policy: how many workers, how big the chunks.

    ``jobs=None`` defers to the ambient degree at each :meth:`map` call
    (so one pool object can serve both ``--jobs 1`` and ``--jobs 8``
    invocations); ``chunk_size=None`` auto-sizes to
    ``len(items) / (jobs * 4)``, capped at 64.

    ``estimate`` names the Monte-Carlo estimate this map contributes
    to.  When set (and tracing is on), every numeric trial result is
    echoed into the ambient stream as a ``trial.result`` event --
    ``estimate=<name> trial=<t> worker=<chunk> value=<float>
    binary=<bool>`` -- during ordered collection in the *parent*, so
    the event stream is identical at every ``--jobs N``.  Numeric means
    a Python ``bool``, ``int`` or ``float``, or a numpy bool, integer or
    floating scalar, echoed as its Python value (a numpy bool is
    binary).  The :class:`~repro.obs.ConvergenceMonitor` folds these
    into streaming confidence intervals.
    """

    jobs: int | None = None
    chunk_size: int | None = None
    estimate: str | None = None

    def map(self, fn: Callable, items: Sequence) -> list:
        """Run ``fn`` over ``items``; results in item order.

        See the module docstring for the tracing, fallback, and failure
        contract.  ``fn`` must be picklable (a module-level function or
        a :func:`functools.partial` over one) for the parallel path;
        anything else falls back to serial with a warning.
        """
        items = list(items)
        jobs = resolve_jobs(self.jobs)
        capture = get_tracer().enabled
        heartbeat = capture and telemetry_enabled()
        if jobs > 1 and len(items) > 1 and not _is_picklable(fn):
            warnings.warn(
                f"repro.parallel: trial function {fn!r} is not picklable; "
                "running serially",
                RuntimeWarning,
                stacklevel=3,
            )
            jobs = 1
        indexed = list(enumerate(items))
        if jobs <= 1 or len(items) <= 1:
            return self._collect(
                [_run_chunk(fn, indexed, capture, heartbeat)], capture
            )
        size = self.chunk_size or min(
            _MAX_CHUNK, max(1, ceil(len(items) / (jobs * _CHUNKS_PER_WORKER)))
        )
        chunks = [indexed[i:i + size] for i in range(0, len(indexed), size)]
        # Imported here: it loads multiprocessing, which serial runs,
        # the common case, never touch.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=min(jobs, len(chunks)), initializer=_worker_init
        ) as pool:
            futures = [
                pool.submit(_run_chunk, fn, chunk, capture, heartbeat)
                for chunk in chunks
            ]
            try:
                # Ordered collection: chunk k's results (and trace
                # replay) always land before chunk k+1's, whatever the
                # completion order -- determinism over latency.
                outs = [future.result() for future in futures]
            except (KeyboardInterrupt, Exception):
                for future in futures:
                    future.cancel()
                pool.shutdown(wait=False, cancel_futures=True)
                raise
        return self._collect(outs, capture)

    def _collect(self, outs: list[list[tuple]], capture: bool) -> list:
        results: dict[int, object] = {}
        tracer = get_tracer()
        for worker, chunk_out in enumerate(outs):
            for t, ok, payload, records in chunk_out:
                if capture:
                    _replay(records, worker, t)
                if not ok:
                    _raise_trial_failure(payload, t, worker)
                if capture and self.estimate is not None:
                    value = _numeric(payload)
                    if value is not None:
                        tracer.event(
                            "trial.result",
                            estimate=self.estimate,
                            trial=t,
                            worker=worker,
                            value=float(value),
                            binary=isinstance(value, bool),
                        )
                results[t] = payload
        return [results[t] for t in sorted(results)]


def map_trials(
    fn: Callable,
    seeds: Sequence,
    *,
    jobs: int | None = None,
    chunk_size: int | None = None,
    estimate: str | None = None,
) -> list:
    """Run ``fn(seed)`` for every seed; results in seed order.

    The one-call form of :class:`TrialPool` -- the API the experiments
    use.  ``seeds`` is any sequence of picklable per-trial arguments
    (normally :func:`repro.parallel.seeds.seed_sequence` output).
    ``estimate`` names the Monte-Carlo estimate the results feed; see
    :class:`TrialPool`.
    """
    return TrialPool(
        jobs=jobs, chunk_size=chunk_size, estimate=estimate
    ).map(fn, seeds)
