"""Background resource sampling: RSS, CPU, GC, threads -> the trace.

:class:`ResourceSampler` is a daemon thread that periodically reads
cheap process-local sources -- ``/proc/self/status`` (VmRSS / VmHWM /
Threads on Linux), :func:`resource.getrusage`, and :mod:`gc` counters
-- and emits each reading as a ``telemetry.sample`` event on a tracer.
No third-party dependency (no psutil): everything comes from the
standard library plus procfs, and on platforms without ``/proc`` the
sampler degrades to the ``getrusage`` subset instead of failing.

Samples are wall-clock-paced and therefore **non-deterministic in
count**: a fast host produces fewer than a loaded one.  That is why
``telemetry.sample`` is a host record in :mod:`repro.obs.schema`,
skipped whole by ``repro trace-diff``, and why the run registry stores
the sampled peaks in their own nullable columns instead of the
deterministic ``metrics`` JSON.

Lifecycle: ``start()`` begins sampling, ``close()`` stops the thread,
emits one final sample (so even a run shorter than the interval gets
at least one reading), and is idempotent -- the CLI closes samplers
through a single ``contextlib.ExitStack`` so a mid-run exception can
never leak the thread.  ``with ResourceSampler(...)`` does both.
"""

from __future__ import annotations

import gc
import resource
import threading

from repro.obs.tracer import NullTracer, Tracer, get_tracer

from repro.telemetry.config import sample_interval

__all__ = [
    "ResourceSampler",
    "read_proc_status",
    "resource_snapshot",
]

_PROC_FIELDS = {
    "VmRSS": "rss_kb",
    "VmHWM": "rss_peak_kb",
    "Threads": "threads",
}


def read_proc_status() -> dict:
    """``/proc/self/status`` fields we care about (empty off-Linux).

    ``VmRSS``/``VmHWM`` are reported by the kernel in kB; ``Threads``
    is a plain count.  Any read/parse failure returns what was parsed
    so far -- resource sampling must never take a run down.
    """
    out: dict = {}
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                field = _PROC_FIELDS.get(key)
                if field is None:
                    continue
                try:
                    out[field] = float(rest.split()[0])
                except (IndexError, ValueError):
                    continue
    except OSError:
        pass
    return out


def resource_snapshot() -> dict:
    """One point-in-time reading of process resource state.

    Keys: ``rss_kb`` / ``rss_peak_kb`` / ``threads`` (procfs, absent
    off-Linux except the ``ru_maxrss`` peak fallback), ``cpu_user_s`` /
    ``cpu_sys_s`` (rusage), ``gc_collections`` (lifetime collection
    count summed over generations), ``gc_objects`` (currently tracked).
    """
    snap = read_proc_status()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    snap["cpu_user_s"] = round(usage.ru_utime, 6)
    snap["cpu_sys_s"] = round(usage.ru_stime, 6)
    # ru_maxrss is kB on Linux; use it as the peak fallback when procfs
    # is unavailable so rss_peak_kb is populated everywhere.
    snap.setdefault("rss_peak_kb", float(usage.ru_maxrss))
    snap["gc_collections"] = sum(
        s.get("collections", 0) for s in gc.get_stats()
    )
    snap["gc_objects"] = len(gc.get_objects(0))
    snap.setdefault("threads", float(threading.active_count()))
    return snap


class ResourceSampler:
    """Periodic ``telemetry.sample`` emission on a background thread.

    Parameters
    ----------
    tracer:
        Where samples land (default: the ambient tracer at
        construction time).  Emission from the sampler thread is safe:
        the tracer's fan-out appends and subscriber calls run under the
        GIL, and the JSONL exporter writes whole lines.
    interval_s:
        Seconds between samples (default :func:`sample_interval`,
        i.e. ``REPRO_TELEMETRY_INTERVAL`` or 50ms).
    """

    def __init__(
        self,
        tracer: Tracer | NullTracer | None = None,
        *,
        interval_s: float | None = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else get_tracer()
        self._interval = (
            max(0.001, float(interval_s)) if interval_s is not None
            else sample_interval()
        )
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._closed = False
        self.samples = 0
        self.rss_peak_kb: float | None = None
        self.cpu_s: float | None = None

    @property
    def interval_s(self) -> float:
        return self._interval

    def _emit_sample(self) -> None:
        snap = resource_snapshot()
        peak = snap.get("rss_peak_kb")
        if peak is not None:
            self.rss_peak_kb = max(self.rss_peak_kb or 0.0, float(peak))
        self.cpu_s = snap["cpu_user_s"] + snap["cpu_sys_s"]
        self.samples += 1
        self._tracer.event(
            "telemetry.sample", interval_s=self._interval, **snap
        )

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._emit_sample()

    def start(self) -> "ResourceSampler":
        """Begin sampling (no-op if already started or closed)."""
        if self._thread is None and not self._closed:
            self._thread = threading.Thread(
                target=self._loop, name="repro-resource-sampler", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the thread and emit one final sample; idempotent.

        The final emission guarantees at least one ``telemetry.sample``
        (with the true RSS peak) even for runs shorter than the
        interval, and gives the trace a closing resource reading.
        """
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._emit_sample()

    def summary(self) -> dict:
        """The sampler's contribution to ``result.metrics['telemetry']``."""
        return {
            "samples": self.samples,
            "interval_s": self._interval,
            "rss_peak_kb": self.rss_peak_kb,
            "cpu_s": self.cpu_s,
        }

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
