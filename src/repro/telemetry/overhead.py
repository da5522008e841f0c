"""Observability self-overhead accounting: what does watching cost?

A speed claim measured *through* the tracer ("the array-backed table
is 10x faster") includes the tracer's own cost, so that cost must be a
known, subtractable quantity, not folded invisibly into experiment
wall-clock.  :class:`OverheadMeter` measures
it at the single choke point every record passes through:
:meth:`repro.obs.Tracer._emit` times its fan-out (the in-memory append
plus every subscriber call -- exporters, monitors, collectors) against
the meter when one is attached::

    meter = OverheadMeter().attach(tracer)
    ... run ...
    frac = meter.frac(result.metrics["duration_s"])

Accounting rules:

* **Outermost only.**  A subscriber may itself emit records (a monitor
  emitting ``monitor.violation``); nested emissions are already inside
  the outer timing window, so the meter counts them once, via a
  thread-local depth.
* **Thread-safe totals.**  The resource sampler emits from its own
  thread; totals accumulate under a lock.
* **Reported as** ``telemetry.overhead_frac`` -- fan-out seconds over
  experiment self-time -- in the run summary, the trace (a
  ``telemetry.overhead`` event), and the registry's ``overhead_frac``
  column.
"""

from __future__ import annotations

import threading
import time

from repro.obs.tracer import Tracer

__all__ = ["OverheadMeter"]


class OverheadMeter:
    """Accumulates wall time spent inside tracer record fan-out.

    ``overhead_s`` is the summed outermost ``_emit`` duration;
    ``records`` the number of outermost emissions timed.  Attach with
    :meth:`attach` (or ``tracer.set_meter(meter)``); detach with
    ``tracer.set_meter(None)``.
    """

    def __init__(self) -> None:
        self.overhead_s = 0.0
        self.records = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- the Tracer._emit protocol ---------------------------------------

    def begin(self) -> float | None:
        """Enter an emission; returns a timing token only when outermost."""
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        return time.perf_counter() if depth == 0 else None

    def end(self, token: float | None) -> None:
        """Leave an emission; accounts the interval for outermost tokens."""
        self._local.depth -= 1
        if token is not None:
            elapsed = time.perf_counter() - token
            with self._lock:
                self.overhead_s += elapsed
                self.records += 1

    # -- convenience -----------------------------------------------------

    def attach(self, tracer: Tracer) -> "OverheadMeter":
        """Install on ``tracer``; returns self."""
        tracer.set_meter(self)
        return self

    def frac(self, wall_s: float | None) -> float:
        """Overhead as a fraction of ``wall_s`` (0.0 when unmeasurable)."""
        if not wall_s or wall_s <= 0:
            return 0.0
        return self.overhead_s / wall_s

    def summary(self, wall_s: float | None = None) -> dict:
        out = {
            "overhead_s": round(self.overhead_s, 9),
            "records": self.records,
        }
        if wall_s is not None:
            out["overhead_frac"] = round(self.frac(wall_s), 6)
        return out
