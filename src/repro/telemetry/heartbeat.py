"""Worker heartbeats and stall detection for the trial pool.

The operational counterpart of the MPC model's per-machine budgets:
where the paper bounds what each machine may *use*, the heartbeat layer
watches whether each worker is still *making progress*.  Two halves:

* **Emission** (worker side).  When the ambient telemetry switch is on
  (:func:`repro.telemetry.use_telemetry`), ``repro.parallel.pool``'s
  ``_run_chunk`` calls :func:`emit_heartbeat` after every trial -- one
  ``telemetry.heartbeat`` event on the trial's capture tracer carrying
  the trial index, its measured wall-clock, and the worker process's
  current RSS.  Because both the serial and parallel paths share
  ``_run_chunk``, heartbeat *count and order* are deterministic (one
  per trial, replayed in chunk order) at every ``--jobs N``; only the
  wall-clock and RSS payloads vary.
* **Detection** (parent side).  :class:`StallDetector` subscribes to
  the parent tracer and watches replayed heartbeats: any trial whose
  ``elapsed_s`` exceeds the deadline becomes a ``telemetry.stall``
  event (a :class:`~repro.obs.Violation` payload, ``check=
  "worker_stall"`` -- the ``monitor.violation`` shape), and in strict
  mode raises :class:`~repro.obs.InvariantViolation` exactly like the
  invariant monitor, so ``--strict-bounds`` exits 2 on a stalled
  worker.  The detector also keeps a per-worker straggler ranking for
  the run summary.

Detection is *post-hoc by design*: a chunk's records ship back when
the chunk completes, so a stall is flagged at collection time, not
mid-flight.  That is the right trade for this engine -- chunks are
bounded (<= 64 trials) and the contract is "no silent pathological
trial", not preemption.
"""

from __future__ import annotations

from repro.obs.monitor import InvariantViolation, Violation
from repro.obs.tracer import NullTracer, Tracer

from repro.telemetry.config import stall_deadline
from repro.telemetry.sampler import read_proc_status

__all__ = ["StallDetector", "current_rss_kb", "emit_heartbeat"]


def current_rss_kb() -> float | None:
    """The process's current RSS in kB (``None`` off-Linux)."""
    return read_proc_status().get("rss_kb")


def emit_heartbeat(
    tracer: Tracer | NullTracer, *, trial: int, elapsed_s: float
) -> None:
    """One per-trial liveness event on ``tracer``.

    Called by the pool at the end of every trial (worker process or
    serial inline); the parent replays it tagged ``worker=<chunk>``.
    """
    tracer.event(
        "telemetry.heartbeat",
        trial=trial,
        elapsed_s=round(elapsed_s, 9),
        rss_kb=current_rss_kb(),
    )


class StallDetector:
    """A tracer subscriber that turns late heartbeats into violations.

    Parameters
    ----------
    deadline_s:
        Per-trial wall-clock budget; ``None`` uses
        :func:`repro.telemetry.config.stall_deadline` (the
        ``REPRO_STALL_DEADLINE`` env var or 30s).  A zero deadline
        flags every heartbeat -- CI's stall-injection negative control.
    strict:
        Raise :class:`~repro.obs.InvariantViolation` on the first
        stall (the ``--strict-bounds`` contract, exit code 2).
    tracer:
        Where ``telemetry.stall`` events are emitted (normally the
        tracer this detector subscribes to).
    """

    def __init__(
        self,
        *,
        deadline_s: float | None = None,
        strict: bool = False,
        tracer: Tracer | None = None,
    ) -> None:
        if deadline_s is not None and deadline_s < 0:
            raise ValueError(f"deadline_s must be >= 0, got {deadline_s}")
        self.deadline_s = (
            float(deadline_s) if deadline_s is not None else stall_deadline()
        )
        self._strict = strict
        self._tracer = tracer
        self.heartbeats = 0
        self.stalls: list[Violation] = []
        # worker -> (slowest elapsed_s, its trial index)
        self._slowest: dict[int, tuple[float, int]] = {}

    def __call__(self, record) -> None:
        if record.name != "telemetry.heartbeat":
            return
        a = record.attrs
        elapsed = float(a.get("elapsed_s") or 0.0)
        worker = int(a.get("worker", 0) or 0)
        trial = int(a.get("trial", 0) or 0)
        self.heartbeats += 1
        known = self._slowest.get(worker)
        if known is None or elapsed > known[0]:
            self._slowest[worker] = (elapsed, trial)
        if elapsed > self.deadline_s:
            violation = Violation(
                check="worker_stall",
                message=(
                    f"trial {trial} (worker {worker}) took {elapsed:.6f}s, "
                    f"over the {self.deadline_s:.6f}s stall deadline"
                ),
                machine=None,
                observed=elapsed,
                limit=self.deadline_s,
            )
            self.stalls.append(violation)
            if self._tracer is not None:
                self._tracer.event(
                    "telemetry.stall",
                    worker=worker,
                    trial=trial,
                    rss_kb=a.get("rss_kb"),
                    **violation.to_attrs(),
                )
            if self._strict:
                raise InvariantViolation(violation)

    def straggler_ranking(self) -> list[dict]:
        """Workers by slowest trial, slowest first (the run summary)."""
        ranked = sorted(
            self._slowest.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
        return [
            {"worker": worker, "trial": trial, "elapsed_s": round(elapsed, 9)}
            for worker, (elapsed, trial) in ranked
        ]

    def summary(self, *, top: int = 5) -> dict:
        """The detector's contribution to ``result.metrics['telemetry']``."""
        return {
            "heartbeats": self.heartbeats,
            "stalls": len(self.stalls),
            "stall_deadline_s": self.deadline_s,
            "stragglers": self.straggler_ranking()[:top],
        }

    def render(self, *, top: int = 5) -> str:
        """Human-readable straggler table for the run summary."""
        lines = [
            f"heartbeats: {self.heartbeats}, stalls: {len(self.stalls)} "
            f"(deadline {self.deadline_s:g}s)"
        ]
        for row in self.straggler_ranking()[:top]:
            lines.append(
                f"  worker {row['worker']:<3} slowest trial "
                f"{row['trial']:<5} {row['elapsed_s'] * 1e3:.3f}ms"
            )
        return "\n".join(lines)
