"""Runtime telemetry & health: the layer that watches the *runtime*.

Everything in :mod:`repro.obs` observes the **model** -- rounds,
message bits, oracle queries, the quantities the paper bounds.  This
package observes the **process running the model**:

* :mod:`repro.telemetry.sampler` -- :class:`ResourceSampler`, a
  background thread emitting periodic ``telemetry.sample`` events
  (RSS / peak RSS / CPU / GC / threads) from ``/proc/self`` +
  :mod:`resource` + :mod:`gc`;
* :mod:`repro.telemetry.heartbeat` -- per-trial ``telemetry.heartbeat``
  events through :mod:`repro.parallel.pool` and the parent-side
  :class:`StallDetector` (``telemetry.stall`` events, straggler
  ranking, strict-mode hard fail);
* :mod:`repro.telemetry.overhead` -- :class:`OverheadMeter`, tracer
  self-overhead accounting (``telemetry.overhead_frac``);
* :mod:`repro.telemetry.config` -- the ambient on/off switch
  (:func:`use_telemetry` / ``REPRO_TELEMETRY``) plus deadline and
  interval knobs.

Telemetry is opt-in and deterministic-by-exclusion: the ``telemetry.*``
names are host records in :mod:`repro.obs.schema`, skipped whole by
``repro trace-diff``; their flat metric keys are dropped by
:func:`repro.obs.registry.deterministic_metrics` and their readings
stored in their own nullable registry columns (``rss_peak_kb`` /
``overhead_frac``), so fingerprints stay bit-identical with telemetry
on or off, at any ``--jobs N``.  See docs/OBSERVABILITY.md, "Runtime
telemetry".

Each name below is importable from this package; the submodule that
defines it is imported when the name is first used
(:func:`repro._lazy.lazy_exports`).  The trial pool imports
:mod:`repro.telemetry.config` directly and
:mod:`repro.telemetry.heartbeat` only when heartbeats are on.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": (
        "DEFAULT_SAMPLE_INTERVAL_S",
        "DEFAULT_STALL_DEADLINE_S",
        "resolve_telemetry",
        "sample_interval",
        "stall_deadline",
        "telemetry_enabled",
        "use_telemetry",
    ),
    "heartbeat": ("StallDetector", "current_rss_kb", "emit_heartbeat"),
    "overhead": ("OverheadMeter",),
    "sampler": ("ResourceSampler", "read_proc_status", "resource_snapshot"),
})
