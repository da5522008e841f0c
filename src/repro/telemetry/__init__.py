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
"""

from repro.telemetry.config import (
    DEFAULT_SAMPLE_INTERVAL_S,
    DEFAULT_STALL_DEADLINE_S,
    resolve_telemetry,
    sample_interval,
    stall_deadline,
    telemetry_enabled,
    use_telemetry,
)
from repro.telemetry.heartbeat import (
    StallDetector,
    current_rss_kb,
    emit_heartbeat,
)
from repro.telemetry.overhead import OverheadMeter
from repro.telemetry.sampler import (
    ResourceSampler,
    read_proc_status,
    resource_snapshot,
)

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL_S",
    "DEFAULT_STALL_DEADLINE_S",
    "OverheadMeter",
    "ResourceSampler",
    "StallDetector",
    "current_rss_kb",
    "emit_heartbeat",
    "read_proc_status",
    "resolve_telemetry",
    "resource_snapshot",
    "sample_interval",
    "stall_deadline",
    "telemetry_enabled",
    "use_telemetry",
]
