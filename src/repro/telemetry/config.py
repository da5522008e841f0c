"""Ambient telemetry configuration: one switch, scoped like ``use_jobs``.

Runtime telemetry (resource sampling, worker heartbeats, stall
detection, overhead accounting) is **off by default**: the model-level
trace must stay bit-identical whether or not anyone watches the
runtime, and the cheapest telemetry is the kind never collected.  The
CLI's ``--telemetry`` flag (or the ``REPRO_TELEMETRY`` environment
variable) turns it on; :func:`use_telemetry` carries the decision to
code that never sees argv -- most importantly the trial pool, whose
``_run_chunk`` emits one ``telemetry.heartbeat`` per trial only when
the ambient switch is set::

    from repro.telemetry import use_telemetry

    with use_telemetry(True):
        map_trials(fn, seeds)       # heartbeats ride the capture tracer

Resolution order mirrors :func:`repro.parallel.use_jobs`: an explicit
flag, the enclosing :func:`use_telemetry` scope, the environment
variable, and finally off.  The stall deadline and sampler interval
follow the same pattern (``REPRO_STALL_DEADLINE`` /
``REPRO_TELEMETRY_INTERVAL``) so CI can inject a zero deadline as a
negative control without touching code.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL_S",
    "DEFAULT_STALL_DEADLINE_S",
    "resolve_telemetry",
    "sample_interval",
    "stall_deadline",
    "telemetry_enabled",
    "use_telemetry",
]

#: Seconds between ``telemetry.sample`` emissions (override with
#: ``REPRO_TELEMETRY_INTERVAL``).  50ms keeps sub-second runs to a
#: handful of samples while still catching RSS ramps on long sweeps.
DEFAULT_SAMPLE_INTERVAL_S = 0.05

#: Per-trial wall-clock budget before a worker counts as stalled
#: (override with ``REPRO_STALL_DEADLINE`` or ``--stall-deadline``).
#: Generous by design: the quick-scale suite finishes whole experiments
#: in under a second, so 30s flags genuine hangs, not slow trials.
DEFAULT_STALL_DEADLINE_S = 30.0

_FALSY = ("", "0", "false", "off", "no")

_ambient: bool | None = None


def telemetry_enabled() -> bool:
    """The ambient telemetry switch (scope, then env var, then off)."""
    if _ambient is not None:
        return _ambient
    env = os.environ.get("REPRO_TELEMETRY")
    if env is not None:
        return env.strip().lower() not in _FALSY
    return False


def resolve_telemetry(flag: bool | None) -> bool:
    """Normalize a CLI flag: ``None`` means ambient/env default."""
    if flag is None:
        return telemetry_enabled()
    return bool(flag)


@contextmanager
def use_telemetry(flag: bool | None) -> Iterator[bool]:
    """Set the ambient telemetry switch for a scope.

    ``None`` leaves the ambient value untouched, so callers can write
    ``with use_telemetry(args.telemetry):`` unconditionally.
    """
    global _ambient
    if flag is None:
        yield telemetry_enabled()
        return
    previous = _ambient
    _ambient = bool(flag)
    try:
        yield _ambient
    finally:
        _ambient = previous


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw:
        try:
            return float(raw)
        except ValueError:
            pass
    return default


def sample_interval() -> float:
    """Seconds between resource samples (floor 1ms)."""
    return max(0.001, _env_float(
        "REPRO_TELEMETRY_INTERVAL", DEFAULT_SAMPLE_INTERVAL_S
    ))


def stall_deadline() -> float:
    """The default per-trial stall deadline in seconds (floor 0)."""
    return max(0.0, _env_float(
        "REPRO_STALL_DEADLINE", DEFAULT_STALL_DEADLINE_S
    ))
