"""Heartbeats, stall detection, and the telemetry determinism contract."""

import time

import pytest

from repro.obs import InvariantViolation, Tracer, use_tracer
from repro.obs.forensics import explain_divergence, render_divergence
from repro.parallel import map_trials
from repro.telemetry import (
    StallDetector,
    emit_heartbeat,
    resolve_telemetry,
    telemetry_enabled,
    use_telemetry,
)
from tests.obs.test_schema import undeclared

TRIALS = 12
SLOW_TRIAL = 7
SLOW_S = 0.25


def _trial(seed):
    return float(seed % 5)


def _slow_trial(seed):
    """One injected straggler: trial SLOW_TRIAL sleeps ~SLOW_S."""
    if seed == SLOW_TRIAL:
        time.sleep(SLOW_S)
    return float(seed % 5)


def _run(fn, *, jobs, telemetry=True, detector=None):
    tracer = Tracer()
    if detector is not None:
        tracer.subscribe(detector)
    with use_tracer(tracer), use_telemetry(telemetry):
        values = map_trials(fn, list(range(TRIALS)), jobs=jobs, estimate="e")
    return tracer.records, values


class TestConfig:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert telemetry_enabled() is False
        assert resolve_telemetry(None) is False

    def test_env_var_enables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert telemetry_enabled() is True
        assert resolve_telemetry(None) is True

    def test_explicit_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert resolve_telemetry(False) is False

    def test_use_telemetry_scopes_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        with use_telemetry(True):
            assert telemetry_enabled() is True
            with use_telemetry(False):
                assert telemetry_enabled() is False
            assert telemetry_enabled() is True
        assert telemetry_enabled() is False


class TestHeartbeats:
    def test_one_heartbeat_per_trial_serial(self):
        records, values = _run(_trial, jobs=1)
        beats = [r for r in records if r.name == "telemetry.heartbeat"]
        assert len(beats) == TRIALS
        assert sorted(r.attrs["trial"] for r in beats) == list(range(TRIALS))
        assert values == [float(s % 5) for s in range(TRIALS)]

    def test_heartbeat_count_identical_serial_vs_parallel(self):
        serial, _ = _run(_trial, jobs=1)
        parallel, _ = _run(_trial, jobs=2)
        count = lambda rs: sum(
            1 for r in rs if r.name == "telemetry.heartbeat"
        )
        assert count(serial) == count(parallel) == TRIALS

    def test_no_heartbeats_when_telemetry_off(self):
        records, _ = _run(_trial, jobs=2, telemetry=False)
        assert not any(r.name.startswith("telemetry.") for r in records)

    def test_emit_heartbeat_shape(self):
        tracer = Tracer()
        emit_heartbeat(tracer, trial=3, elapsed_s=0.125)
        (record,) = tracer.records
        assert record.name == "telemetry.heartbeat"
        assert record.attrs["trial"] == 3
        assert record.attrs["elapsed_s"] == 0.125
        assert "rss_kb" in record.attrs


class TestStallDetector:
    def test_slow_worker_yields_exactly_one_stall(self):
        tracer = Tracer()
        detector = StallDetector(deadline_s=SLOW_S / 2, tracer=tracer)
        tracer.subscribe(detector)
        with use_tracer(tracer), use_telemetry(True):
            map_trials(_slow_trial, list(range(TRIALS)), jobs=2)
        assert len(detector.stalls) == 1
        (violation,) = detector.stalls
        assert violation.check == "worker_stall"
        assert violation.observed >= SLOW_S
        stall_events = [
            r for r in tracer.records if r.name == "telemetry.stall"
        ]
        assert len(stall_events) == 1
        assert stall_events[0].attrs["trial"] == SLOW_TRIAL
        assert undeclared(tracer.records) == []

    def test_straggler_ranking_flags_the_slow_worker(self):
        detector = StallDetector(deadline_s=30.0)
        _run(_slow_trial, jobs=2, detector=detector)
        ranking = detector.straggler_ranking()
        assert ranking, "ranking must be nonzero after heartbeats"
        assert ranking[0]["trial"] == SLOW_TRIAL
        assert ranking[0]["elapsed_s"] >= SLOW_S
        assert ranking[0]["elapsed_s"] >= ranking[-1]["elapsed_s"]

    def test_strict_stall_raises_invariant_violation(self):
        detector = StallDetector(deadline_s=0.0, strict=True)
        with pytest.raises(InvariantViolation) as excinfo:
            _run(_trial, jobs=1, detector=detector)
        assert excinfo.value.violation.check == "worker_stall"

    def test_zero_deadline_flags_every_heartbeat(self):
        detector = StallDetector(deadline_s=0.0)
        _run(_trial, jobs=1, detector=detector)
        assert detector.heartbeats == TRIALS
        assert len(detector.stalls) == TRIALS

    def test_negative_deadline_rejected(self):
        with pytest.raises(ValueError):
            StallDetector(deadline_s=-1.0)

    def test_summary_and_render(self):
        detector = StallDetector(deadline_s=30.0)
        _run(_trial, jobs=1, detector=detector)
        summary = detector.summary()
        assert summary["heartbeats"] == TRIALS
        assert summary["stalls"] == 0
        assert summary["stall_deadline_s"] == 30.0
        assert summary["stragglers"]
        assert "heartbeats" in detector.render()


class TestDeterminismContract:
    def test_trace_diff_clean_telemetry_on_vs_off(self):
        off, _ = _run(_trial, jobs=1, telemetry=False)
        on, _ = _run(_trial, jobs=1, telemetry=True)
        for a, b in ((off, on), (on, off)):
            d = explain_divergence(a, b)
            assert d is None, render_divergence(d)

    def test_trace_diff_clean_across_jobs_with_telemetry(self):
        serial, _ = _run(_trial, jobs=1)
        parallel, _ = _run(_trial, jobs=3)
        for a, b in ((serial, parallel), (parallel, serial)):
            d = explain_divergence(a, b)
            assert d is None, render_divergence(d)

    def test_results_identical_with_telemetry_and_jobs(self):
        _, base = _run(_trial, jobs=1, telemetry=False)
        for jobs, telemetry in ((1, True), (2, True), (3, False)):
            _, values = _run(_trial, jobs=jobs, telemetry=telemetry)
            assert values == base
