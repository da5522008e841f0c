"""Tests for tracer self-overhead accounting."""

import threading

from repro.obs import Tracer, use_tracer
from repro.telemetry import OverheadMeter


class TestOverheadMeter:
    def test_times_every_emission(self):
        tracer = Tracer()
        meter = OverheadMeter().attach(tracer)
        for i in range(25):
            tracer.event("x", i=i)
        assert meter.records == 25
        assert meter.overhead_s > 0.0

    def test_nested_emissions_counted_once(self):
        """A subscriber that emits must not double-book its window."""
        tracer = Tracer()
        meter = OverheadMeter().attach(tracer)

        def echoing(record):
            if record.name == "outer":
                tracer.event("inner")

        tracer.subscribe(echoing)
        tracer.event("outer")
        # Two records hit the stream, but only the outermost emission
        # opened a timing window.
        assert len(tracer.records) == 2
        assert meter.records == 1

    def test_detach_stops_accounting(self):
        tracer = Tracer()
        meter = OverheadMeter().attach(tracer)
        tracer.event("a")
        tracer.set_meter(None)
        tracer.event("b")
        assert meter.records == 1

    def test_frac_and_summary(self):
        meter = OverheadMeter()
        meter.overhead_s = 0.05
        meter.records = 10
        assert meter.frac(1.0) == 0.05
        assert meter.frac(0.0) == 0.0
        assert meter.frac(None) == 0.0
        summary = meter.summary(2.0)
        assert summary["overhead_frac"] == 0.025
        assert summary["records"] == 10
        assert "overhead_frac" not in meter.summary()

    def test_thread_safe_totals(self):
        tracer = Tracer(keep_records=False)
        meter = OverheadMeter().attach(tracer)

        def spin():
            for i in range(200):
                tracer.event("t", i=i)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert meter.records == 800

    def test_overhead_excluded_when_meter_absent(self):
        """The no-meter fast path leaves behavior identical."""
        tracer = Tracer()
        with use_tracer(tracer):
            tracer.event("plain")
        assert len(tracer.records) == 1
