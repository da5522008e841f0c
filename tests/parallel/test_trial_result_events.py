"""The ``trial.result`` event stream ``map_trials(estimate=...)`` emits."""

import numpy as np
import pytest

from repro.obs import ConvergenceMonitor, Tracer, use_tracer
from repro.parallel import map_trials


def _coin(seed):
    return seed % 3 == 0


def _numpy_count(seed):
    return np.int64(seed % 3)


def _numpy_coin(seed):
    return np.bool_(seed % 3 == 0)


def _numpy_rate(seed):
    return np.float32(seed / 4)


def _length(seed):
    return seed % 4


def _tuple_result(seed):
    return (seed, seed)


def _events(records):
    return [r for r in records if r.name == "trial.result"]


class TestTrialResultEvents:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_numeric_results_emit_events(self, jobs):
        tracer = Tracer()
        with use_tracer(tracer):
            map_trials(_coin, range(12), jobs=jobs, estimate="p")
        events = _events(tracer.records)
        assert len(events) == 12
        assert [e.attrs["trial"] for e in events] == list(range(12))
        assert all(e.attrs["estimate"] == "p" for e in events)
        assert all(e.attrs["binary"] is True for e in events)
        assert [e.attrs["value"] for e in events] == [
            float(s % 3 == 0) for s in range(12)
        ]

    def test_serial_and_parallel_streams_identical(self):
        # The worker attr differs by jobs; everything else must not.
        streams = []
        for jobs in (1, 4):
            tracer = Tracer()
            with use_tracer(tracer):
                map_trials(_length, range(20), jobs=jobs, estimate="len")
            streams.append([
                (e.attrs["trial"], e.attrs["value"], e.attrs["binary"])
                for e in _events(tracer.records)
            ])
        assert streams[0] == streams[1]

    def test_integer_results_are_mean_kind(self):
        tracer = Tracer()
        with use_tracer(tracer):
            map_trials(_length, range(8), jobs=1, estimate="len")
        events = _events(tracer.records)
        assert all(e.attrs["binary"] is False for e in events)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_numpy_scalars_echo_their_python_value(self, jobs):
        tracer = Tracer()
        with use_tracer(tracer):
            map_trials(_numpy_count, range(4), jobs=jobs, estimate="count")
            map_trials(_numpy_coin, range(4), jobs=jobs, estimate="coin")
            map_trials(_numpy_rate, range(4), jobs=jobs, estimate="rate")
        events = _events(tracer.records)
        rows = [
            (e.attrs["estimate"], e.attrs["trial"], e.attrs["value"],
             e.attrs["binary"])
            for e in events
        ]
        assert rows == (
            [("count", s, float(s % 3), False) for s in range(4)]
            + [("coin", s, float(s % 3 == 0), True) for s in range(4)]
            + [("rate", s, s / 4, False) for s in range(4)]
        )
        assert all(type(e.attrs["value"]) is float for e in events)
        assert all(type(e.attrs["binary"]) is bool for e in events)

    def test_no_estimate_no_events(self):
        tracer = Tracer()
        with use_tracer(tracer):
            map_trials(_coin, range(6), jobs=1)
        assert _events(tracer.records) == []

    def test_non_numeric_results_skipped(self):
        tracer = Tracer()
        with use_tracer(tracer):
            results = map_trials(
                _tuple_result, range(4), jobs=1, estimate="t"
            )
        assert len(results) == 4
        assert _events(tracer.records) == []

    def test_no_tracer_no_overhead_path(self):
        # Without an ambient tracer the estimate label is inert.
        assert map_trials(_coin, range(5), jobs=1, estimate="p") == [
            s % 3 == 0 for s in range(5)
        ]

    def test_feeds_convergence_monitor(self):
        tracer = Tracer()
        monitor = ConvergenceMonitor()
        tracer.subscribe(monitor)
        with use_tracer(tracer):
            map_trials(_coin, range(30), jobs=3, estimate="p")
        stats = monitor.stats("p")
        assert stats.n == 30
        assert stats.kind == "binomial"
        assert stats.value == pytest.approx(10 / 30)
