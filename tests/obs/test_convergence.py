"""Tests for the streaming convergence monitor (repro.obs.convergence)."""

import math

import numpy as np
import pytest

from repro.analysis import binomial_ci, mean_ci
from repro.obs import (
    ConvergenceMonitor,
    Tracer,
    WelfordAccumulator,
    WilsonAccumulator,
    attach_estimates,
)


class TestWelfordAccumulator:
    def test_matches_mean_ci(self):
        rng = np.random.default_rng(3)
        values = list(rng.normal(5.0, 2.0, size=40))
        acc = WelfordAccumulator()
        for v in values:
            acc.add(v)
        mean, low, high = acc.interval()
        ref_mean, ref_half = mean_ci(values)
        assert mean == pytest.approx(ref_mean)
        assert (high - low) / 2 == pytest.approx(ref_half)

    def test_variance_matches_numpy(self):
        values = [1.0, 4.0, 2.0, 8.0]
        acc = WelfordAccumulator()
        for v in values:
            acc.add(v)
        assert acc.variance == pytest.approx(np.var(values, ddof=1))

    def test_single_sample_unbounded(self):
        acc = WelfordAccumulator()
        acc.add(3.0)
        mean, low, high = acc.interval()
        assert mean == 3.0
        assert math.isinf(low) and math.isinf(high)
        assert math.isinf(acc.stats("x").half_width)

    def test_zero_variance_zero_width(self):
        acc = WelfordAccumulator()
        for _ in range(5):
            acc.add(2.0)
        assert acc.interval() == (2.0, 2.0, 2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WelfordAccumulator().interval()

    @pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5, math.nan])
    def test_confidence_outside_unit_interval_rejected(self, confidence):
        acc = WelfordAccumulator()
        acc.add(1.0)
        with pytest.raises(ValueError, match="confidence"):
            acc.interval(confidence)
        for value in (2.0, 4.0):
            acc.add(value)
        with pytest.raises(ValueError, match="confidence"):
            acc.interval(confidence)


class TestWilsonAccumulator:
    def test_matches_binomial_ci(self):
        acc = WilsonAccumulator()
        for i in range(100):
            acc.add(i < 37)
        assert acc.interval() == binomial_ci(37, 100)
        stats = acc.stats("p")
        assert stats.kind == "binomial"
        assert stats.n == 100
        assert stats.value == pytest.approx(0.37)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WilsonAccumulator().rate


class TestEstimateStats:
    def test_resolved_threshold_outside_interval(self):
        acc = WilsonAccumulator()
        for i in range(200):
            acc.add(i < 100)  # rate 0.5, tight-ish CI
        stats = acc.stats("p")
        assert stats.resolved(0.9)
        assert not stats.resolved(0.5)

    def test_to_dict_shape(self):
        acc = WilsonAccumulator()
        acc.add(True)
        acc.add(False)
        d = acc.stats("p").to_dict()
        assert set(d) == {
            "kind", "n", "value", "ci95", "confidence", "half_width"
        }


class TestConvergenceMonitor:
    def test_consumes_trial_result_events(self):
        tracer = Tracer()
        monitor = ConvergenceMonitor()
        tracer.subscribe(monitor)
        for t in range(20):
            tracer.event(
                "trial.result", estimate="p", trial=t, worker=0,
                value=1.0 if t % 2 else 0.0, binary=True,
            )
        tracer.event("other.event", value=99.0)  # ignored
        assert monitor.names == ["p"]
        stats = monitor.stats("p")
        assert stats.n == 20
        assert stats.value == pytest.approx(0.5)

    def test_emits_converged_event_once(self):
        tracer = Tracer()
        monitor = ConvergenceMonitor(
            tracer=tracer, target_half_width=0.5, min_trials=5
        )
        tracer.subscribe(monitor)
        for _ in range(50):
            monitor.observe("m", 1.0)
        converged = [r for r in tracer.records if r.name == "estimate.converged"]
        assert len(converged) == 1
        assert converged[0].attrs["estimate"] == "m"
        assert converged[0].attrs["n"] == monitor.converged_at["m"]
        assert monitor.converged_at["m"] >= 5

    def test_unresolved_flags_threshold_inside_ci(self):
        monitor = ConvergenceMonitor(thresholds={"p": 0.5, "q": 0.99})
        for i in range(100):
            monitor.observe("p", float(i < 50), binary=True)
            monitor.observe("q", float(i < 50), binary=True)
        assert monitor.unresolved() == ["p"]
        assert "not statistically resolved" in monitor.render()
        d = monitor.to_dict()
        assert d["estimates"]["p"]["resolved"] is False
        assert d["estimates"]["q"]["resolved"] is True
        assert d["unresolved"] == ["p"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceMonitor(target_half_width=0.0)

    def test_render_without_estimates(self):
        assert "no estimates" in ConvergenceMonitor().render()


class TestAttachEstimates:
    def test_attaches_sorted_with_thresholds(self):
        acc = WilsonAccumulator()
        for i in range(40):
            acc.add(i < 10)
        metrics = attach_estimates(
            {}, {"b": acc.stats("b"), "a": acc.stats("a")}, {"a": 0.25}
        )
        assert list(metrics["estimates"]) == ["a", "b"]
        assert metrics["estimates"]["a"]["threshold"] == 0.25
        assert "resolved" in metrics["estimates"]["a"]
        assert "threshold" not in metrics["estimates"]["b"]
