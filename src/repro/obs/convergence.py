"""Monte-Carlo convergence observability: streaming CIs on the trial stream.

Every probability the experiments report is a Monte-Carlo estimate, and
a point estimate without a confidence interval cannot justify a
verdict.  This module computes 95% intervals **online** -- one update
per trial, no second pass over the trial list:

* :class:`WelfordAccumulator` -- streaming mean/variance (Welford's
  algorithm) for real-valued estimates; its t-based half-width matches
  :func:`repro.analysis.statistics.mean_ci` exactly;
* :class:`WilsonAccumulator` -- streaming success counts for binary
  estimates; its interval is
  :func:`repro.analysis.statistics.binomial_ci` (Wilson score), which
  needs only ``(successes, trials)`` and is therefore inherently
  single-pass;
* :class:`ConvergenceMonitor` -- a tracer subscriber consuming the
  ``trial.result`` events :mod:`repro.parallel.pool` emits as trial
  results are collected (the same ``worker=<chunk>/trial=<t>`` replay
  stream the metrics and invariant monitors ride).  It maintains one
  accumulator per estimate, emits an ``estimate.converged`` event the
  first time an estimate's CI half-width drops below the target, and
  can flag estimates whose decision threshold lies *inside* the 95%
  interval -- "verdict not statistically resolved": the data does not
  yet distinguish pass from fail.

Trace schema additions:

| name | kind | attrs |
|---|---|---|
| ``trial.result`` | event | ``estimate`` (name), ``trial``, ``worker``, ``value`` (float), ``binary`` (bool: Wilson vs Welford) |
| ``estimate.converged`` | event | ``estimate``, ``n``, ``value``, ``half_width``, ``target`` |

Both are emitted by the *parent* process during ordered result
collection, so their order and content are bit-identical at every
``--jobs N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.analysis.statistics import _t_half_width, binomial_ci
from repro.obs.tracer import TraceRecord, Tracer

__all__ = [
    "WelfordAccumulator",
    "WilsonAccumulator",
    "EstimateStats",
    "ConvergenceMonitor",
    "attach_estimates",
]


@dataclass(frozen=True)
class EstimateStats:
    """A frozen snapshot of one estimate's streaming statistics."""

    name: str
    kind: str  # "binomial" | "mean"
    n: int
    value: float  # the point estimate (rate or mean)
    low: float
    high: float
    confidence: float = 0.95

    @property
    def half_width(self) -> float:
        """Half the CI width (``inf`` when the CI is unbounded)."""
        if math.isinf(self.low) or math.isinf(self.high):
            return math.inf
        return (self.high - self.low) / 2.0

    def resolved(self, threshold: float) -> bool:
        """Is a verdict that compares ``value`` against ``threshold``
        statistically resolved -- i.e. does the threshold fall *outside*
        the interval?  ``False`` means the CI still straddles the
        decision boundary and the verdict could flip with more trials.
        """
        return not (self.low <= threshold <= self.high)

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "n": self.n,
            "value": round(self.value, 9),
            "ci95": [round(self.low, 9), round(self.high, 9)],
            "confidence": self.confidence,
        }
        out["half_width"] = (
            round(self.half_width, 9)
            if not math.isinf(self.half_width)
            else None
        )
        return out


class WelfordAccumulator:
    """Streaming mean and variance (Welford's online algorithm).

    One :meth:`add` per sample; O(1) state.  The confidence interval
    reproduces :func:`repro.analysis.statistics.mean_ci`: t-based, with
    an infinite half-width at ``n == 1`` and a zero half-width for a
    zero-variance stream.
    """

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        self.n += 1
        delta = value - self.mean
        self.mean += delta / self.n
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0.0 until two samples exist."""
        if self.n < 2:
            return 0.0
        return self._m2 / (self.n - 1)

    def interval(self, confidence: float = 0.95) -> tuple[float, float, float]:
        """``(mean, low, high)`` of the t-based confidence interval."""
        if self.n == 0:
            raise ValueError("no samples")
        half = _t_half_width(
            math.sqrt(self.variance / self.n), self.n, confidence
        )
        return self.mean, self.mean - half, self.mean + half

    def stats(self, name: str, confidence: float = 0.95) -> EstimateStats:
        mean, low, high = self.interval(confidence)
        return EstimateStats(name, "mean", self.n, mean, low, high, confidence)


class WilsonAccumulator:
    """Streaming Wilson score interval for a binary (success) stream.

    State is just ``(successes, trials)``, so the interval is exact and
    online by construction -- there is nothing a second pass could add.
    """

    def __init__(self) -> None:
        self.trials = 0
        self.successes = 0

    def add(self, success: bool) -> None:
        self.trials += 1
        if success:
            self.successes += 1

    @property
    def rate(self) -> float:
        if not self.trials:
            raise ValueError("no trials")
        return self.successes / self.trials

    def interval(self, confidence: float = 0.95) -> tuple[float, float, float]:
        """``(rate, low, high)`` -- delegates to :func:`binomial_ci`."""
        return binomial_ci(self.successes, self.trials, confidence)

    def stats(self, name: str, confidence: float = 0.95) -> EstimateStats:
        rate, low, high = self.interval(confidence)
        return EstimateStats(
            name, "binomial", self.trials, rate, low, high, confidence
        )


class ConvergenceMonitor:
    """A tracer subscriber accumulating CIs over ``trial.result`` events.

    Subscribe it to a :class:`~repro.obs.Tracer` (the CLI's ``repro
    trace`` does) and it folds every ``trial.result`` event into a
    per-estimate accumulator -- :class:`WilsonAccumulator` for binary
    trials, :class:`WelfordAccumulator` otherwise.  When an estimate's
    half-width first drops to ``target_half_width`` (and at least
    ``min_trials`` trials are in), an ``estimate.converged`` event is
    emitted back into the stream, so a JSONL trace records *when* each
    estimate stabilized.

    ``thresholds`` maps estimate names to the decision boundary their
    experiment's verdict compares against; :meth:`unresolved` (and the
    rendered report) flags estimates whose 95% interval still contains
    their threshold -- "verdict not statistically resolved".
    """

    def __init__(
        self,
        *,
        tracer: Tracer | None = None,
        target_half_width: float = 0.02,
        min_trials: int = 30,
        confidence: float = 0.95,
        thresholds: Mapping[str, float] | None = None,
    ) -> None:
        if target_half_width <= 0:
            raise ValueError(
                f"target_half_width must be > 0, got {target_half_width}"
            )
        self._tracer = tracer
        self.target_half_width = target_half_width
        self.min_trials = min_trials
        self.confidence = confidence
        self.thresholds = dict(thresholds or {})
        self._accumulators: dict[
            str, WelfordAccumulator | WilsonAccumulator
        ] = {}
        self.converged_at: dict[str, int] = {}

    # The subscriber protocol: called with every TraceRecord.
    def __call__(self, record: TraceRecord) -> None:
        if record.name != "trial.result":
            return
        attrs = record.attrs
        name = attrs.get("estimate")
        value = attrs.get("value")
        if name is None or not isinstance(value, (int, float)):
            return
        self.observe(str(name), float(value), binary=bool(attrs.get("binary")))

    def observe(self, name: str, value: float, *, binary: bool = False) -> None:
        """Fold one trial result (the direct, non-tracer entry point)."""
        acc = self._accumulators.get(name)
        if acc is None:
            acc = WilsonAccumulator() if binary else WelfordAccumulator()
            self._accumulators[name] = acc
        acc.add(bool(value) if isinstance(acc, WilsonAccumulator) else value)
        if name in self.converged_at:
            return
        stats = acc.stats(name, self.confidence)
        if stats.n >= self.min_trials and (
            stats.half_width <= self.target_half_width
        ):
            self.converged_at[name] = stats.n
            if self._tracer is not None and self._tracer.enabled:
                self._tracer.event(
                    "estimate.converged",
                    estimate=name,
                    n=stats.n,
                    value=round(stats.value, 9),
                    half_width=round(stats.half_width, 9),
                    target=self.target_half_width,
                )

    # -- reporting --------------------------------------------------------

    @property
    def names(self) -> list[str]:
        return sorted(self._accumulators)

    def stats(self, name: str) -> EstimateStats:
        """The current snapshot of one estimate (KeyError if unknown)."""
        return self._accumulators[name].stats(name, self.confidence)

    def estimates(self) -> dict[str, EstimateStats]:
        """Snapshots of every estimate, keyed by name."""
        return {name: self.stats(name) for name in self.names}

    def unresolved(self) -> list[str]:
        """Estimate names whose threshold lies inside the 95% interval."""
        out = []
        for name, threshold in sorted(self.thresholds.items()):
            if name in self._accumulators and not self.stats(name).resolved(
                threshold
            ):
                out.append(name)
        return out

    def to_dict(self) -> dict:
        """JSON view: per-estimate stats + convergence/resolution flags."""
        estimates = {}
        for name, stats in self.estimates().items():
            entry = stats.to_dict()
            entry["converged_at"] = self.converged_at.get(name)
            if name in self.thresholds:
                entry["threshold"] = self.thresholds[name]
                entry["resolved"] = stats.resolved(self.thresholds[name])
            estimates[name] = entry
        return {
            "target_half_width": self.target_half_width,
            "confidence": self.confidence,
            "estimates": estimates,
            "unresolved": self.unresolved(),
        }

    def render(self) -> str:
        """The human-readable convergence table ``repro trace`` prints."""
        if not self._accumulators:
            return "convergence: no estimates observed"
        lines = [
            f"convergence ({self.confidence:.0%} CIs, target half-width "
            f"{self.target_half_width:g}):"
        ]
        for name, stats in self.estimates().items():
            converged = self.converged_at.get(name)
            status = (
                f"converged @ n={converged}" if converged is not None
                else "not converged"
            )
            half = (
                "inf" if math.isinf(stats.half_width)
                else f"{stats.half_width:.4f}"
            )
            line = (
                f"  {name}: {stats.value:.4f} "
                f"[{stats.low:.4f}, {stats.high:.4f}] "
                f"(n={stats.n}, +/-{half}, {status})"
            )
            threshold = self.thresholds.get(name)
            if threshold is not None and not stats.resolved(threshold):
                line += (
                    f"  ** verdict not statistically resolved: threshold "
                    f"{threshold:g} inside the interval **"
                )
            lines.append(line)
        return "\n".join(lines)


def attach_estimates(
    metrics: dict,
    entries: Mapping[str, EstimateStats],
    thresholds: Mapping[str, float] | None = None,
) -> dict:
    """Merge estimate snapshots into ``ExperimentResult.metrics``.

    Writes ``metrics["estimates"][name] = {kind, n, value, ci95, ...}``
    (plus ``threshold``/``resolved`` when a decision boundary is
    known), and returns the mutated dict.  Keys are sorted for stable
    flat-metric output.
    """
    thresholds = dict(thresholds or {})
    block = metrics.setdefault("estimates", {})
    for name in sorted(entries):
        entry = entries[name].to_dict()
        if name in thresholds:
            entry["threshold"] = thresholds[name]
            entry["resolved"] = entries[name].resolved(thresholds[name])
        block[name] = entry
    return metrics
