"""Declarative per-experiment performance budgets (advisory).

``benchmarks/budgets.json`` states, next to the benchmarks themselves,
how slow and how big each experiment is *allowed* to get::

    {
      "version": 1,
      "budgets": {
        "E-LINE": {"wall_s": 5.0},
        "*":      {"wall_s": 30.0, "rss_peak_kb": 2097152}
      }
    }

Lookup is most-specific-wins: ``"<experiment>"`` beats the ``"*"``
catch-all; an experiment matching no key has no budget.  Budget checks are **advisory** in exactly the
sense of :mod:`repro.obs.monitor` violations: they annotate a bench
run's report and can gate CI, but wall-clock and RSS never enter any
deterministic fingerprint -- a budget breach changes what a human
reads, never what a trace hashes to.

RSS caveat: ``rss_peak_kb`` is the process high-water mark (VmHWM),
which is monotone across a suite run; an RSS breach therefore means
"by the time this bench finished, the process had peaked above the
budget", which is the honest whole-suite reading.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Budget",
    "BudgetViolation",
    "check_budgets",
    "default_budgets_path",
    "load_budgets",
    "render_budget_violations",
]

_BUDGETS_VERSION = 1


def default_budgets_path() -> str:
    """``benchmarks/budgets.json`` relative to the working tree."""
    return os.path.join("benchmarks", "budgets.json")


@dataclass(frozen=True)
class Budget:
    """Limits for one budget key; ``None`` means unconstrained."""

    key: str
    wall_s: float | None = None
    rss_peak_kb: float | None = None

    def to_dict(self) -> dict:
        out: dict = {}
        if self.wall_s is not None:
            out["wall_s"] = self.wall_s
        if self.rss_peak_kb is not None:
            out["rss_peak_kb"] = self.rss_peak_kb
        return out


@dataclass(frozen=True)
class BudgetViolation:
    """One breached limit, monitor-violation style: what was observed,
    what the budget allowed, and which rule matched."""

    experiment_id: str
    metric: str  # "wall_s" | "rss_peak_kb"
    observed: float
    limit: float
    budget_key: str  # the rule that matched ("E-LINE", "*", ...)

    @property
    def ratio(self) -> float:
        return self.observed / self.limit if self.limit > 0 else float("inf")

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "metric": self.metric,
            "observed": self.observed,
            "limit": self.limit,
            "budget_key": self.budget_key,
            "ratio": self.ratio,
        }


def _coerce_limit(raw, *, key: str, metric: str) -> float | None:
    if raw is None:
        return None
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValueError(
            f"budget {key!r}: {metric} must be a number, got {raw!r}"
        )
    if raw <= 0:
        raise ValueError(
            f"budget {key!r}: {metric} must be positive, got {raw!r}"
        )
    return float(raw)


def load_budgets(path: str | None = None) -> dict[str, Budget]:
    """Parse a budgets file into ``{key: Budget}``.

    A missing file means "no budgets declared" (empty dict), so bench
    runs work in checkouts that have not adopted budgets.  Malformed
    entries raise -- a budget that silently fails to parse would gate
    nothing while appearing to.
    """
    path = path or default_budgets_path()
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"budgets {path!r}: expected an object")
    entries = payload.get("budgets", {})
    if not isinstance(entries, Mapping):
        raise ValueError(f"budgets {path!r}: 'budgets' is not an object")
    budgets: dict[str, Budget] = {}
    for key, spec in entries.items():
        if not isinstance(spec, Mapping):
            raise ValueError(
                f"budgets {path!r}: entry {key!r} is not an object"
            )
        unknown = set(spec) - {"wall_s", "rss_peak_kb"}
        if unknown:
            raise ValueError(
                f"budgets {path!r}: entry {key!r} has unknown "
                f"fields {sorted(unknown)}"
            )
        budgets[key] = Budget(
            key=key,
            wall_s=_coerce_limit(spec.get("wall_s"), key=key,
                                 metric="wall_s"),
            rss_peak_kb=_coerce_limit(spec.get("rss_peak_kb"), key=key,
                                      metric="rss_peak_kb"),
        )
    return budgets


def _budget_for(
    budgets: Mapping[str, Budget], experiment_id: str
) -> Budget | None:
    """Most-specific-wins lookup: the experiment, then ``*``."""
    for key in (experiment_id, "*"):
        budget = budgets.get(key)
        if budget is not None:
            return budget
    return None


def check_budgets(
    results: Iterable, budgets: Mapping[str, Budget]
) -> list[BudgetViolation]:
    """Check bench rows (:class:`~repro.obs.registry.BenchResult`)
    against the declared budgets; returns every breach."""
    violations: list[BudgetViolation] = []
    for result in results:
        budget = _budget_for(budgets, result.experiment_id)
        if budget is None:
            continue
        for metric, observed, limit in (
            ("wall_s", result.wall_s, budget.wall_s),
            ("rss_peak_kb", result.rss_peak_kb, budget.rss_peak_kb),
        ):
            if limit is None or observed is None:
                continue
            if observed > limit:
                violations.append(
                    BudgetViolation(
                        experiment_id=result.experiment_id,
                        metric=metric,
                        observed=float(observed),
                        limit=limit,
                        budget_key=budget.key,
                    )
                )
    return violations


def render_budget_violations(
    violations: Iterable[BudgetViolation],
) -> list[str]:
    """Human lines for a bench report's advisory budget section."""
    lines: list[str] = []
    for v in violations:
        if v.metric == "wall_s":
            detail = f"{v.observed:.3f}s > {v.limit:.3f}s"
        else:
            detail = f"{v.observed:.0f}kB > {v.limit:.0f}kB"
        lines.append(
            f"budget: {v.experiment_id} {v.metric} "
            f"{detail} ({v.ratio:.2f}x, rule {v.budget_key!r}) [advisory]"
        )
    return lines
