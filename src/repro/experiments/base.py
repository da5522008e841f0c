"""Experiment registry and result container."""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.tables import format_table
from repro.obs.tracer import get_tracer

__all__ = [
    "TableData",
    "ExperimentResult",
    "register",
    "run_experiment",
    "get_experiment",
    "experiment_ids",
    "experiment_info",
]


@dataclass(frozen=True)
class TableData:
    """One printed table: what the paper 'reports', regenerated."""

    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def render(self) -> str:
        """The ASCII rendering ``repro run`` prints."""
        return format_table(self.headers, self.rows, title=self.title)


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    ``metrics`` is the observability side-channel: ``run_experiment``
    always records ``duration_s``; when run under ``repro trace`` the
    aggregated :class:`~repro.obs.metrics.TraceMetrics` view is merged
    in under ``"trace"``.
    """

    experiment_id: str
    title: str
    paper_claim: str
    tables: list[TableData] = field(default_factory=list)
    summary: str = ""
    passed: bool = True
    metrics: dict = field(default_factory=dict)

    def render(self) -> str:
        """Full human-readable report."""
        parts = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper claim : {self.paper_claim}",
        ]
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        parts.append("")
        parts.append(f"measured    : {self.summary}")
        parts.append(f"shape match : {'YES' if self.passed else 'NO'}")
        return "\n".join(parts)

    def flat_metrics(self) -> dict:
        """``metrics`` flattened to sorted dotted keys.

        The stable ``layer.metric[.stat]`` namespace shared with
        :meth:`repro.obs.TraceMetrics.to_flat_dict` -- e.g.
        ``duration_s``, ``trace.mpc.rounds``,
        ``trace.mpc.round_latency_s.mean`` -- so downstream tooling can
        index one flat mapping instead of walking the nested tree.
        """
        from repro.obs.metrics import flatten_dotted

        return flatten_dotted(self.metrics)

    def to_dict(self) -> dict:
        """A JSON-serializable view (for downstream plotting/automation)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "summary": self.summary,
            "passed": self.passed,
            "metrics": self.metrics,
            "tables": [
                {
                    "title": t.title,
                    "headers": list(t.headers),
                    "rows": [[str(v) for v in row] for row in t.rows],
                }
                for t in self.tables
            ],
        }


_REGISTRY: dict[str, Callable[[str], ExperimentResult]] = {}


def register(experiment_id: str):
    """Class-level decorator registering ``run(scale) -> ExperimentResult``."""

    def wrap(fn: Callable[[str], ExperimentResult]):
        if experiment_id in _REGISTRY:
            raise ValueError(f"duplicate experiment id {experiment_id}")
        _REGISTRY[experiment_id] = fn
        return fn

    return wrap


def experiment_ids() -> list[str]:
    """All registered experiment ids, sorted."""
    return sorted(_REGISTRY)


def get_experiment(experiment_id: str) -> Callable[[str], ExperimentResult]:
    """The driver for one id."""
    if experiment_id not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {experiment_ids()}"
        )
    return _REGISTRY[experiment_id]


#: Modules whose source legitimately mentions ``map_trials`` without
#: the caller being trial-parallel: the pool itself, and this module
#: (the detector's own source).
_MAP_TRIALS_EXEMPT = ("repro.parallel", __name__)


def _module_uses_map_trials(module, _depth: int = 0) -> bool:
    """Does ``module`` (or a ``repro.*`` module it imports) call
    :func:`repro.parallel.map_trials`?  Source-level detection, one
    import level deep -- enough to see through the protocol modules the
    experiments delegate their trial loops to."""
    if module is None or module.__name__.startswith(_MAP_TRIALS_EXEMPT):
        return False
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        return False
    if "map_trials" in source:
        return True
    if _depth >= 1:
        return False
    seen = set()
    for value in vars(module).values():
        dep = inspect.getmodule(value)
        if (
            dep is not None
            and dep is not module
            and dep.__name__ not in seen
            and dep.__name__.startswith("repro.")
        ):
            seen.add(dep.__name__)
            if _module_uses_map_trials(dep, _depth + 1):
                return True
    return False


def _module_cost_models(module) -> list[str]:
    """Which cost models the driver's runs announce, if traced.

    Source-level detection like :func:`_module_uses_map_trials`, but
    deliberately restricted to the driver module's *own* source: the
    runner names (``run_chain``, ``run_pipeline``, ...) only announce a
    model when the driver actually calls them, and following imports
    would flag protocol modules an experiment merely shares a helper
    with.
    """
    from repro.costmodel.models import runner_model_map

    if module is None:
        return []
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        return []
    found: set[str] = set()
    for runner, models in runner_model_map().items():
        if runner in source:
            found.update(models)
    return sorted(found)


def experiment_info(experiment_id: str) -> dict:
    """One inventory row: description + parallelization, for ``repro list``.

    ``description`` is the first line of the driver module's docstring
    (falling back to the driver function's); ``trial_parallel`` reports
    whether the experiment fans its Monte-Carlo trials out through
    :func:`repro.parallel.map_trials`, detected from the driver
    module's source following one level of ``repro.*`` imports;
    ``cost_models`` lists the symbolic cost models the driver's runs
    announce to :class:`repro.costmodel.CostOracle` (empty = no cost
    coverage; see ``repro cost check``).
    """
    driver = get_experiment(experiment_id)
    module = inspect.getmodule(driver)
    doc = (inspect.getdoc(module) or inspect.getdoc(driver) or "").strip()
    description = doc.splitlines()[0].strip() if doc else ""
    return {
        "experiment_id": experiment_id,
        "description": description,
        "trial_parallel": _module_uses_map_trials(module),
        "cost_models": _module_cost_models(module),
    }


def run_experiment(experiment_id: str, scale: str = "quick") -> ExperimentResult:
    """Run one experiment at ``scale`` in {'quick', 'full'}.

    The run is wrapped in an ``experiment`` trace span (a no-op under
    the default null tracer) and its wall-clock duration is recorded in
    ``result.metrics["duration_s"]``.
    """
    if scale not in ("quick", "full"):
        raise ValueError(f"scale must be 'quick' or 'full', got {scale!r}")
    driver = get_experiment(experiment_id)
    with get_tracer().span(
        "experiment", experiment_id=experiment_id, scale=scale
    ) as span_attrs:
        start = time.perf_counter()
        result = driver(scale)
        # Verdicts computed with numpy comparisons arrive as np.bool_,
        # which json.dumps rejects; normalize at the single choke point.
        result.passed = bool(result.passed)
        result.metrics["duration_s"] = time.perf_counter() - start
        span_attrs["passed"] = result.passed
    return result
