"""Every record a traced run emits is declared in :mod:`repro.obs.schema`.

The schema is the one definition of what ``repro trace-diff`` compares,
so a record name or attr it does not declare is a gap in that
definition.  :func:`undeclared` is the check.  The quick-scale suite
below produces every declared name but four; the tests that produce
those four apply the same check where they do
(``tests/obs/test_trace_integration.py``: ``ram.batch``;
``tests/obs/test_monitor.py``: ``monitor.violation``;
``tests/costmodel/test_oracle.py``: ``cost.mismatch``;
``tests/telemetry/test_heartbeat.py``: ``telemetry.stall``).
"""

import pytest

from repro.costmodel import CostOracle, available as cost_available
from repro.experiments import experiment_ids, run_experiment
from repro.obs import (
    ConvergenceMonitor,
    InvariantMonitor,
    TraceRecord,
    Tracer,
    use_tracer,
)
from repro.obs.schema import HOST_NAMES, RECORDS, model_attrs, volatile_metric
from repro.telemetry import (
    OverheadMeter,
    ResourceSampler,
    StallDetector,
    use_telemetry,
)

#: Declared names a quick-scale run does not produce; each is checked
#: by the test that produces it (see the module docstring).
RARE_NAMES = {"ram.batch", "monitor.violation", "cost.mismatch",
              "telemetry.stall"}


def undeclared(records) -> list[str]:
    """One line per record name, kind or attr the schema does not declare."""
    found = set()
    for record in records:
        spec = RECORDS.get(record.name)
        if spec is None:
            found.add(f"undeclared name {record.name!r}")
        elif record.kind != spec.kind:
            found.add(f"{record.name}: kind {record.kind!r}, "
                      f"declared {spec.kind!r}")
        else:
            for attr in set(record.attrs) - spec.attrs:
                found.add(f"{record.name}: undeclared attr {attr!r}")
    return sorted(found)


def traced_quick(experiment_id: str) -> tuple:
    """One quick-scale run observed as ``repro trace --telemetry`` does:
    invariant and convergence monitors, the cost oracle, the stall
    detector, the resource sampler and the closing overhead event."""
    tracer = Tracer()
    for subscriber in (
        InvariantMonitor(tracer=tracer),
        ConvergenceMonitor(tracer=tracer),
        CostOracle(tracer=tracer) if cost_available() else None,
        StallDetector(tracer=tracer),
    ):
        if subscriber is not None:
            tracer.subscribe(subscriber)
    meter = OverheadMeter()
    meter.attach(tracer)
    with use_telemetry(True), use_tracer(tracer), ResourceSampler(tracer):
        result = run_experiment(experiment_id, scale="quick")
    tracer.event(
        "telemetry.overhead", **meter.summary(result.metrics["duration_s"])
    )
    return tracer.records


@pytest.fixture(scope="module")
def quick_suite():
    """experiment id -> (names emitted, undeclared lines)."""
    out = {}
    for experiment_id in experiment_ids():
        records = traced_quick(experiment_id)
        out[experiment_id] = ({r.name for r in records}, undeclared(records))
    return out


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_every_record_is_declared(quick_suite, experiment_id):
    assert quick_suite[experiment_id][1] == []


def test_quick_suite_emits_every_declared_name_but_the_rare_ones(
    quick_suite,
):
    emitted = set().union(*(names for names, _ in quick_suite.values()))
    assert set(RECORDS) - emitted == RARE_NAMES


def test_undeclared_names_kinds_and_attrs_are_caught():
    records = [
        TraceRecord("event", "oracle.query", 0.0, None,
                    {"key": "a", "colour": 1}),
        TraceRecord("event", "oracle.answer", 0.0, None, {}),
        TraceRecord("event", "mpc.round", 0.0, None, {"round": 0}),
        TraceRecord("event", "mpc.machine_step", 0.0, None,
                    {"round": 0, "dur": 0.1, "trial": 3, "worker": 1}),
    ]
    assert undeclared(records) == [
        "mpc.round: kind 'event', declared 'span'",
        "oracle.query: undeclared attr 'colour'",
        "undeclared name 'oracle.answer'",
    ]


class TestComparedAttrs:
    def test_volatile_attrs_are_not_model_attrs(self):
        step = TraceRecord("event", "mpc.machine_step", 0.0, None,
                           {"round": 1, "dur": 0.5, "worker": 3, "trial": 2})
        assert model_attrs(step) == {"round": 1, "trial": 2}

    def test_undeclared_name_keeps_every_attr(self):
        record = TraceRecord("event", "x.custom", 0.0, None,
                             {"dur": 0.5, "worker": 3})
        assert model_attrs(record) == {"dur": 0.5, "worker": 3}

    def test_undeclared_attr_is_model_data(self):
        query = TraceRecord("event", "oracle.query", 0.0, None,
                            {"key": "a", "colour": 1})
        assert model_attrs(query) == {"key": "a", "colour": 1}

    def test_host_records_are_the_telemetry_names(self):
        assert HOST_NAMES == {
            "telemetry.sample", "telemetry.heartbeat", "telemetry.stall",
            "telemetry.overhead",
        }
        assert not any(RECORDS[name].model for name in HOST_NAMES)

    def test_volatile_metric_keys(self):
        for key in ("duration_s", "trace.mpc.round_latency_s.mean",
                    "cost.wall_s", "experiments.E-LINE",
                    "trace.experiments.E-LINE", "telemetry.rss_peak_kb"):
            assert volatile_metric(key), key
        for key in ("mpc.rounds", "trace.mpc.round_messages.sum",
                    "cost.checks"):
            assert not volatile_metric(key), key
