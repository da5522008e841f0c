"""Worker-side trace capture and parent-side replay (the --jobs N
observability contract)."""

import pytest

from repro.experiments import run_experiment
from repro.obs import (
    TraceMetrics,
    Tracer,
    counters_of,
    explain_divergence,
    get_tracer,
    use_tracer,
)
from repro.parallel import map_trials, use_jobs


def _traced_trial(seed):
    """A trial that behaves like an experiment: spans + events."""
    tracer = get_tracer()
    with tracer.span("mpc.round", round=0, seed=seed):
        tracer.event("mpc.message", src=0, dst=1, bits=seed % 7)
    tracer.event("oracle.query", machine=0)
    return seed % 5


def _silent_trial(seed):
    return seed + 1


def _records_by_name(records):
    out = {}
    for record in records:
        out.setdefault(record.name, []).append(record)
    return out


class TestCaptureAndReplay:
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_trial_records_reach_the_ambient_tracer(self, jobs):
        tracer = Tracer()
        with use_tracer(tracer):
            results = map_trials(_traced_trial, range(6), jobs=jobs)
        assert results == [s % 5 for s in range(6)]
        by_name = _records_by_name(tracer.records)
        assert len(by_name["oracle.query"]) == 6
        assert len(by_name["mpc.message"]) == 6

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_replayed_records_tagged_worker_and_trial(self, jobs):
        tracer = Tracer()
        with use_tracer(tracer):
            map_trials(_traced_trial, range(6), jobs=jobs, chunk_size=2)
        for record in tracer.records:
            assert "worker" in record.attrs
            assert "trial" in record.attrs
        # Tags are the deterministic chunk/trial indices, not pids.
        trials = {r.attrs["trial"] for r in tracer.records}
        workers = {r.attrs["worker"] for r in tracer.records}
        assert trials == set(range(6))
        if jobs == 1:
            assert workers == {0}  # serial: one inline chunk
        else:
            assert workers == {0, 1, 2}  # 6 trials / chunk_size 2

    def test_original_attrs_survive_replay(self):
        tracer = Tracer()
        with use_tracer(tracer):
            map_trials(_traced_trial, [11], jobs=1)
        (msg,) = [r for r in tracer.records if r.name == "mpc.message"]
        assert msg.attrs["bits"] == 11 % 7
        assert msg.attrs["src"] == 0

    def test_counters_identical_serial_vs_parallel(self):
        """The counter fingerprint cannot depend on --jobs."""
        fingerprints = []
        for jobs in (1, 3):
            tracer = Tracer()
            with use_tracer(tracer):
                map_trials(_traced_trial, range(10), jobs=jobs)
            fingerprints.append(
                counters_of(TraceMetrics.from_records(tracer.records))
            )
        assert fingerprints[0] == fingerprints[1]

    def test_replay_order_is_trial_order(self):
        tracer = Tracer()
        with use_tracer(tracer):
            map_trials(_traced_trial, range(8), jobs=4, chunk_size=1)
        queries = [r for r in tracer.records if r.name == "oracle.query"]
        assert [r.attrs["trial"] for r in queries] == list(range(8))

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_no_ambient_tracer_means_no_capture_overhead(self, jobs):
        # With tracing disabled nothing is recorded anywhere.
        assert map_trials(_silent_trial, range(5), jobs=jobs) == list(
            range(1, 6)
        )
        assert get_tracer().enabled is False

    def test_failed_trial_still_replays_its_records(self):
        tracer = Tracer()
        with use_tracer(tracer), pytest.raises(ValueError):
            map_trials(_trace_then_fail, [0, 1], jobs=1)
        # Trial 0 succeeded and trial 1 traced before failing; both streams
        # reached the parent.
        trials = {r.attrs["trial"] for r in tracer.records}
        assert trials == {0, 1}


class TestExperimentTraces:
    def test_serial_and_jobs_2_compare_clean_record_by_record(self):
        """Only ``worker`` differs between the two streams, and the schema
        declares it volatile: it changes with ``--jobs N`` by design."""
        traces = []
        for jobs in (1, 2):
            tracer = Tracer()
            with use_tracer(tracer), use_jobs(jobs):
                run_experiment("E-ENC-A", scale="quick")
            traces.append(tracer.records)
        serial, parallel = traces
        assert {r.attrs.get("worker") for r in parallel} >= {0, 1}
        assert explain_divergence(serial, parallel) is None
        assert explain_divergence(parallel, serial) is None


def _trace_then_fail(seed):
    get_tracer().event("oracle.query", machine=0)
    if seed == 1:
        raise ValueError("after tracing")
    return seed
