"""The --jobs determinism contract: a parallel run is bit-identical to a
serial one -- tables, verdicts, summaries, and model-level trace
counters.  (CI enforces the same property end-to-end via ``repro
trace-diff`` on real trace files; these tests pin it at the API layer.)
"""

import pytest

from repro.experiments import run_experiment
from repro.functions import LineParams
from repro.obs import TraceMetrics, Tracer, counters_of, use_tracer
from repro.parallel import use_jobs
from repro.protocols import estimate_line_skip_probability


def _comparable(result) -> dict:
    """An ExperimentResult's deterministic projection (no wall-clock)."""
    d = result.to_dict()
    d["metrics"] = {
        k: v for k, v in d["metrics"].items() if k != "duration_s"
    }
    return d


# Cheap ported experiments: every migrated trial loop gets covered
# without paying for the full sweep grid.
CHEAP_EXPERIMENTS = ["E-ENC-A", "E-ENC-L", "E-BEST", "E-DECAY"]


class TestExperimentEquivalence:
    @pytest.mark.parametrize("experiment_id", CHEAP_EXPERIMENTS)
    def test_serial_vs_parallel_results(self, experiment_id):
        with use_jobs(1):
            serial = _comparable(run_experiment(experiment_id, scale="quick"))
        with use_jobs(2):
            parallel = _comparable(run_experiment(experiment_id, scale="quick"))
        assert serial == parallel

    def test_serial_vs_parallel_counters(self):
        """Model-level counters (the counter fingerprint) match too."""
        fingerprints = []
        for jobs in (1, 2):
            tracer = Tracer()
            with use_tracer(tracer), use_jobs(jobs):
                run_experiment("E-ENC-A", scale="quick")
            fingerprints.append(
                counters_of(TraceMetrics.from_records(tracer.records))
            )
        assert fingerprints[0] == fingerprints[1]


class TestHelperEquivalence:
    def test_line_skip_probability(self):
        params = LineParams(n=24, u=4, v=4, w=16)
        reports = [
            estimate_line_skip_probability(
                params, trials=40, skip_at=5, seed=1, jobs=jobs
            )
            for jobs in (1, 2)
        ]
        assert reports[0] == reports[1]

    def test_explicit_jobs_beats_ambient(self):
        params = LineParams(n=24, u=4, v=4, w=16)
        with use_jobs(2):
            ambient = estimate_line_skip_probability(
                params, trials=40, skip_at=5, seed=1
            )
        explicit = estimate_line_skip_probability(
            params, trials=40, skip_at=5, seed=1, jobs=1
        )
        assert ambient == explicit
