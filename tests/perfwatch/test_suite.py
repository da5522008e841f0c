"""The curated bench suite: timing protocol, payloads, registry rows."""

import json
import os

import pytest

from repro.obs import load_bench_dir, write_bench_json
from repro.obs.registry import RunRegistry
from repro.perfwatch import (
    SUITES,
    environment_fingerprint,
    run_bench,
    run_suite,
    suite_experiments,
)


class TestSuiteDefinition:
    def test_quick_tier_is_curated_and_nonempty(self):
        quick = suite_experiments("quick")
        assert len(quick) >= 5, "acceptance: quick must emit >= 5 rows"
        # The slowest Monte-Carlo experiments are where a regression
        # shows; closed-form ones sit under the trend gate's noise floor.
        assert {"E-GUESS", "E-MEM", "E-BUDGET"} <= set(quick)
        assert not {"T1", "E-BOUND"} & set(quick)

    def test_full_tier_is_the_whole_inventory(self):
        from repro.experiments import experiment_ids

        assert suite_experiments("full") == experiment_ids()

    def test_quick_is_a_subset_of_full(self):
        assert set(suite_experiments("quick")) <= set(
            suite_experiments("full")
        )

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError, match="unknown suite"):
            suite_experiments("nightly")

    def test_suites_registry_shape(self):
        assert set(SUITES) == {"quick", "full"}


class TestEnvironmentFingerprint:
    def test_fingerprint_fields(self):
        stamp = environment_fingerprint()
        for key in ("git_sha", "python", "platform", "cpu_count", "jobs"):
            assert key in stamp
        assert stamp["jobs"] >= 1

    def test_jobs_label_respected(self):
        assert environment_fingerprint(jobs=3)["jobs"] == 3

    def test_fingerprint_is_json_serializable(self):
        json.dumps(environment_fingerprint())


class TestRunBench:
    def test_best_of_k_and_counters(self):
        outcome = run_bench("T1", warmup=0, repeats=3)
        r = outcome.result
        assert len(outcome.repeats_s) == 3
        assert r.wall_s == min(outcome.repeats_s)
        assert r.mean_s == pytest.approx(
            sum(outcome.repeats_s) / 3
        )
        assert r.passed is True
        assert r.counters, "the traced run must yield counters"
        assert r.ts_utc, "measurement must be timestamped at source"

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench("T1", repeats=0)
        with pytest.raises(ValueError, match="warmup"):
            run_bench("T1", warmup=-1)

    def test_payload_is_loadable_by_bench_dir(self, tmp_path):
        """BENCH_*.json from the suite must feed the existing
        bench-compare gate unchanged."""
        outcome = run_bench("T1", warmup=0, repeats=1)
        write_bench_json(outcome.bench_payload(), str(tmp_path))
        entries = load_bench_dir(str(tmp_path))
        assert "T1" in entries
        assert entries["T1"].counters == outcome.result.counters
        assert entries["T1"].wall_s == pytest.approx(
            outcome.result.wall_s
        )
        assert entries["T1"].passed is True

    def test_payload_carries_fingerprint_and_timing(self):
        outcome = run_bench("T1", warmup=1, repeats=2)
        payload = outcome.bench_payload()
        assert payload["fingerprint"]["jobs"] >= 1
        assert payload["timing"]["warmup"] == 1
        assert payload["timing"]["repeats"] == 2
        assert payload["timing"]["best_s"] == payload["duration_s"]
        json.dumps(payload)

    def test_counters_are_deterministic_across_benches(self):
        a = run_bench("T1", warmup=0, repeats=1)
        b = run_bench("T1", warmup=0, repeats=1)
        assert a.result.counters == b.result.counters


class TestRunSuite:
    def test_subset_run_records_and_reports(self, tmp_path):
        lines = []
        outcomes = run_suite(
            "quick",
            warmup=0,
            repeats=1,
            experiments=["E-ENC-A", "E-RAM"],
            progress=lines.append,
        )
        # Tier order, not argument order.
        assert [o.result.experiment_id for o in outcomes] == [
            "E-RAM", "E-ENC-A",
        ]
        assert len(lines) == 2
        assert "E-RAM" in lines[0]
        # All rows share one environment fingerprint probe.
        assert (
            outcomes[0].result.fingerprint
            == outcomes[1].result.fingerprint
        )

    def test_subset_outside_tier_rejected(self):
        with pytest.raises(KeyError, match="not in the 'quick' suite"):
            run_suite("quick", experiments=["T1"])

    def test_registry_roundtrip(self, tmp_path):
        outcomes = run_suite(
            "quick", warmup=0, repeats=1, experiments=["E-ENC-A"]
        )
        path = str(tmp_path / "runs.db")
        with RunRegistry.open(path) as registry:
            for outcome in outcomes:
                registry.record_bench(outcome.result)
            assert registry.bench_count() == 1
            (row,) = registry.bench_results("E-ENC-A")
            assert row.wall_s == pytest.approx(
                outcomes[0].result.wall_s
            )
            assert row.fingerprint == outcomes[0].result.fingerprint
            assert row.counters == outcomes[0].result.counters


class TestDeterminismExclusion:
    def test_bench_never_pollutes_the_ambient_trace(self):
        """Acceptance: perfwatch active during a traced run must not
        add records to the ambient stream (trace-diff stays clean)."""
        from repro.obs import Tracer, use_tracer

        captured = []
        tracer = Tracer(keep_records=False)
        tracer.subscribe(captured.append)
        with use_tracer(tracer):
            before = len(captured)
            run_bench("T1", warmup=0, repeats=1)
            after = len(captured)
        # The bench's own runs went to a private tracer; the ambient
        # stream saw nothing. (Experiments read get_tracer() at their
        # own run time -- run_bench runs them untraced or under its
        # private tracer, never the ambient one.)
        assert after == before
