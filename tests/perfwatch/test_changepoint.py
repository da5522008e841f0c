"""Changepoint gate edge cases, history ledger, source merging."""

import json

import pytest

from repro.obs.registry import BenchResult, RunRegistry
from repro.perfwatch import (
    BenchPoint,
    append_bench_history,
    load_bench_history,
    merge_points,
    points_from_history,
    points_from_registry,
)
from repro.perfwatch import bench_trend as run_trend  # avoid bench_* collection


def _points(values, experiment_id="E-LINE"):
    return [
        BenchPoint(experiment_id=experiment_id, wall_s=v, ts_utc=f"t{i}")
        for i, v in enumerate(values)
    ]


def _series(report, experiment_id="E-LINE"):
    (s,) = [s for s in report.series if s.experiment_id == experiment_id]
    return s


class TestGateEdgeCases:
    def test_history_shorter_than_window_still_gates(self):
        """4 points against window=8: the baseline is just smaller."""
        report = run_trend(_points([0.1, 0.1, 0.1, 10.0]), window=8)
        s = _series(report)
        assert s.regressed
        assert report.exit_code == 1

    def test_too_short_history_never_fires(self):
        """Fewer than 3 points: no baseline worth trusting."""
        report = run_trend(_points([0.1, 100.0]))
        s = _series(report)
        assert not s.regressed
        assert s.latest is None
        assert report.exit_code == 0

    def test_zero_variance_history_falls_back_to_relative_gate(self):
        """MAD == 0 would make any deviation infinitely significant;
        the z-term is skipped and the relative+absolute gate decides."""
        report = run_trend(_points([0.1] * 8 + [0.5]))
        s = _series(report)
        assert s.z is None
        assert s.regressed
        # And a tiny wiggle over a constant history does NOT fire.
        report = run_trend(_points([0.1] * 8 + [0.102]))
        assert not _series(report).regressed

    def test_single_outlier_in_history_does_not_poison_baseline(self):
        """A rolling MEAN would be dragged up by the 5.0 outlier; the
        median baseline stays at 0.1 and still catches the regression."""
        values = [0.1, 0.1, 5.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.4]
        report = run_trend(_points(values), window=8, z_threshold=4.0)
        s = _series(report)
        assert s.baseline == pytest.approx(0.1)
        assert s.regressed

    def test_spike_vs_drift_classification(self):
        spike = _series(run_trend(
            _points([0.1] * 8 + [1.0]), window=8
        ))
        assert spike.kind == "spike"
        drift = _series(run_trend(
            _points([0.1] * 6 + [1.0, 1.05, 1.1]), window=8
        ))
        assert drift.regressed
        assert drift.kind == "drift"

    def test_noise_floor_suppresses_sub_millisecond_jitter(self):
        """A 3x blowup of a 0.2ms run is scheduler noise: under the
        default 5ms floor the gate must stay quiet."""
        report = run_trend(_points([0.0002] * 8 + [0.0006]))
        assert not _series(report).regressed
        # The same relative blowup at real magnitude fires.
        report = run_trend(_points([0.2] * 8 + [0.6]))
        assert _series(report).regressed

    def test_jittery_history_needs_the_z_term(self):
        """With a wide-but-noisy window, a latest point past the
        relative bar but within normal spread must not fire."""
        values = [0.10, 0.18, 0.09, 0.17, 0.11, 0.19, 0.10, 0.18, 0.20]
        report = run_trend(
            _points(values), window=8, threshold=0.3, min_delta=0.0
        )
        s = _series(report)
        assert s.z is not None and s.z < 4.0
        assert not s.regressed

    def test_improvement_never_fires(self):
        report = run_trend(_points([0.5] * 8 + [0.1]))
        assert not _series(report).regressed

    def test_experiments_are_separate_series(self):
        points = _points([0.1] * 8 + [1.0]) + _points(
            [0.05] * 9, experiment_id="E-RAM"
        )
        report = run_trend(points)
        assert _series(report).regressed
        assert not _series(report, experiment_id="E-RAM").regressed

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="window"):
            run_trend([], window=1)
        with pytest.raises(ValueError, match="threshold"):
            run_trend([], threshold=-0.1)
        with pytest.raises(ValueError, match="min_delta"):
            run_trend([], min_delta=-1)

    def test_report_renders_and_serializes(self):
        report = run_trend(_points([0.1] * 8 + [1.0]))
        text = "\n".join(report.render())
        assert "REGRESSED" in text
        assert "E-LINE" in text
        payload = report.to_dict()
        json.dumps(payload)
        assert payload["regressed"] is True


class TestHistoryLedger:
    def _result(self, wall_s, experiment_id="T1",
                ts="2026-08-09T00:00:00+00:00"):
        return BenchResult(
            experiment_id=experiment_id, wall_s=wall_s,
            ts_utc=ts, git_sha="abc123",
        )

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "hist.json")
        total = append_bench_history([self._result(0.5)], path)
        assert total == 1
        rows = load_bench_history(path)
        (point,) = points_from_history(rows)
        assert point.experiment_id == "T1"
        assert point.wall_s == 0.5
        assert point.git_sha == "abc123"

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_bench_history(str(tmp_path / "absent.json")) == []

    def test_append_accumulates(self, tmp_path):
        path = str(tmp_path / "hist.json")
        append_bench_history([self._result(0.5, ts="t1")], path)
        total = append_bench_history([self._result(0.6, ts="t2")], path)
        assert total == 2
        values = [p.wall_s for p in
                  points_from_history(load_bench_history(path))]
        assert values == [0.5, 0.6]

    def test_keep_last_prunes_per_series(self, tmp_path):
        path = str(tmp_path / "hist.json")
        rows = [self._result(i / 10, ts=f"t{i}") for i in range(5)]
        rows += [self._result(9.0, experiment_id="E-RAM", ts="tf")]
        append_bench_history(rows, path, keep_last=2)
        points = points_from_history(load_bench_history(path))
        t1_points = [p for p in points if p.experiment_id == "T1"]
        assert [p.wall_s for p in t1_points] == [0.3, 0.4]
        assert len([p for p in points if p.experiment_id == "E-RAM"]) == 1

    def test_non_numeric_rows_dropped(self):
        rows = [
            {"experiment_id": "T1", "wall_s": 0.5},
            {"experiment_id": "T1", "wall_s": "fast!"},
            {"experiment_id": "T1", "wall_s": None},
            {"experiment_id": "T1", "wall_s": True},
        ]
        assert len(points_from_history(rows)) == 1

    def test_malformed_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"just a string"')
        with pytest.raises(ValueError, match="expected a list or object"):
            load_bench_history(str(path))


class TestSourceMerging:
    def test_registry_points_chronological(self, tmp_path):
        path = str(tmp_path / "runs.db")
        with RunRegistry.open(path) as registry:
            for i, wall in enumerate((0.1, 0.2, 0.3)):
                registry.record_bench(BenchResult(
                    experiment_id="T1", wall_s=wall,
                    ts_utc=f"2026-08-09T00:00:0{i}+00:00",
                ))
            points = points_from_registry(registry)
        assert [p.wall_s for p in points] == [0.1, 0.2, 0.3]
        assert all(p.source == "registry" for p in points)

    def test_merge_dedups_the_same_measurement(self):
        """One bench run lands in both the ledger and the registry;
        merging must not double-count it."""
        a = BenchPoint("T1", 0.5, ts_utc="t0", source="history")
        b = BenchPoint("T1", 0.5, ts_utc="t0", source="registry")
        c = BenchPoint("T1", 0.6, ts_utc="t1", source="registry")
        merged = merge_points([a], [b, c])
        assert [p.wall_s for p in merged] == [0.5, 0.6]
        # First source wins the duplicate.
        assert merged[0].source == "history"

    def test_merge_keeps_distinct_measurements(self):
        a = BenchPoint("T1", 0.5, ts_utc="t0")
        b = BenchPoint("T1", 0.5, ts_utc="t1")  # same value, new run
        assert len(merge_points([a], [b])) == 2
