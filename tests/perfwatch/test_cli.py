"""CLI surface of the performance observatory: bench run/trend, --compare."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.registry import RunRegistry


def _bench_run(tmp_path, *extra, experiment="E-ENC-A"):
    """A minimal, hermetic `repro bench run` argv."""
    return [
        "bench", "run",
        "-e", experiment,
        "--warmup", "0",
        "--repeats", "1",
        "--out", str(tmp_path / "bench-out"),
        "--registry", str(tmp_path / "runs.db"),
        "--budgets", str(tmp_path / "no-budgets.json"),
        *extra,
    ]


class TestBenchRunCli:
    def test_writes_bench_json_with_fingerprint(self, tmp_path, capsys):
        assert main(_bench_run(tmp_path)) == 0
        payload = json.loads(
            (tmp_path / "bench-out" / "BENCH_E-ENC-A.json").read_text()
        )
        assert payload["experiment_id"] == "E-ENC-A"
        assert payload["passed"] is True
        assert payload["counters"]
        assert payload["fingerprint"]["jobs"] >= 1
        assert payload["timing"]["repeats_s"]
        assert "1 benchmark(s)" in capsys.readouterr().err

    def test_records_registry_row(self, tmp_path):
        assert main(_bench_run(tmp_path)) == 0
        with RunRegistry.open(str(tmp_path / "runs.db")) as registry:
            (row,) = registry.bench_results()
        assert row.experiment_id == "E-ENC-A"
        assert row.wall_s > 0
        assert row.ts_utc

    def test_no_record_skips_registry(self, tmp_path):
        assert main(_bench_run(tmp_path, "--no-record")) == 0
        assert not (tmp_path / "runs.db").exists()

    def test_history_ledger_appends(self, tmp_path, capsys):
        hist = str(tmp_path / "hist.json")
        assert main(_bench_run(tmp_path, "--history", hist)) == 0
        assert main(_bench_run(tmp_path, "--history", hist)) == 0
        rows = json.loads((tmp_path / "hist.json").read_text())["rows"]
        assert len(rows) == 2
        assert "history" in capsys.readouterr().err

    def test_env_var_names_out_dir(self, tmp_path, monkeypatch):
        out = tmp_path / "from-env"
        monkeypatch.setenv("REPRO_BENCH_JSON", str(out))
        argv = _bench_run(tmp_path)
        del argv[argv.index("--out"):argv.index("--out") + 2]
        assert main(argv) == 0
        assert (out / "BENCH_E-ENC-A.json").exists()

    def test_json_summary_schema(self, tmp_path, capsys):
        assert main(_bench_run(tmp_path, "--json")) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "quick"
        (result,) = payload["results"]
        assert result["experiment_id"] == "E-ENC-A"
        assert payload["budget_violations"] == []

    def test_unknown_experiment_exits_2(self, tmp_path, capsys):
        assert main(_bench_run(tmp_path, experiment="E-NOPE")) == 2
        assert "E-NOPE" in capsys.readouterr().err

    def test_budget_violation_is_advisory(self, tmp_path, capsys):
        budgets = tmp_path / "tight.json"
        budgets.write_text(json.dumps(
            {"budgets": {"*": {"wall_s": 1e-9}}}
        ))
        argv = _bench_run(tmp_path)
        argv[argv.index("--budgets") + 1] = str(budgets)
        assert main(argv) == 0  # advisory: never fails the run
        out = capsys.readouterr()
        assert "[advisory]" in out.out
        assert "budget violation" in out.err


class TestBenchTrendCli:
    def _history(self, tmp_path, values, experiment="T1"):
        path = tmp_path / "hist.json"
        rows = [
            {"experiment_id": experiment, "wall_s": v, "ts_utc": f"t{i}"}
            for i, v in enumerate(values)
        ]
        path.write_text(json.dumps({"version": 1, "rows": rows}))
        return str(path)

    def test_clean_history_exits_0(self, tmp_path, capsys):
        hist = self._history(tmp_path, [0.10, 0.11, 0.10, 0.10])
        assert main([
            "bench", "trend", "--source", "history", "--history", hist,
        ]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "ok" in out

    def test_injected_regression_exits_1(self, tmp_path, capsys):
        hist = self._history(tmp_path, [0.10, 0.11, 0.10, 10.0])
        assert main([
            "bench", "trend", "--source", "history", "--history", hist,
        ]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_registry_source(self, tmp_path, capsys):
        assert main(_bench_run(tmp_path)) == 0
        capsys.readouterr()
        assert main([
            "bench", "trend", "--source", "registry",
            "--registry", str(tmp_path / "runs.db"),
        ]) == 0
        assert "E-ENC-A" in capsys.readouterr().out

    def test_missing_registry_not_created(self, tmp_path, capsys):
        hist = self._history(tmp_path, [0.1, 0.1, 0.1])
        db = tmp_path / "never-made.db"
        assert main([
            "bench", "trend", "--history", hist, "--registry", str(db),
        ]) == 0
        assert not db.exists()

    def test_experiment_filter(self, tmp_path, capsys):
        hist = self._history(tmp_path, [0.10, 0.11, 0.10, 10.0])
        assert main([
            "bench", "trend", "--source", "history", "--history", hist,
            "-e", "E-OTHER",
        ]) == 0

    def test_json_report(self, tmp_path, capsys):
        hist = self._history(tmp_path, [0.10, 0.11, 0.10, 10.0])
        assert main([
            "bench", "trend", "--source", "history", "--history", hist,
            "--json",
        ]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressed"] is True
        (series,) = payload["series"]
        assert series["experiment_id"] == "T1"

    def test_malformed_history_exits_2(self, tmp_path, capsys):
        path = tmp_path / "hist.json"
        path.write_text('"nope"')
        assert main([
            "bench", "trend", "--source", "history",
            "--history", str(path),
        ]) == 2


class TestProfileCompareCli:
    def _trace(self, path, spans):
        with open(path, "w") as fh:
            for name, start, dur in spans:
                fh.write(json.dumps(
                    {"kind": "span", "name": name, "ts": start, "dur": dur}
                ) + "\n")

    def test_compare_attributes_delta(self, tmp_path, capsys):
        pa = str(tmp_path / "a.jsonl")
        pb = str(tmp_path / "b.jsonl")
        self._trace(pa, [("mpc.round", 0.0, 1.0)])
        self._trace(pb, [("mpc.round", 0.0, 0.25)])
        assert main(["profile", "--compare", pa, pb]) == 0
        out = capsys.readouterr().out
        assert "mpc.round" in out
        assert "-0.750" in out

    def test_compare_json(self, tmp_path, capsys):
        pa = str(tmp_path / "a.jsonl")
        pb = str(tmp_path / "b.jsonl")
        self._trace(pa, [("work", 0.0, 1.0)])
        self._trace(pb, [("work", 0.0, 2.0)])
        assert main(["profile", "--compare", pa, pb, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_delta"] == pytest.approx(1.0)
        (delta,) = payload["spans"]
        assert delta["name"] == "work"

    def test_missing_trace_exits_2(self, tmp_path, capsys):
        pa = str(tmp_path / "a.jsonl")
        self._trace(pa, [("work", 0.0, 1.0)])
        assert main([
            "profile", "--compare", pa, str(tmp_path / "absent.jsonl"),
        ]) == 2
        assert "no such trace" in capsys.readouterr().err

    def test_profile_without_experiment_or_compare_exits_2(self, capsys):
        assert main(["profile"]) == 2
        assert "required" in capsys.readouterr().err
