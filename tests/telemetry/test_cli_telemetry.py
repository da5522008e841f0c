"""CLI-level telemetry tests: flags, stalls, trace, runs list.

Everything here uses the cheapest trial-parallel experiment (E-ENC-A,
~0.1s at quick scale) or T1 (milliseconds) so the suite stays fast.
"""

import json

import pytest

from repro.cli import main
from repro.obs import RunRegistry, read_jsonl
from tests.obs.test_schema import undeclared

CHEAP_PAR = "E-ENC-A"


class TestRunTelemetry:
    def test_run_attaches_telemetry_summary(self, capsys):
        assert main(["run", CHEAP_PAR, "--telemetry", "--no-record",
                     "--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        tel = payload["metrics"]["telemetry"]
        assert tel["heartbeats"] > 0
        assert tel["stalls"] == 0
        assert tel["samples"] >= 1
        assert 0.0 <= tel["overhead_frac"] < 1.0
        assert tel["stragglers"]
        assert "telemetry:" in captured.err

    def test_run_without_flag_has_no_telemetry(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert main(["run", CHEAP_PAR, "--no-record", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" not in payload["metrics"]

    def test_env_var_with_no_telemetry_veto(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        assert main(["run", CHEAP_PAR, "--no-telemetry", "--no-record",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "telemetry" not in payload["metrics"]

    def test_telemetry_keeps_fingerprint(self, capsys):
        """Registry metrics must be byte-identical with telemetry on."""
        assert main(["run", CHEAP_PAR, "--json"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(["run", CHEAP_PAR, "--telemetry", "--jobs", "2",
                     "--json"]) == 0
        capsys.readouterr()
        with RunRegistry.open() as registry:
            plain, telemetered = registry.runs(CHEAP_PAR,
                                               newest_first=False)
        assert telemetered.metrics == plain.metrics
        assert telemetered.counters == plain.counters
        assert plain.rss_peak_kb is None and plain.overhead_frac is None
        assert telemetered.overhead_frac is not None


class TestStallControl:
    def test_strict_zero_deadline_exits_2(self, capsys):
        rc = main(["run", CHEAP_PAR, "--telemetry", "--strict-bounds",
                   "--stall-deadline", "0", "--no-record"])
        assert rc == 2
        assert "worker_stall" in capsys.readouterr().err

    def test_nonstrict_zero_deadline_counts_stalls(self, capsys):
        assert main(["run", CHEAP_PAR, "--telemetry", "--stall-deadline",
                     "0", "--no-record", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        tel = payload["metrics"]["telemetry"]
        assert tel["stalls"] == tel["heartbeats"] > 0


class TestTraceTelemetry:
    def test_trace_with_telemetry_and_metrics_out(self, tmp_path, capsys):
        """Telemetry reaches both outputs of ``trace``: the ``--json``
        metrics block and the ``--trace-out`` record stream."""
        trace = tmp_path / "t.jsonl"
        assert main(["trace", CHEAP_PAR, "--telemetry",
                     "--trace-out", str(trace), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["telemetry"]["heartbeats"] > 0
        names = {json.loads(line)["name"]
                 for line in trace.read_text().splitlines()}
        assert "telemetry.heartbeat" in names
        assert "telemetry.sample" in names
        assert "telemetry.overhead" in names
        assert undeclared(read_jsonl(str(trace))) == []


class TestRunsListColumns:
    def test_nullable_telemetry_columns_render(self, capsys):
        assert main(["run", "T1"]) == 0
        assert main(["run", "T1", "--telemetry"]) == 0
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        table = capsys.readouterr().out
        header = table.splitlines()[0]
        assert "rss_peak" in header
        assert "ovh%" in header
        # One run without telemetry ("-"), one with (a number).
        cells = [line.split() for line in table.splitlines()[1:]]
        rss_values = {row[8] for row in cells}
        assert "-" in rss_values
        assert any(v.endswith("M") for v in rss_values)
