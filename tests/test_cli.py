"""Tests for the command-line interface."""

import pytest

from repro.cli import DESCRIPTIONS, build_report, main
from repro.experiments import experiment_ids


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in experiment_ids():
            assert experiment_id in out

    def test_descriptions_cover_registry(self):
        """cli.DESCRIPTIONS and the experiment registry must not drift."""
        registered = set(experiment_ids())
        described = set(DESCRIPTIONS)
        assert described - registered == set(), "described but never registered"
        assert registered - described == set(), "registered but undescribed"

    def test_descriptions_are_informative(self):
        for experiment_id, description in DESCRIPTIONS.items():
            assert description.strip(), f"{experiment_id} has a blank description"


def exit_code(argv):
    """``main(argv)``'s exit code, whether it returns or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestSubcommands:
    def test_help_lists_exactly_the_subcommands(self, capsys):
        assert exit_code(["--help"]) == 0
        out = capsys.readouterr().out
        listed = out[out.index("{") + 1:out.index("}")]
        assert set(listed.split(",")) == {
            "list", "run", "run-all", "runs", "report", "profile",
            "trace-diff", "trace", "cost",
        }

    @pytest.mark.parametrize("argv", [
        ["index", "t.jsonl"],
        ["query", "t.jsonl", "| count"],
        ["why", "t.jsonl"],
        ["report", "t.jsonl"],
    ])
    def test_removed_forms_are_usage_errors(self, argv, capsys):
        assert exit_code(argv) == 2
        assert "usage: repro" in capsys.readouterr().err


class TestRun:
    def test_run_one(self, capsys):
        assert main(["run", "T1"]) == 0
        out = capsys.readouterr().out
        assert "shape match : YES" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "E-NOPE"])

    def test_scale_flag(self, capsys):
        assert main(["run", "E-BOUND", "--scale", "quick"]) == 0


class TestReport:
    def test_report_to_file(self, tmp_path, capsys, monkeypatch):
        """A report restricted to cheap experiments (monkeypatched ids)."""
        import repro.cli as cli

        monkeypatch.setattr(
            "repro.cli.experiment_ids", lambda: ["T1", "E-BOUND"]
        )
        target = tmp_path / "EXPERIMENTS.md"
        assert main(["report", "--output", str(target)]) == 0
        content = target.read_text()
        assert "# EXPERIMENTS" in content
        assert "## T1" in content
        assert "## E-BOUND" in content
        assert "Shape verdict: MATCH" in content

    def test_build_report_structure(self, monkeypatch):
        monkeypatch.setattr("repro.cli.experiment_ids", lambda: ["E-LIMIT"])
        report = build_report("quick")
        assert "**Paper claim.**" in report
        assert "```text" in report

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestProfileCli:
    def test_profile_prints_hotspot_table(self, capsys):
        assert main(["profile", "T1"]) == 0
        captured = capsys.readouterr()
        assert "hotspots" in captured.out
        assert "experiment" in captured.out
        assert "profile: T1 ok" in captured.err

    def test_profile_json_schema(self, capsys):
        import json

        assert main(["profile", "T1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment_id"] == "T1"
        assert payload["passed"] is True
        names = [h["name"] for h in payload["hotspots"]]
        assert "experiment" in names
        for h in payload["hotspots"]:
            assert {"name", "count", "cum_s", "self_s"} <= set(h)

    def test_profile_cprofile_span(self, capsys):
        assert main(["profile", "T1", "--cprofile-span", "experiment",
                     "--top", "5"]) == 0
        assert "function calls" in capsys.readouterr().out

    def test_profile_restores_null_tracer(self):
        from repro.obs import NULL_TRACER, get_tracer

        main(["profile", "T1"])
        assert get_tracer() is NULL_TRACER


class TestTraceDiffCli:
    def _trace(self, tmp_path, experiment, name):
        path = str(tmp_path / name)
        assert main(["trace", experiment, "--trace-out", path]) == 0
        return path

    def _mutated(self, tmp_path, source, mutate):
        import json

        rows = [json.loads(line) for line in open(source)]
        mutate(rows)
        path = str(tmp_path / "mutated.jsonl")
        with open(path, "w") as fh:
            fh.writelines(json.dumps(row) + "\n" for row in rows)
        return path

    def test_same_experiment_zero_diff(self, tmp_path, capsys):
        a = self._trace(tmp_path, "E-BOUND", "a.jsonl")
        b = self._trace(tmp_path, "E-BOUND", "b.jsonl")
        capsys.readouterr()
        assert main(["trace-diff", a, b]) == 0
        assert "no diverging record" in capsys.readouterr().out

    def test_different_experiments_exit_1(self, tmp_path, capsys):
        a = self._trace(tmp_path, "E-BOUND", "a.jsonl")
        b = self._trace(tmp_path, "E-LIMIT", "b.jsonl")
        capsys.readouterr()
        assert main(["trace-diff", a, b]) == 1
        out = capsys.readouterr().out
        assert "attr experiment_id: 'E-BOUND' -> 'E-LIMIT'" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        a = self._trace(tmp_path, "E-BOUND", "a.jsonl")
        capsys.readouterr()
        assert main(["trace-diff", a, a, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "has_differences": False,
            "first_divergence": None,
            "counter_drifts": [],
        }

    @staticmethod
    def _zeroed_first_query(rows, how):
        """Change, insert before, or delete E-ENC-A's first query.

        Its key recurs six records later in the same trial, inside the
        classifier's lookahead.
        """
        import copy

        i = next(i for i, r in enumerate(rows) if r["name"] == "oracle.query")
        zeroed = copy.deepcopy(rows[i])
        zeroed["attrs"]["key"] = "0" * len(zeroed["attrs"]["key"])
        if how == "change":
            rows[i] = zeroed
        elif how == "insert":
            rows.insert(i, zeroed)
        else:
            del rows[i]

    def test_changed_query_key_exits_1(self, tmp_path, capsys):
        """Same counters, one oracle input changed: a different transcript."""
        import json

        base = self._trace(tmp_path, "E-ENC-A", "base.jsonl")
        cur = self._mutated(
            tmp_path, base, lambda rows: self._zeroed_first_query(rows, "change")
        )
        capsys.readouterr()
        assert main(["trace-diff", base, cur]) == 1
        out = capsys.readouterr().out
        assert "first divergence: changed record" in out
        assert "oracle.query" in out and "attr key:" in out
        assert main(["trace-diff", base, cur, "--json"]) == 1
        first = json.loads(capsys.readouterr().out)["first_divergence"]
        assert first["kind"] == "changed"
        assert list(first["changed_attrs"]) == ["key"]

    @pytest.mark.parametrize("how, kind", [
        ("insert", "extra"),
        ("delete", "missing"),
    ])
    def test_inserted_or_deleted_query_kind(self, tmp_path, capsys, how, kind):
        import json

        base = self._trace(tmp_path, "E-ENC-A", "base.jsonl")
        cur = self._mutated(
            tmp_path, base, lambda rows: self._zeroed_first_query(rows, how)
        )
        capsys.readouterr()
        assert main(["trace-diff", base, cur, "--json"]) == 1
        first = json.loads(capsys.readouterr().out)["first_divergence"]
        assert first["kind"] == kind
        assert first["name"] == "oracle.query"
        assert first["position"] == 1
        assert first["changed_attrs"] == {}

    def test_swapped_machine_steps_exit_1(self, tmp_path, capsys):
        """Same counters, two adjacent machine steps in the other order."""
        def swap_steps(rows):
            i = next(
                i for i in range(len(rows) - 1)
                if rows[i]["name"] == rows[i + 1]["name"] == "mpc.machine_step"
            )
            rows[i], rows[i + 1] = rows[i + 1], rows[i]

        base = self._trace(tmp_path, "E-ENC-A", "base.jsonl")
        cur = self._mutated(tmp_path, base, swap_steps)
        capsys.readouterr()
        assert main(["trace-diff", base, cur]) == 1
        assert "mpc.machine_step" in capsys.readouterr().out

    @pytest.mark.parametrize("context", ["-1", "many"])
    def test_bad_context_exits_2(self, tmp_path, context):
        from repro.obs import TraceRecord, write_jsonl

        path = str(tmp_path / "t.jsonl")
        write_jsonl([TraceRecord("event", "oracle.query", 0.0, None,
                                 {"key": "a"})], path)
        with pytest.raises(SystemExit) as exc:
            main(["trace-diff", path, path, "--context", context])
        assert exc.value.code == 2

    def test_help_lists_only_context_and_json(self, capsys):
        import re

        with pytest.raises(SystemExit) as exc:
            main(["trace-diff", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        options = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", out))
        assert options == {"-h", "--help", "--context", "--json"}


class TestFlatMetrics:
    def test_experiment_result_flat_metrics(self):
        from repro.experiments import run_experiment

        result = run_experiment("T1")
        flat = result.flat_metrics()
        assert "duration_s" in flat
        assert list(flat) == sorted(flat)
        assert not any(isinstance(v, dict) for v in flat.values())


class TestTrace:
    def test_trace_writes_jsonl_and_prints_summary(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = str(tmp_path / "t.jsonl")
        assert main(["trace", "E-BOUND", "--trace-out", path]) == 0
        out = capsys.readouterr().out
        assert "shape match : YES" in out
        assert "trace summary:" in out
        records = read_jsonl(path)
        exp = [r for r in records if r.name == "experiment"]
        assert len(exp) == 1 and exp[0].attrs["experiment_id"] == "E-BOUND"

    def test_trace_without_out_path(self, capsys):
        assert main(["trace", "E-BOUND"]) == 0
        assert "trace summary:" in capsys.readouterr().out

    def test_trace_json_carries_metrics(self, capsys):
        import json

        assert main(["trace", "E-BOUND", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["duration_s"] > 0
        assert "mpc" in payload["metrics"]["trace"]
        assert "oracle" in payload["metrics"]["trace"]

    def test_global_trace_out_wraps_run(self, tmp_path, capsys):
        from repro.obs import read_jsonl

        path = str(tmp_path / "g.jsonl")
        assert main(["--trace-out", path, "run", "E-BOUND"]) == 0
        assert any(r.name == "experiment" for r in read_jsonl(path))

    def test_trace_restores_null_tracer(self, tmp_path):
        from repro.obs import NULL_TRACER, get_tracer

        main(["trace", "E-BOUND", "--trace-out", str(tmp_path / "x.jsonl")])
        assert get_tracer() is NULL_TRACER


class TestStrictBounds:
    def test_trace_clean_run_reports_zero_violations(self, capsys):
        """The acceptance case: E-LINE under --strict-bounds is clean."""
        assert main(["trace", "E-LINE", "--strict-bounds"]) == 0
        assert "strict-bounds: 0 violations" in capsys.readouterr().err

    def test_run_clean_under_strict(self, capsys):
        assert main(["run", "E-BOUND", "--strict-bounds"]) == 0
        assert "strict-bounds: 0 violations" in capsys.readouterr().err

    def test_violating_run_exits_2(self, capsys, monkeypatch):
        from repro.obs import get_tracer

        def bad_run(experiment_id, scale="quick"):
            t = get_tracer()
            t.event("mpc.run_start", m=2, s_bits=32, q=None, max_rounds=4)
            t.event("mpc.machine_step", round=0, machine=1,
                    incoming_bits=64, oracle_queries=0,
                    sent_messages=0, sent_bits=0)
            raise AssertionError("the strict monitor should have aborted")

        monkeypatch.setattr("repro.cli.run_experiment", bad_run)
        assert main(["run", "T1", "--strict-bounds"]) == 2
        err = capsys.readouterr().err
        assert "strict-bounds violation [machine_memory]" in err
        assert "machine 1" in err

    def test_trace_of_violating_run_exits_2(self, capsys, monkeypatch):
        from repro.obs import get_tracer

        def bad_run(experiment_id, scale="quick"):
            get_tracer().event("mpc.run_start", m=4, s_bits=100, q=None)
            get_tracer().event("mpc.machine_step", round=3, machine=2,
                               incoming_bits=0, oracle_queries=0,
                               sent_messages=1, sent_bits=500)
            raise AssertionError("unreached")

        monkeypatch.setattr("repro.cli.run_experiment", bad_run)
        assert main(["trace", "T1", "--strict-bounds"]) == 2
        err = capsys.readouterr().err
        assert "strict-bounds violation [round_communication]" in err

    def test_trace_json_embeds_monitor_block(self, capsys):
        import json

        assert main(["trace", "E-BOUND", "--json", "--strict-bounds"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["monitor"] == {
            "strict": True,
            "violations": [],
        }

    def test_trace_always_monitors_even_unstrict(self, capsys):
        import json

        assert main(["trace", "E-BOUND", "--json"]) == 0
        monitor = json.loads(capsys.readouterr().out)["metrics"]["monitor"]
        assert monitor["strict"] is False and monitor["violations"] == []


class TestRunAllJson:
    def test_json_summary_schema(self, capsys, monkeypatch):
        import json

        monkeypatch.setattr(
            "repro.cli.experiment_ids", lambda: ["T1", "E-BOUND"]
        )
        assert main(["run-all", "--json", "--strict-bounds"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["scale"] == "quick"
        assert payload["strict_bounds"] is True
        assert payload["failures"] == []
        assert payload["count"] == 2
        rows = payload["experiments"]
        assert [row["experiment_id"] for row in rows] == ["T1", "E-BOUND"]
        for row in rows:
            assert row["passed"] is True
            assert row["duration_s"] >= 0
            assert row["violations"] == 0
            assert "mpc.rounds" in row["counters"]
            assert "oracle.queries" in row["counters"]

    def test_plain_run_all_still_prints_table(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.cli.experiment_ids", lambda: ["T1"])
        assert main(["run-all"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "ok" in out
        assert "all 1 experiments matched" in out


class TestJobsFlag:
    def test_run_parallel_matches_serial(self, capsys):
        import json

        assert main(["run", "E-ENC-A", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["run", "E-ENC-A", "--json", "--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        for payload in (serial, parallel):
            payload["metrics"].pop("duration_s", None)
        assert serial == parallel

    def test_run_all_parallel_json(self, capsys, monkeypatch):
        import json

        monkeypatch.setattr(
            "repro.cli.experiment_ids", lambda: ["T1", "E-BOUND", "E-ENC-A"]
        )
        assert main(["run-all", "--json", "--jobs", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == 2
        assert payload["passed"] is True
        assert payload["wall_s"] > 0
        # Rows come back in registry order regardless of completion order.
        assert [row["experiment_id"] for row in payload["experiments"]] == [
            "T1", "E-BOUND", "E-ENC-A",
        ]
        for row in payload["experiments"]:
            assert "mpc.rounds" in row["counters"]

    def test_run_all_wall_time_column(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.cli.experiment_ids", lambda: ["T1"])
        assert main(["run-all"]) == 0
        out = capsys.readouterr().out
        # "T1           ok       0.00s  ..." plus the jobs-stamped footer.
        assert "s  " in out
        assert "jobs=1" in out

    def test_run_all_env_default(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.cli.experiment_ids", lambda: ["T1"])
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert main(["run-all"]) == 0
        assert "jobs=2" in capsys.readouterr().out

    def test_trace_accepts_jobs(self, capsys):
        assert main(["trace", "E-ENC-A", "--jobs", "2", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert "trace" in payload["metrics"]


class TestCrashSafeTraceOut:
    def test_failing_run_leaves_parseable_jsonl(self, tmp_path, monkeypatch):
        """A crash mid-experiment must not corrupt the --trace-out file."""
        from repro.obs import get_tracer, read_jsonl

        def doomed(experiment_id, scale="quick"):
            t = get_tracer()
            t.event("mpc.run_start", m=2, s_bits=32, q=1, max_rounds=4)
            t.event("oracle.query", round=0, machine=0, repeat=False)
            raise RuntimeError("experiment crashed mid-run")

        monkeypatch.setattr("repro.cli.run_experiment", doomed)
        path = str(tmp_path / "crash.jsonl")
        with pytest.raises(RuntimeError, match="crashed"):
            main(["--trace-out", path, "run", "T1"])
        assert [r.name for r in read_jsonl(path)] == [
            "mpc.run_start", "oracle.query",
        ]

    def test_trace_subcommand_closes_sink_on_crash(self, tmp_path, monkeypatch):
        from repro.obs import get_tracer, read_jsonl

        def doomed(experiment_id, scale="quick"):
            get_tracer().event("before-crash")
            raise RuntimeError("boom")

        monkeypatch.setattr("repro.cli.run_experiment", doomed)
        path = str(tmp_path / "t.jsonl")
        with pytest.raises(RuntimeError, match="boom"):
            main(["trace", "T1", "--trace-out", path])
        # The crash must still flush the record emitted before it.
        assert [r.name for r in read_jsonl(path)] == ["before-crash"]


class TestListEnriched:
    def test_par_flag_marks_trial_parallel_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = {ln.split()[0]: ln for ln in out.splitlines() if ln.strip()}
        assert "  par  " in lines["E-DECAY"]
        assert "  par  " in lines["E-GUESS"]
        assert "  -  " in lines["T1"]
        assert "Monte-Carlo trials fan out" in out

    def test_list_json(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        by_id = {row["experiment_id"]: row for row in rows}
        assert by_id["E-DECAY"]["trial_parallel"] is True
        assert by_id["T1"]["trial_parallel"] is False
        for row in rows:
            assert row["description"].strip()


class TestRunRecording:
    def test_run_appends_registry_row(self, tmp_path, capsys):
        from repro.obs import RunRegistry

        db = str(tmp_path / "reg.db")
        assert main(["run", "T1", "--registry", db]) == 0
        err = capsys.readouterr().err
        assert "recorded run 1" in err
        with RunRegistry(db) as reg:
            assert reg.count() == 1
            rec = reg.get(1)
        assert rec.experiment_id == "T1"
        assert rec.verdict == "pass"
        assert rec.git_sha

    def test_two_runs_two_rows(self, tmp_path):
        from repro.obs import RunRegistry

        db = str(tmp_path / "reg.db")
        assert main(["run", "T1", "--registry", db]) == 0
        assert main(["run", "T1", "--registry", db]) == 0
        with RunRegistry(db) as reg:
            assert [r.run_id for r in reg] == [1, 2]

    def test_no_record_opts_out(self, tmp_path):
        import os

        db = str(tmp_path / "reg.db")
        assert main(["run", "T1", "--registry", db, "--no-record"]) == 0
        assert not os.path.exists(db)

    def test_env_var_default_path(self, tmp_path, monkeypatch):
        from repro.obs import RunRegistry

        db = tmp_path / "env.db"
        monkeypatch.setenv("REPRO_REGISTRY", str(db))
        assert main(["run", "T1"]) == 0
        with RunRegistry(str(db)) as reg:
            assert reg.count() == 1

    def test_serial_and_parallel_rows_match(self, tmp_path):
        """--jobs must only change wall_s/jobs, never recorded metrics."""
        from repro.obs import RunRegistry

        db = str(tmp_path / "det.db")
        assert main(["run", "E-ENC-A", "--registry", db]) == 0
        assert main(["run", "E-ENC-A", "--registry", db, "--jobs", "2"]) == 0
        with RunRegistry(db) as reg:
            a, b = reg.get(1), reg.get(2)
        assert (a.jobs, b.jobs) == (1, 2)
        assert a.metrics == b.metrics
        assert a.counters == b.counters
        assert a.seed == b.seed


class TestRunAllRecording:
    def test_json_includes_sha_and_run_ids(self, tmp_path, capsys,
                                           monkeypatch):
        import json

        from repro.obs import RunRegistry

        monkeypatch.setattr(
            "repro.cli.experiment_ids", lambda: ["T1", "E-BOUND"]
        )
        db = str(tmp_path / "reg.db")
        assert main(["run-all", "--json", "--registry", db]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["git_sha"]
        assert payload["registry"]["path"] == db
        assert payload["registry"]["run_ids"] == {"T1": 1, "E-BOUND": 2}
        for row in payload["experiments"]:
            assert row["run_id"] in (1, 2)
            assert "record" not in row  # internal payload never leaks
        with RunRegistry(db) as reg:
            assert sorted({r.experiment_id for r in reg.runs()}) == [
                "E-BOUND", "T1",
            ]

    def test_no_record_omits_registry_key(self, tmp_path, capsys,
                                          monkeypatch):
        import json
        import os

        monkeypatch.setattr("repro.cli.experiment_ids", lambda: ["T1"])
        db = str(tmp_path / "reg.db")
        args = ["run-all", "--json", "--registry", db, "--no-record"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "registry" not in payload
        assert payload["git_sha"]
        assert not os.path.exists(db)


class TestRunsCli:
    def _seed(self, tmp_path, walls=(1.0, 1.0), experiment_id="E-X"):
        from repro.obs import RunRecord, RunRegistry

        db = str(tmp_path / "runs.db")
        with RunRegistry(db) as reg:
            for wall in walls:
                reg.record(RunRecord(
                    experiment_id=experiment_id, scale="quick",
                    verdict="pass", seed=7, wall_s=wall,
                    counters={"mpc.rounds": 5},
                ))
        return db

    def test_list_table_and_json(self, tmp_path, capsys):
        import json

        db = self._seed(tmp_path)
        assert main(["runs", "list", "--registry", db]) == 0
        out = capsys.readouterr().out
        assert "E-X" in out and out.startswith("id")
        assert main(["runs", "list", "--registry", db, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in rows] == [2, 1]  # newest first

    def test_show(self, tmp_path, capsys):
        import json

        db = self._seed(tmp_path)
        assert main(["runs", "show", "1", "--registry", db]) == 0
        row = json.loads(capsys.readouterr().out)
        assert row["experiment_id"] == "E-X"
        assert row["counters"] == {"mpc.rounds": 5}

    def test_show_missing_exits_2(self, tmp_path, capsys):
        db = self._seed(tmp_path)
        assert main(["runs", "show", "99", "--registry", db]) == 2
        assert "99" in capsys.readouterr().err

    def test_compare_identical_and_drifted(self, tmp_path, capsys):
        from repro.obs import RunRecord, RunRegistry

        db = self._seed(tmp_path)
        assert main(["runs", "compare", "1", "2", "--registry", db]) == 0
        assert "identical" in capsys.readouterr().out
        with RunRegistry(db) as reg:
            reg.record(RunRecord(
                experiment_id="E-X", scale="quick", verdict="pass",
                seed=7, wall_s=1.0, counters={"mpc.rounds": 9},
            ))
        assert main(["runs", "compare", "1", "3", "--registry", db]) == 1
        assert "mpc.rounds" in capsys.readouterr().out

    def test_compare_missing_exits_2(self, tmp_path):
        db = self._seed(tmp_path)
        assert main(["runs", "compare", "1", "42", "--registry", db]) == 2

    def test_gc_requires_arguments(self, tmp_path):
        db = self._seed(tmp_path)
        assert main(["runs", "gc", "--registry", db]) == 2

    def test_gc_keep_last(self, tmp_path, capsys):
        from repro.obs import RunRegistry

        db = self._seed(tmp_path, walls=(1.0, 1.0, 1.0))
        args = ["runs", "gc", "--registry", db, "--keep-last", "1"]
        assert main(args) == 0
        assert "removed 2" in capsys.readouterr().out
        with RunRegistry(db) as reg:
            assert [r.run_id for r in reg] == [3]

    @pytest.mark.parametrize("argv", [
        ["runs", "gc", "--keep-last", "-1"],
        ["runs", "gc", "--before", "yesterday"],
        ["runs", "list", "-n", "-1"],
        ["profile", "E-LINE", "--top", "-2"],
    ])
    def test_bad_numbers_exit_2_and_change_nothing(
        self, tmp_path, capsys, argv
    ):
        from repro.obs import RunRegistry

        db = self._seed(tmp_path)
        if argv[0] == "runs":
            argv = [*argv, "--registry", db]
        assert exit_code(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        with RunRegistry(db) as reg:
            assert [r.run_id for r in reg] == [1, 2]


class TestConvergenceInTrace:
    def test_trace_reports_confidence_intervals(self, capsys):
        assert main(["trace", "E-DECAY"]) == 0
        out = capsys.readouterr().out
        assert "decay.advance_len.f=1/2" in out
        assert "+/-" in out  # half-width column of the convergence table

    def test_trace_json_has_convergence_metrics(self, capsys):
        import json

        assert main(["trace", "E-DECAY", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        conv = payload["metrics"]["convergence"]
        est = conv["estimates"]["decay.advance_len.f=1/2"]
        assert est["n"] > 0
        assert est["ci95"][0] <= est["value"] <= est["ci95"][1]


class TestForensicsCli:
    """repro trace-diff on real and hand-edited traces, and bad inputs."""

    def _write(self, tmp_path, name, records):
        from repro.obs import write_jsonl

        path = str(tmp_path / name)
        write_jsonl(records, path)
        return path

    def _eline_trace(self, tmp_path):
        path = str(tmp_path / "eline.jsonl")
        assert main(["trace", "E-LINE", "--trace-out", path]) == 0
        return path

    def test_explain_names_injected_record(self, tmp_path, capsys):
        """Acceptance: one injected event is identified by name/machine/round."""
        import json

        base = self._eline_trace(tmp_path)
        lines = open(base).read().splitlines()
        step_at = next(
            i for i, line in enumerate(lines)
            if json.loads(line)["name"] == "mpc.machine_step"
        )
        step = json.loads(lines[step_at])
        injected = dict(step, attrs=dict(step["attrs"], sent_bits=1))
        lines.insert(step_at + 1, json.dumps(injected))
        cur = str(tmp_path / "cur.jsonl")
        with open(cur, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["trace-diff", base, cur]) == 1
        out = capsys.readouterr().out
        assert "first divergence: extra record" in out
        assert "mpc.machine_step" in out
        attrs = injected["attrs"]
        assert f"machine {attrs['machine']}, round {attrs['round']}" in out

    def test_explain_clean_pair_exits_0(self, tmp_path, capsys):
        base = self._eline_trace(tmp_path)
        capsys.readouterr()
        assert main(["trace-diff", base, base]) == 0
        assert "no diverging record" in capsys.readouterr().out

    def test_explain_json_payload(self, tmp_path, capsys):
        import json

        from repro.obs import TraceRecord

        a = self._write(tmp_path, "a.jsonl", [
            TraceRecord("event", "oracle.query", 0.1, None,
                        {"round": 0, "machine": 0, "key": "x"}),
        ])
        b = self._write(tmp_path, "b.jsonl", [
            TraceRecord("event", "oracle.query", 0.1, None,
                        {"round": 0, "machine": 0, "key": "y"}),
        ])
        assert main(["trace-diff", a, b, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        d = payload["first_divergence"]
        assert d["kind"] == "changed" and d["name"] == "oracle.query"
        assert d["changed_attrs"]["key"] == ["x", "y"]

    def test_empty_inputs_exit_2(self, tmp_path, capsys):
        empty = str(tmp_path / "empty.jsonl")
        open(empty, "w").close()
        other = self._write(tmp_path, "one.jsonl", [
            __import__("repro.obs", fromlist=["TraceRecord"]).TraceRecord(
                "event", "x", 0.0, None, {})
        ])
        for argv in (
            ["trace-diff", empty, other],
            ["trace-diff", other, empty],
        ):
            assert main(argv) == 2, argv
            assert "no trace records" in capsys.readouterr().err

    def test_non_trace_inputs_exit_2(self, tmp_path, capsys):
        bogus = str(tmp_path / "notes.jsonl")
        with open(bogus, "w") as fh:
            fh.write('{"just": "some json"}\n')
        assert main(["trace-diff", bogus, bogus]) == 2
        assert "not a trace" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["trace-diff", missing, missing]) == 2
        assert "cannot read trace" in capsys.readouterr().err
