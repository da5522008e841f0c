"""Tests for the record-by-record trace comparison behind ``repro trace-diff``."""

import numpy as np

from repro.functions import LineParams, sample_input
from repro.obs import (
    TraceRecord,
    Tracer,
    counter_drifts,
    explain_divergence,
    render_divergence,
    use_tracer,
)
from repro.oracle import LazyRandomOracle
from repro.protocols import build_chain_protocol, run_chain


def ev(name, ts=0.0, **attrs):
    return TraceRecord("event", name, ts, None, attrs)


def sp(name, ts=0.0, dur=0.5, **attrs):
    return TraceRecord("span", name, ts, dur, attrs)


def traced_line_run(seed=7, machines=4):
    params = LineParams(n=36, u=8, v=8, w=32)
    x = sample_input(params, np.random.default_rng(seed))
    oracle = LazyRandomOracle(params.n, params.n, seed=seed)
    setup = build_chain_protocol(params, x, num_machines=machines)
    tracer = Tracer()
    with use_tracer(tracer):
        run_chain(setup, oracle)
    return list(tracer.records)


class TestDiffTraces:
    """``repro trace-diff``'s one comparison: record by record, in order."""

    def test_same_seed_runs_are_structurally_identical(self):
        base = traced_line_run(seed=7)
        cur = traced_line_run(seed=7)
        assert explain_divergence(base, cur) is None
        assert counter_drifts(base, cur) == []

    def test_different_workloads_diff_nonempty(self):
        base = traced_line_run(seed=7, machines=4)
        other = traced_line_run(seed=7, machines=2)
        d = explain_divergence(base, other)
        # Fewer machines change the deterministic routing counters.
        assert d is not None
        drifts = counter_drifts(base, other)
        assert drifts
        assert "COUNTER" in render_divergence(d, drifts=drifts)

    def test_kind_changes_reported(self):
        base = [sp("mpc.run", rounds=1), ev("old.kind")]
        cur = [sp("mpc.run", rounds=1), ev("new.kind")]
        d = explain_divergence(base, cur)
        assert d is not None and d.kind == "changed"
        assert d.baseline.name == "old.kind"
        assert d.current.name == "new.kind"

    def test_experiment_mismatch_noted(self):
        base = [sp("experiment", experiment_id="E-LINE")]
        cur = [sp("experiment", experiment_id="E-GUESS")]
        d = explain_divergence(base, cur)
        assert d is not None
        assert d.changed_attrs == {"experiment_id": ("E-LINE", "E-GUESS")}

    def test_latency_regressions_are_advisory(self):
        """Timing is never compared: a 5x slower round is no divergence."""
        base = [sp("mpc.round", dur=0.010, round=0, messages=1),
                ev("mpc.machine_step", round=0, machine=0, dur=0.001)]
        cur = [sp("mpc.round", dur=0.050, round=0, messages=1),
               ev("mpc.machine_step", round=0, machine=0, dur=0.005)]
        assert explain_divergence(base, cur) is None

    def test_identical_render_says_so(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import write_jsonl

        path = str(tmp_path / "t.jsonl")
        write_jsonl([sp("mpc.round", dur=0.01, round=0, messages=1)], path)
        assert main(["trace-diff", path, path]) == 0
        assert "no diverging record" in capsys.readouterr().out


class TestExclusionContract:
    """Host (telemetry.*) records are invisible to every determinism check."""

    def base_records(self):
        return [
            ev("mpc.run_start", m=2),
            ev("oracle.query", round=0, machine=0, key="a"),
            sp("mpc.round", dur=0.01, round=0, messages=1, message_bits=8,
               oracle_queries=1),
            sp("mpc.run", dur=0.05, rounds=1),
        ]

    def telemetry(self, i):
        return ev(f"telemetry.sample", ts=0.01 * i, rss_kb=100 + i, cpu_s=i)

    def test_interleaved_at_different_positions_diffs_clean(self):
        base = self.base_records()
        head = [self.telemetry(1), *base, self.telemetry(2)]
        tail = [base[0], self.telemetry(3), base[1], base[2],
                self.telemetry(4), self.telemetry(5), base[3]]
        assert explain_divergence(head, tail) is None
        assert explain_divergence(tail, head) is None

    def test_traces_differing_only_in_excluded_records_compare_clean(self):
        base = self.base_records()
        noisy = [self.telemetry(i) for i in range(3)] + base
        assert explain_divergence(base, noisy) is None
        assert explain_divergence(noisy, base) is None

    def test_explain_never_names_an_excluded_record(self):
        base = self.base_records()
        noisy = [base[0], self.telemetry(1), *base[1:], self.telemetry(2)]
        assert explain_divergence(base, noisy) is None
        # Even when a real divergence sits NEXT to telemetry noise, the
        # telemetry record must not be the one named.
        extra = ev("oracle.query", round=0, machine=0, key="EXTRA")
        cur = [base[0], self.telemetry(1), base[1], extra, *base[2:]]
        d = explain_divergence(base, cur)
        assert d is not None
        assert not d.record.name.startswith("telemetry.")
        assert d.record is extra

    def test_streams_are_consumed_single_pass(self):
        base = self.base_records()
        assert explain_divergence(iter(base), iter(list(base))) is None
        assert counter_drifts(iter(base), iter(list(base))) == []
