"""Tests for the cost oracle's pairing, verdicts, and mismatch path.

Synthetic record streams with exact field-level assertions, in the
style of the invariant-monitor tests: the fullmem.colocated model has
the simplest closed forms (rounds 2, messages m, bits 2m, queries T),
so drift injection is a one-number edit.
"""

import pytest

pytest.importorskip("sympy")

from repro.costmodel import (
    CostMismatchError,
    CostOracle,
    check_trace_records,
)
from repro.costmodel.ledger import render_ledger
from repro.obs import TraceRecord, Tracer
from tests.obs.test_schema import undeclared


def ev(name, **attrs):
    return TraceRecord("event", name, 0.0, None, attrs)


def sp(name, **attrs):
    return TraceRecord("span", name, 0.0, 0.001, attrs)


def announce(model="fullmem.colocated", trigger="mpc.run", m=3, T=5):
    return ev("cost.model", model=model, trigger=trigger,
              params={"m": m, "T": T})


def run_span(rounds=2, messages=3, bits=6, queries=5, halted=True):
    return sp("mpc.run", rounds=rounds, total_messages=messages,
              total_message_bits=bits, total_oracle_queries=queries,
              halted=halted)


class TestPairing:
    def test_matching_run_passes(self):
        oracle = check_trace_records([announce(), run_span()])
        (check,) = oracle.checks
        assert check.status == "pass"
        assert oracle.verdict == "pass"
        assert {e.counter for e in check.entries} == {
            "rounds", "total_messages", "total_message_bits",
            "total_oracle_queries",
        }

    def test_span_without_announcement_is_ignored(self):
        oracle = check_trace_records([run_span()])
        assert oracle.checks == []
        assert oracle.verdict == "none"

    def test_latest_announcement_wins(self):
        """A crashed run's stale announcement must not pair with the
        next run's span; only the latest announcement counts."""
        oracle = check_trace_records([
            announce(m=99, T=99),  # stale: its run never closed a span
            announce(m=3, T=5),
            run_span(),
        ])
        (check,) = oracle.checks
        assert check.status == "pass"
        assert check.bindings["m"] == 3

    def test_announcement_consumed_once(self):
        oracle = check_trace_records([announce(), run_span(), run_span()])
        assert len(oracle.checks) == 1

    def test_unhalted_run_skipped(self):
        oracle = check_trace_records([announce(), run_span(halted=False)])
        (check,) = oracle.checks
        assert check.status == "skipped"
        assert oracle.verdict == "none"

    def test_unknown_model_id_skipped(self):
        oracle = check_trace_records([
            announce(model="no.such.model"), run_span(),
        ])
        (check,) = oracle.checks
        assert check.status == "skipped" and "unknown" in check.note

    def test_jsonl_dict_records_accepted(self):
        """The offline replay path feeds plain dicts, not TraceRecords."""
        records = [
            {"kind": "event", "name": "cost.model",
             "attrs": {"model": "fullmem.colocated", "trigger": "mpc.run",
                       "params": {"m": 3, "T": 5}}},
            {"kind": "span", "name": "mpc.run",
             "attrs": {"rounds": 2, "total_messages": 3,
                       "total_message_bits": 6, "total_oracle_queries": 5,
                       "halted": True}},
        ]
        oracle = check_trace_records(records)
        assert oracle.verdict == "pass"


class TestMismatchPath:
    def test_drifted_counter_fails_with_exact_fields(self):
        oracle = check_trace_records([announce(), run_span(messages=4)])
        assert oracle.verdict == "fail"
        ((model_id, entry),) = oracle.mismatches
        assert model_id == "fullmem.colocated"
        assert entry.counter == "total_messages"
        assert entry.measured == 4 and entry.predicted == 3
        assert entry.drift == 1

    def test_mismatch_event_emitted_on_the_tracer(self):
        tracer = Tracer()
        oracle = CostOracle(tracer=tracer)
        tracer.subscribe(oracle)
        tracer.event("cost.model", **announce().attrs)
        with tracer.span("mpc.run") as attrs:
            attrs.update(rounds=2, total_messages=4, total_message_bits=6,
                         total_oracle_queries=5, halted=True)
        names = [r.name for r in tracer.records]
        assert "cost.predicted" in names
        assert "cost.mismatch" in names
        (mismatch,) = [r for r in tracer.records if r.name == "cost.mismatch"]
        assert mismatch.attrs["counter"] == "total_messages"
        assert mismatch.attrs["drift"] == 1
        assert mismatch.attrs["model"] == "fullmem.colocated"
        assert undeclared(tracer.records) == []

    def test_strict_mode_raises(self):
        with pytest.raises(CostMismatchError, match="total_messages"):
            check_trace_records(
                [announce(), run_span(bits=6, messages=4)], strict=True
            )

    def test_inline_bound_violation_fails(self):
        """A guessing announcement carrying an impossible success count
        must fail the 6-sigma bound on receipt."""
        record = ev(
            "cost.model", model="guessing.line", trigger="inline",
            params={"u": 8, "trials": 100, "strategy": "uniform"},
            measured={"successes": 100},
        )
        oracle = check_trace_records([record])
        (check,) = oracle.checks
        assert check.status == "fail"
        (entry,) = check.mismatches
        assert entry.kind == "bound" and entry.measured == 100


class TestSummaryAndLedger:
    def test_summary_totals_exact_predictions(self):
        oracle = check_trace_records([
            announce(), run_span(),
            announce(), run_span(),
        ])
        summary = oracle.summary()
        assert summary["verdict"] == "pass"
        assert summary["checks"] == 2 and summary["passed"] == 2
        assert summary["models"] == ["fullmem.colocated"]
        # two runs x (messages 3, bits 6, queries 5, rounds 2)
        assert summary["predicted"] == {
            "rounds": 4,
            "total_messages": 6,
            "total_message_bits": 12,
            "total_oracle_queries": 10,
        }

    def test_ledger_round_trip_through_trace_events(self):
        tracer = Tracer()
        oracle = CostOracle(tracer=tracer)
        tracer.subscribe(oracle)
        tracer.event("cost.model", **announce().attrs)
        with tracer.span("mpc.run") as attrs:
            attrs.update(rounds=2, total_messages=4, total_message_bits=6,
                         total_oracle_queries=5, halted=True)
        ledgers = [
            r.attrs for r in tracer.records if r.name == "cost.predicted"
        ]
        assert len(ledgers) == 1
        rendered = render_ledger(ledgers)
        assert "fullmem.colocated" in rendered
        assert "mismatch" in rendered
        assert "+1" in rendered  # drift column

    def test_render_mentions_verdict(self):
        oracle = check_trace_records([announce(), run_span()])
        assert "verdict=pass" in oracle.render()
