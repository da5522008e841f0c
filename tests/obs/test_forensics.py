"""Tests for the trace-diff explainer: first divergence and causal context."""

from repro.obs import (
    TraceRecord,
    causal_context,
    explain_divergence,
    explain_trace_files,
    render_divergence,
    write_jsonl,
)
from repro.obs.forensics import canonical_identity


def ev(name, ts=0.0, **attrs):
    return TraceRecord("event", name, ts, None, attrs)


def sp(name, ts=0.0, dur=0.5, **attrs):
    return TraceRecord("span", name, ts, dur, attrs)


def small_trace():
    return [
        ev("mpc.run_start", 0.01, m=2, s_bits=64, q=4),
        ev("mpc.machine_step", 0.10, round=0, machine=0, dur=0.001,
           incoming_bits=0, sent_messages=1, sent_bits=8, sent_to={"1": 8},
           oracle_queries=0),
        ev("oracle.query", 0.20, round=1, machine=1, key="k1"),
        ev("oracle.query", 0.25, round=1, machine=1, key="k1", repeat=True),
        sp("mpc.round", 0.05, 0.30, round=1, messages=1, message_bits=8,
           oracle_queries=2),
        sp("mpc.run", 0.0, 0.9, rounds=2),
    ]


class TestExplainDivergence:
    def test_identical_streams(self):
        assert explain_divergence(small_trace(), small_trace()) is None

    def test_wall_clock_attrs_are_invisible(self):
        base = small_trace()
        cur = [
            TraceRecord(r.kind, r.name, r.ts + 1.0,
                        (r.dur + 0.5) if r.dur is not None else None,
                        {**r.attrs, **({"dur": 0.9} if "dur" in r.attrs
                                       else {})})
            for r in base
        ]
        assert explain_divergence(base, cur) is None

    def test_extra_record_named_exactly(self):
        base = small_trace()
        extra = ev("mpc.machine_step", 0.15, round=1, machine=1,
                   sent_bits=4, sent_to={"0": 4})
        cur = base[:2] + [extra] + base[2:]
        d = explain_divergence(base, cur)
        assert d is not None
        assert d.kind == "extra"
        assert d.record is extra
        assert d.record.name == "mpc.machine_step"
        assert d.machine == 1 and d.round == 1
        assert d.in_current and d.seq == 2

    def test_missing_is_the_mirror_image(self):
        base = small_trace()
        cur = base[:2] + base[3:]  # drop one oracle.query
        d = explain_divergence(base, cur)
        assert d.kind == "missing"
        assert d.record.name == "oracle.query"
        assert not d.in_current and d.seq == 2

    def test_changed_attr_reported(self):
        base = small_trace()
        cur = list(base)
        cur[2] = ev("oracle.query", 0.20, round=1, machine=1, key="OTHER")
        d = explain_divergence(base, cur)
        assert d.kind == "changed"
        assert d.changed_attrs == {"key": ("k1", "OTHER")}
        assert d.machine == 1 and d.round == 1

    def test_change_stays_changed_when_the_record_recurs(self):
        base = small_trace()
        base.insert(4, base[2])  # the k1 query recurs two records later
        cur = list(base)
        cur[2] = ev("oracle.query", 0.20, round=1, machine=1, key="OTHER")
        d = explain_divergence(base, cur)
        assert d.kind == "changed"
        assert d.changed_attrs == {"key": ("k1", "OTHER")}

    def test_localization_falls_back_to_preceding_context(self):
        base = [ev("mpc.machine_step", round=3, machine=2, sent_bits=0),
                ev("trial.result", value=1)]
        cur = [base[0], ev("trial.result", value=2)]
        d = explain_divergence(base, cur)
        assert d.kind == "changed"
        # trial.result carries no machine/round; nearest preceding wins.
        assert d.machine == 2 and d.round == 3

    def test_canonical_identity_drops_volatile(self):
        a = ev("mpc.machine_step", 0.1, machine=0, dur=0.001, worker=0)
        b = ev("mpc.machine_step", 9.9, machine=0, dur=0.9, worker=1)
        assert canonical_identity(a) == canonical_identity(b)


class TestCausalContext:
    def test_window_parents_and_in_flight(self):
        base = small_trace()
        extra = ev("oracle.query", 0.22, round=1, machine=1, key="kx")
        cur = base[:3] + [extra] + base[3:]
        d = explain_divergence(base, cur)
        assert d.kind == "extra" and d.record is extra
        ctx = causal_context(
            cur, seq=d.seq, machine=d.machine, round=d.round, context=2
        )
        assert (d.seq, extra) in ctx.window
        parent_names = [s.name for s in ctx.parents]
        assert parent_names == ["mpc.run", "mpc.round"]  # outermost first
        # Machine 0 sent 8 bits to machine 1 in round 0 = round-1 mail.
        assert ctx.in_flight == [(0, 8)]
        assert [r.name for _, r in ctx.same_machine] == ["oracle.query"]
        text = render_divergence(d, ctx)
        assert "extra record" in text
        assert "machine 1" in text and "round 1" in text
        assert "in flight into machine 1" in text
        assert ">>" in text

    def test_explain_trace_files_round_trip(self, tmp_path):
        base_path = str(tmp_path / "base.jsonl")
        cur_path = str(tmp_path / "cur.jsonl")
        base = small_trace()
        extra = ev("mpc.machine_step", 0.15, round=1, machine=0,
                   sent_bits=2, sent_to={"1": 2})
        write_jsonl(base, base_path)
        write_jsonl(base[:2] + [extra] + base[2:], cur_path)
        explained = explain_trace_files(base_path, cur_path)
        assert explained is not None
        d, ctx = explained
        assert d.kind == "extra" and d.record.name == "mpc.machine_step"
        assert explain_trace_files(base_path, base_path) is None
