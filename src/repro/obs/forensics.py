"""Trace forensics: where two traces first diverge, and why.

``repro trace-diff`` compares two record streams record by record.
This module finds and explains the first record where they disagree:

* :func:`explain_divergence` -- two record streams in lockstep up to
  the **first diverging record**, classified as extra / missing /
  changed and localized to a machine and round;
* :func:`causal_context` -- the ±k window around a divergence: the
  enclosing span chain (experiment > mpc.run > mpc.round), the last
  records on the same machine, and the messages in flight into that
  machine from the previous round;
* :func:`counter_drifts` -- how far the counter fingerprint moved,
  printed as context;
* :func:`explain_trace_files` / :func:`render_divergence` -- the
  file-level entry point and the text block ``trace-diff`` prints.

What is compared is declared once, in :mod:`repro.obs.schema`: host
records (``telemetry.*``) are invisible to the comparison, so it never
names one as a divergence, and volatile attrs (wall clock, host
readings, the ``worker`` a trial ran on) are stripped from record
identity -- two runs of the same tree diverge on *model* quantities
only.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.obs.exporters import iter_trace_records
from repro.obs.metrics import TraceMetrics, counters_of
from repro.obs.schema import HOST_NAMES, model_attrs
from repro.obs.tracer import TraceRecord

__all__ = [
    "CausalContext",
    "Divergence",
    "canonical_identity",
    "causal_context",
    "counter_drifts",
    "explain_divergence",
    "explain_trace_files",
    "render_divergence",
]

#: How far past a mismatch the bisector looks to classify it as an
#: in-place change, an insertion or a deletion.
_LOOKAHEAD = 64

RecordSource = Iterable[TraceRecord] | Callable[[], Iterable[TraceRecord]]


def _replay(source: RecordSource) -> Iterable[TraceRecord]:
    """A fresh iteration over ``source`` (callable or re-iterable)."""
    if callable(source):
        return source()
    return source


def canonical_identity(record: TraceRecord) -> tuple:
    """The comparison key of one record: model quantities only."""
    return (
        record.kind,
        record.name,
        json.dumps(model_attrs(record), sort_keys=True, default=repr),
    )


@dataclass(frozen=True)
class _Slot:
    """One comparable record with its position bookkeeping."""

    seq: int        # index in the raw stream (causal-window addressing)
    pos: int        # index in the comparison stream (host records skipped)
    record: TraceRecord
    canon: tuple
    machine: int | None
    round: int | None


def _comparable(source: RecordSource) -> Iterator[_Slot]:
    last_machine: int | None = None
    last_round: int | None = None
    pos = 0
    for seq, record in enumerate(_replay(source)):
        a = record.attrs
        if "machine" in a:
            last_machine = a["machine"]
        if "round" in a:
            last_round = a["round"]
        if record.name in HOST_NAMES:
            continue
        yield _Slot(
            seq=seq,
            pos=pos,
            record=record,
            canon=canonical_identity(record),
            machine=a.get("machine", last_machine),
            round=a.get("round", last_round),
        )
        pos += 1


@dataclass
class Divergence:
    """The first point where two comparison streams disagree.

    ``kind`` is ``"extra"`` (current inserted a record the baseline
    lacks), ``"missing"`` (baseline record absent from current), or
    ``"changed"`` (same position, different payload).  ``machine`` /
    ``round`` localize the divergence -- from the record's own attrs,
    falling back to the nearest preceding record that carried them.
    """

    kind: str
    position: int
    baseline: TraceRecord | None
    current: TraceRecord | None
    baseline_seq: int | None
    current_seq: int | None
    machine: int | None
    round: int | None
    changed_attrs: dict[str, tuple] = field(default_factory=dict)

    @property
    def record(self) -> TraceRecord:
        """The record to show: the inserted/changed one, else the missing one."""
        chosen = self.current if self.current is not None else self.baseline
        assert chosen is not None
        return chosen

    @property
    def seq(self) -> int:
        """Raw-stream index of :attr:`record` (in its own stream)."""
        value = (
            self.current_seq if self.current is not None else self.baseline_seq
        )
        assert value is not None
        return value

    @property
    def in_current(self) -> bool:
        """Whether :attr:`record` lives in the current stream."""
        return self.current is not None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "position": self.position,
            "machine": self.machine,
            "round": self.round,
            "name": self.record.name,
            "record": self.record.to_dict(),
            "changed_attrs": {
                k: list(v) for k, v in self.changed_attrs.items()
            },
        }


def _attr_diff(base: TraceRecord, cur: TraceRecord) -> dict[str, tuple]:
    out: dict[str, tuple] = {}
    base_attrs, cur_attrs = model_attrs(base), model_attrs(cur)
    for key in sorted(set(base_attrs) | set(cur_attrs)):
        b, c = base_attrs.get(key), cur_attrs.get(key)
        if b != c:
            out[key] = (b, c)
    return out


def _agreement(base: Sequence[_Slot], cur: Sequence[_Slot]) -> int:
    """How many records the two windows share in lockstep from the start."""
    count = 0
    for b, c in zip(base, cur):
        if b.canon != c.canon:
            break
        count += 1
    return count


def _alignment(base: list[_Slot], cur: list[_Slot]) -> str:
    """Classify the mismatch at ``base[0]`` / ``cur[0]``.

    Each reading of the mismatch predicts which records line up after
    it: an in-place change lines up ``base[1:]`` with ``cur[1:]``, ``k``
    inserted records line up ``base`` with ``cur[k:]``, and ``k``
    dropped records line up ``base[k:]`` with ``cur``.  The reading
    under which the most records then agree wins; a tie goes to the
    change, then to the smallest ``k``.  So a record that changed in
    place stays ``"changed"`` even when an identical record recurs a
    few records later.
    """
    best, best_kind = _agreement(base[1:], cur[1:]), "changed"
    for k in range(1, max(len(base), len(cur))):
        for kind, score in (
            ("extra", _agreement(base, cur[k:])),
            ("missing", _agreement(base[k:], cur)),
        ):
            if score > best:
                best, best_kind = score, kind
    return best_kind


def explain_divergence(
    baseline: RecordSource, current: RecordSource
) -> Divergence | None:
    """Bisect two streams to their first diverging record, or ``None``.

    Lockstep comparison on :func:`canonical_identity`, so order matters
    (a trace is a transcript; reordering *is* divergence).  At the first
    mismatch a bounded lookahead classifies it by the alignment under
    which the records after it agree (:func:`_alignment`): the current
    side inserted records (``"extra"``), dropped records
    (``"missing"``), or the record changed in place (``"changed"``,
    with a per-attr diff).  Host records
    (:data:`repro.obs.schema.HOST_NAMES`) are invisible here -- they
    can never be named as the divergence.
    """
    base_it = _comparable(baseline)
    cur_it = _comparable(current)
    while True:
        b = next(base_it, None)
        c = next(cur_it, None)
        if b is None and c is None:
            return None
        if b is None or c is None or b.canon != c.canon:
            break
    if b is None:
        assert c is not None
        return Divergence(
            kind="extra", position=c.pos,
            baseline=None, current=c.record,
            baseline_seq=None, current_seq=c.seq,
            machine=c.machine, round=c.round,
        )
    if c is None:
        return Divergence(
            kind="missing", position=b.pos,
            baseline=b.record, current=None,
            baseline_seq=b.seq, current_seq=None,
            machine=b.machine, round=b.round,
        )
    base_ahead = [b] + [s for s, _ in zip(base_it, range(_LOOKAHEAD))]
    cur_ahead = [c] + [s for s, _ in zip(cur_it, range(_LOOKAHEAD))]
    kind = _alignment(base_ahead, cur_ahead)
    if kind == "extra":
        return Divergence(
            kind="extra", position=c.pos,
            baseline=None, current=c.record,
            baseline_seq=None, current_seq=c.seq,
            machine=c.machine, round=c.round,
        )
    if kind == "missing":
        return Divergence(
            kind="missing", position=b.pos,
            baseline=b.record, current=None,
            baseline_seq=b.seq, current_seq=None,
            machine=b.machine, round=b.round,
        )
    return Divergence(
        kind="changed", position=c.pos,
        baseline=b.record, current=c.record,
        baseline_seq=b.seq, current_seq=c.seq,
        machine=c.machine if c.machine is not None else b.machine,
        round=c.round if c.round is not None else b.round,
        changed_attrs=_attr_diff(b.record, c.record),
    )


@dataclass
class CausalContext:
    """Everything causally adjacent to one record in one stream.

    ``window`` is the ±k raw-stream neighborhood; ``parents`` the
    enclosing span chain (outermost first -- spans are emitted at
    close, so containment is computed by timestamp, not stream order);
    ``same_machine`` the last k records attributed to the same machine;
    ``in_flight`` the ``(src, bits)`` messages sent *to* that machine in
    the immediately preceding round (the mail it was processing when
    things went wrong).
    """

    window: list[tuple[int, TraceRecord]] = field(default_factory=list)
    parents: list[TraceRecord] = field(default_factory=list)
    same_machine: list[tuple[int, TraceRecord]] = field(default_factory=list)
    in_flight: list[tuple[int, int]] = field(default_factory=list)


def causal_context(
    source: RecordSource,
    *,
    seq: int,
    ts: float | None = None,
    machine: int | None = None,
    round: int | None = None,
    context: int = 5,
) -> CausalContext:
    """One streaming pass collecting the causal neighborhood of ``seq``.

    ``source`` must be the stream the record actually lives in (current
    for extra/changed divergences, baseline for missing ones).
    """
    ctx = CausalContext()
    before: deque[tuple[int, TraceRecord]] = deque(maxlen=context)
    same: deque[tuple[int, TraceRecord]] = deque(maxlen=context)
    after_left = context
    for i, record in enumerate(_replay(source)):
        a = record.attrs
        if i < seq:
            before.append((i, record))
            if machine is not None and a.get("machine") == machine:
                same.append((i, record))
        elif i == seq:
            ctx.window = [*before, (i, record)]
            if ts is None:
                ts = record.ts
        elif after_left > 0:
            ctx.window.append((i, record))
            after_left -= 1
        if (
            record.kind == "span"
            and ts is not None
            and record.dur is not None
            and record.ts <= ts <= record.ts + record.dur
            and i != seq
        ):
            ctx.parents.append(record)
        if (
            machine is not None
            and round is not None
            and record.name == "mpc.machine_step"
            and a.get("round") == round - 1
        ):
            bits = a.get("sent_to", {}).get(str(machine))
            if bits:
                ctx.in_flight.append((a.get("machine", -1), bits))
    # Outermost first: earlier start, then longer duration.
    ctx.parents.sort(key=lambda r: (r.ts, -(r.dur or 0.0)))
    ctx.same_machine = list(same)
    return ctx


def _summarize_record(record: TraceRecord, *, attr_limit: int = 6) -> str:
    shown = [
        f"{k}={record.attrs[k]}"
        for k in list(record.attrs)[:attr_limit]
        if not isinstance(record.attrs[k], dict)
    ]
    extra = len(record.attrs) - len(shown)
    if extra > 0:
        shown.append(f"+{extra} attrs")
    body = " ".join(shown)
    return f"{record.kind} {record.name}" + (f" [{body}]" if body else "")


def render_divergence(
    divergence: Divergence,
    ctx: CausalContext | None = None,
    drifts: Sequence[tuple[str, float, float]] = (),
) -> str:
    """The ``trace-diff`` text block for one divergence.

    ``drifts`` (from :func:`counter_drifts`) are printed as context:
    they say how far the fingerprint moved, not where.
    """
    d = divergence
    where = []
    if d.machine is not None:
        where.append(f"machine {d.machine}")
    if d.round is not None:
        where.append(f"round {d.round}")
    lines = [
        f"first divergence: {d.kind} record at comparison position "
        f"{d.position}" + (f" ({', '.join(where)})" if where else "")
    ]
    if d.kind == "changed":
        assert d.baseline is not None and d.current is not None
        lines.append(f"  baseline: {_summarize_record(d.baseline)}")
        lines.append(f"  current:  {_summarize_record(d.current)}")
        for key, (b, c) in d.changed_attrs.items():
            lines.append(f"    attr {key}: {b!r} -> {c!r}")
    elif d.kind == "extra":
        lines.append(
            f"  current has an extra record: {_summarize_record(d.record)}"
        )
    else:
        lines.append(
            f"  current is missing: {_summarize_record(d.record)}"
        )
    if drifts:
        lines.append("  counter drift:")
        for key, b, c in drifts:
            lines.append(f"    COUNTER {key}: {b:g} -> {c:g}")
    if ctx is None:
        return "\n".join(lines)
    if ctx.parents:
        lines.append("  enclosing spans:")
        for span in ctx.parents:
            lines.append(f"    {_summarize_record(span)}")
    if ctx.in_flight:
        stream = "current" if d.in_current else "baseline"
        total = sum(bits for _, bits in ctx.in_flight)
        senders = ", ".join(
            f"m{src}:{bits}b" for src, bits in ctx.in_flight
        )
        lines.append(
            f"  in flight into machine {d.machine} ({stream}, round "
            f"{d.round}): {total} bits [{senders}]"
        )
    if ctx.same_machine:
        lines.append(f"  last records on machine {d.machine}:")
        for i, record in ctx.same_machine:
            lines.append(f"    #{i} {_summarize_record(record)}")
    if ctx.window:
        lines.append("  stream window:")
        for i, record in ctx.window:
            marker = ">>" if i == d.seq else "  "
            lines.append(f"  {marker} #{i} {_summarize_record(record)}")
    return "\n".join(lines)


def explain_trace_files(
    baseline_path: str, current_path: str, *, context: int = 5
) -> tuple[Divergence, CausalContext] | None:
    """File-level convenience: bisect two JSONL traces and gather context.

    Streams each file at most twice (once for the bisection, once for
    the causal window); never materializes a trace in memory.
    """
    divergence = explain_divergence(
        lambda: iter_trace_records(baseline_path),
        lambda: iter_trace_records(current_path),
    )
    if divergence is None:
        return None
    path = current_path if divergence.in_current else baseline_path
    ctx = causal_context(
        lambda: iter_trace_records(path),
        seq=divergence.seq,
        machine=divergence.machine,
        round=divergence.round,
        context=context,
    )
    return divergence, ctx


def counter_drifts(
    baseline: RecordSource, current: RecordSource
) -> list[tuple[str, float, float]]:
    """``(key, baseline, current)`` for each fingerprint counter that differs.

    One pass over each stream, folding it into the
    :func:`~repro.obs.metrics.counters_of` fingerprint.  Context for a
    divergence only: a reordering or a changed attr diverges with no
    counter drift at all.
    """
    base = counters_of(TraceMetrics.from_records(_replay(baseline)))
    cur = counters_of(TraceMetrics.from_records(_replay(current)))
    return [
        (key, float(base[key]), float(cur[key]))
        for key in sorted(base)
        if base[key] != cur[key]
    ]
