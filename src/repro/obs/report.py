"""Trace reports: self-contained HTML and Chrome/Perfetto export.

Two renderers over one JSONL trace (``repro report <trace.jsonl>``):

* :func:`render_html` -- a single static HTML file with **no external
  assets** (inline CSS, inline SVG sparklines): headline metrics,
  per-round latency / message-bits / query sparklines, the
  predicted-vs-measured cost ledger (``cost.predicted`` events from
  :class:`~repro.costmodel.CostOracle`, drifted counters highlighted),
  the hotspot table (:class:`~repro.obs.profile.SpanProfiler`), the
  machine x machine communication matrix as a table heatmap,
  oracle-query locality, and any ``monitor.violation`` events.  Opens
  from disk, attaches to CI artifacts, emails intact.
* :func:`chrome_trace_events` -- the Chrome trace-event JSON view
  (``--format chrome-json``): one ``"X"`` complete event per span (and
  per ``mpc.machine_step``, on the machine's own track), one ``"i"``
  instant event per point event.  The output opens directly in
  ``ui.perfetto.dev`` or ``chrome://tracing``.
"""

from __future__ import annotations

import html
import json

from repro.obs.analysis import (
    communication_matrix,
    critical_path,
    query_locality,
)
from repro.obs.exporters import coerce_jsonable
from repro.obs.forensics import triage
from repro.obs.metrics import TraceMetrics
from repro.obs.profile import SpanProfiler

__all__ = [
    "chrome_trace_events",
    "write_chrome_trace",
    "render_html",
    "write_html_report",
]


# ---------------------------------------------------------------------------
# Chrome trace-event / Perfetto export
# ---------------------------------------------------------------------------

#: tid 0 is the control track (experiment/phase/mpc.run/mpc.round
#: spans); machine ``i`` works on tid ``i + 1``.
_CONTROL_TID = 0


def _tid_of(record) -> int:
    machine = record.attrs.get("machine")
    return machine + 1 if isinstance(machine, int) else _CONTROL_TID


def chrome_trace_events(records) -> list[dict]:
    """Convert a record stream to Chrome trace-event objects.

    Every object carries ``name``/``ph``/``ts``/``pid``/``tid`` (the
    shape Perfetto's JSON importer requires); timestamps are in
    microseconds.  Span records become ``"X"`` complete events;
    ``mpc.machine_step`` events (which carry a duration and a machine
    id) become ``"X"`` events on that machine's track; other events
    become ``"i"`` instants.  Attrs ride along under ``args``.
    """
    events: list[dict] = []
    tids: set[int] = {_CONTROL_TID}
    for record in records:
        args = coerce_jsonable(record.attrs)
        tid = _tid_of(record)
        tids.add(tid)
        if record.kind == "span" and record.dur is not None:
            events.append({
                "name": record.name,
                "cat": record.name.split(".")[0],
                "ph": "X",
                "ts": round(record.ts * 1e6, 3),
                "dur": round(record.dur * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": args,
            })
            continue
        dur = record.attrs.get("dur")
        if isinstance(dur, (int, float)) and dur > 0:
            events.append({
                "name": record.name,
                "cat": record.name.split(".")[0],
                "ph": "X",
                "ts": round((record.ts - dur) * 1e6, 3),
                "dur": round(dur * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": args,
            })
        else:
            events.append({
                "name": record.name,
                "cat": record.name.split(".")[0],
                "ph": "i",
                "s": "t",
                "ts": round(record.ts * 1e6, 3),
                "pid": 0,
                "tid": tid,
                "args": args,
            })
    for tid in sorted(tids):
        label = "control" if tid == _CONTROL_TID else f"machine {tid - 1}"
        events.append({
            "name": "thread_name",
            "ph": "M",
            "ts": 0,
            "pid": 0,
            "tid": tid,
            "args": {"name": label},
        })
    return events


def write_chrome_trace(records, path: str) -> int:
    """Write the Chrome-trace JSON array; returns the event count."""
    events = chrome_trace_events(records)
    with open(path, "w") as fh:
        json.dump(events, fh)
        fh.write("\n")
    return len(events)


# ---------------------------------------------------------------------------
# HTML report
# ---------------------------------------------------------------------------

_CSS = """
body { font: 14px/1.45 system-ui, sans-serif; margin: 2rem auto;
       max-width: 60rem; color: #1a1a2e; padding: 0 1rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .5rem 0; }
th, td { border: 1px solid #d0d4dc; padding: .2rem .55rem;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #eef1f6; } td.l, th.l { text-align: left; }
.meta { color: #5a6072; }
.spark { display: inline-block; vertical-align: middle; margin-right: .4rem; }
.sparkrow { margin: .35rem 0; }
.violation { color: #a02020; }
.ok { color: #1d7a3a; }
tr.drift td { background: #fbe9e9; }
tr.drift td.l { color: #a02020; font-weight: 600; }
code { background: #f2f3f7; padding: 0 .25rem; }
"""


def _esc(value) -> str:
    return html.escape(str(value))


def _sparkline(values, *, width: int = 260, height: int = 36) -> str:
    """An inline SVG sparkline (polyline over normalized values)."""
    n = len(values)
    if n == 0:
        return "<span class='meta'>(no data)</span>"
    lo = min(values)
    hi = max(values)
    span = (hi - lo) or 1.0
    pad = 2.0
    if n == 1:
        xs = [width / 2.0]
    else:
        xs = [pad + i * (width - 2 * pad) / (n - 1) for i in range(n)]
    points = " ".join(
        f"{x:.1f},{pad + (height - 2 * pad) * (1 - (v - lo) / span):.1f}"
        for x, v in zip(xs, values)
    )
    return (
        f"<svg class='spark' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}' role='img'>"
        f"<polyline points='{points}' fill='none' "
        f"stroke='#3566b0' stroke-width='1.5'/></svg>"
    )


def _round_series(records) -> dict[str, list[float]]:
    latency: list[float] = []
    bits: list[float] = []
    queries: list[float] = []
    for record in records:
        if record.name == "mpc.round" and record.kind == "span":
            latency.append((record.dur or 0.0) * 1e3)
            bits.append(float(record.attrs.get("message_bits", 0)))
            queries.append(float(record.attrs.get("oracle_queries", 0)))
    return {
        "round latency (ms)": latency,
        "message bits": bits,
        "oracle queries": queries,
    }


def _headline_rows(records) -> list[tuple[str, object]]:
    flat = TraceMetrics.from_records(records).to_flat_dict()
    keys = [
        "mpc.runs", "mpc.rounds",
        "mpc.round_messages.sum", "mpc.round_message_bits.sum",
        "oracle.queries", "oracle.repeat_fraction",
        "ram.runs", "ram.instructions",
    ]
    rows: list[tuple[str, object]] = []
    for key in keys:
        if key in flat:
            rows.append((key, flat[key]))
    for key, seconds in sorted(
        (k, v) for k, v in flat.items() if k.startswith("experiments.")
    ):
        rows.append((f"{key} (s)", round(float(seconds), 4)))
    return rows


def _matrix_section(records) -> str:
    matrix = communication_matrix(records)
    if not matrix.bits:
        return "<p class='meta'>no machine-to-machine traffic recorded</p>"
    rows = matrix.to_rows()
    peak = max(max(r) for r in rows) or 1
    out = ["<table><tr><th class='l'>src\\dst</th>"]
    out.extend(f"<th>{j}</th>" for j in range(matrix.m))
    out.append("<th>total</th></tr>")
    for i in range(matrix.m):
        out.append(f"<tr><th class='l'>{i}</th>")
        for j in range(matrix.m):
            bits = rows[i][j]
            alpha = 0.85 * bits / peak
            style = (
                f" style='background: rgba(53,102,176,{alpha:.3f})'"
                if bits else ""
            )
            out.append(f"<td{style}>{bits or ''}</td>")
        out.append(f"<td>{sum(rows[i])}</td></tr>")
    out.append("</table>")
    out.append(
        f"<p class='meta'>{matrix.total_bits} bits total; cell shading "
        "scales with bits sent on that edge</p>"
    )
    return "".join(out)


def _hotspot_section(profiler: SpanProfiler) -> str:
    hotspots = profiler.hotspots()
    if not hotspots:
        return "<p class='meta'>no spans in trace</p>"
    out = [
        "<table><tr><th class='l'>span</th><th>count</th><th>cum s</th>"
        "<th>self s</th><th>mean ms</th><th>max ms</th></tr>"
    ]
    for h in hotspots:
        out.append(
            f"<tr><td class='l'><code>{_esc(h.name)}</code></td>"
            f"<td>{h.count}</td><td>{h.cum_s:.4f}</td><td>{h.self_s:.4f}</td>"
            f"<td>{h.mean_s * 1e3:.3f}</td><td>{h.max_s * 1e3:.3f}</td></tr>"
        )
    out.append("</table>")
    out.append(
        f"<p class='meta'>total traced {profiler.total_s:.4f}s; self = time "
        "not inside a child span</p>"
    )
    return "".join(out)


def _locality_section(records) -> str:
    report = query_locality(records)
    if not report.total:
        return "<p class='meta'>no oracle queries in trace</p>"
    out = [
        "<table><tr><th>machine</th><th>queries</th><th>unique</th>"
        "<th>repeat</th></tr>"
    ]
    for machine in sorted(report.per_machine):
        loc = report.per_machine[machine]
        out.append(
            f"<tr><td>{machine}</td><td>{loc.total}</td><td>{loc.unique}</td>"
            f"<td>{loc.repeat_fraction:.1%}</td></tr>"
        )
    out.append(
        f"<tr><th class='l'>all</th><th>{report.total}</th>"
        f"<th>{report.unique}</th><th>{report.repeat_fraction:.1%}</th></tr>"
    )
    out.append("</table>")
    return "".join(out)


def _critical_path_section(records) -> str:
    path = critical_path(records)
    if not path:
        return "<p class='meta'>no machine steps in trace</p>"
    total = sum(step.dur_s for step in path)
    worst = sorted(path, key=lambda s: -s.dur_s)[:8]
    out = [
        f"<p>critical path over {len(path)} rounds: "
        f"<strong>{total * 1e3:.3f}ms</strong> of machine compute "
        "(latency floor of a perfectly parallel execution); "
        "slowest steps:</p>",
        "<table><tr><th>round</th><th>machine</th><th>ms</th></tr>",
    ]
    for step in worst:
        out.append(
            f"<tr><td>{step.round}</td><td>{step.machine}</td>"
            f"<td>{step.dur_s * 1e3:.3f}</td></tr>"
        )
    out.append("</table>")
    return "".join(out)


def _estimates_section(records) -> str:
    """Monte-Carlo estimates with 95% CIs, from ``trial.result`` events.

    The same streaming accumulators the live
    :class:`~repro.obs.convergence.ConvergenceMonitor` uses, replayed
    over the recorded stream; ``estimate.converged`` events mark when
    each estimate stabilized.
    """
    from repro.obs.convergence import estimates_from_records

    monitor = estimates_from_records(records)
    if not monitor.names:
        return "<p class='meta'>no trial-stream estimates in trace</p>"
    converged = {
        r.attrs.get("estimate"): r.attrs.get("n")
        for r in records
        if r.name == "estimate.converged"
    }
    out = [
        "<table><tr><th class='l'>estimate</th><th>n</th><th>value</th>"
        "<th>95% CI</th><th>half-width</th><th>converged</th></tr>"
    ]
    for name, stats in monitor.estimates().items():
        half = (
            "∞" if stats.half_width == float("inf")
            else f"{stats.half_width:.4f}"
        )
        at = converged.get(name)
        out.append(
            f"<tr><td class='l'><code>{_esc(name)}</code></td>"
            f"<td>{stats.n}</td><td>{stats.value:.4f}</td>"
            f"<td>[{stats.low:.4f}, {stats.high:.4f}]</td>"
            f"<td>{half}</td>"
            f"<td>{f'@ n={at}' if at is not None else '—'}</td></tr>"
        )
    out.append("</table>")
    out.append(
        "<p class='meta'>intervals are Wilson (binary trials) or "
        "t-based (real-valued), accumulated online from the "
        "<code>trial.result</code> stream</p>"
    )
    return "".join(out)


def _cost_section(records) -> str:
    """Predicted vs measured: the cost-oracle ledgers in the trace.

    One row per checked counter from the ``cost.predicted`` events a
    subscribed :class:`~repro.costmodel.CostOracle` emitted (``repro
    trace`` / ``repro run-all`` attach one automatically when sympy is
    available).  Drifted counters get the highlighted ``drift`` row
    treatment so a regression is visible without reading numbers.
    """
    from repro.costmodel.ledger import ledger_from_records

    ledgers = ledger_from_records(records)
    if not ledgers:
        return (
            "<p class='meta'>no cost.predicted events in trace (run under "
            "<code>repro trace</code> with sympy installed to attach the "
            "cost oracle)</p>"
        )

    def fmt(value) -> str:
        if value is None:
            return "—"
        if isinstance(value, float):
            return f"{value:.6g}"
        return str(value)

    mismatched = 0
    checked = 0
    out = [
        "<table><tr><th class='l'>model</th><th class='l'>counter</th>"
        "<th>predicted</th><th>measured</th><th>drift</th>"
        "<th class='l'>status</th><th class='l'>paper ref</th></tr>"
    ]
    for ledger in ledgers:
        model = ledger.get("model", "?")
        status = ledger.get("status", "?")
        entries = ledger.get("entries") or []
        if not entries:
            note = ledger.get("note", "")
            out.append(
                f"<tr><td class='l'><code>{_esc(model)}</code></td>"
                f"<td class='l' colspan='5'>{_esc(note or '—')}</td>"
                f"<td class='l'>{_esc(status)}</td></tr>"
            )
            continue
        for entry in entries:
            kind = entry.get("kind", "exact")
            if kind == "band":
                predicted = f"[{fmt(entry.get('lo'))}, {fmt(entry.get('hi'))}]"
            elif kind == "bound":
                predicted = f"&le; {fmt(entry.get('predicted'))}"
                if entry.get("slack") is not None:
                    predicted += f" (+{fmt(entry.get('slack'))})"
            else:
                predicted = fmt(entry.get("predicted"))
            measured = entry.get("measured")
            entry_status = entry.get("status", "?")
            if entry_status in ("match", "mismatch"):
                checked += 1
            drift = ""
            cls = ""
            if entry_status == "mismatch":
                mismatched += 1
                cls = " class='drift'"
                p = entry.get("predicted")
                if isinstance(measured, (int, float)) and isinstance(
                    p, (int, float)
                ):
                    drift = f"{measured - p:+g}"
                else:
                    drift = "drift"
            out.append(
                f"<tr{cls}><td class='l'><code>{_esc(model)}</code></td>"
                f"<td class='l'>{_esc(entry.get('counter', '?'))}</td>"
                f"<td>{predicted}</td><td>{fmt(measured)}</td>"
                f"<td>{_esc(drift)}</td>"
                f"<td class='l'>{_esc(entry_status)}</td>"
                f"<td class='l'>{_esc(entry.get('ref', ''))}</td></tr>"
            )
    out.append("</table>")
    if mismatched:
        out.append(
            f"<p class='violation'>{mismatched} of {checked} checked "
            "counters drifted from their symbolic predictions</p>"
        )
    else:
        out.append(
            f"<p class='ok'>all {checked} checked counters match their "
            "symbolic predictions exactly (or within declared slack)</p>"
        )
    out.append(
        "<p class='meta'>predictions are closed-form sympy formulas per "
        "protocol (see <code>repro cost show</code>); exact kinds must "
        "match bit for bit, bands bracket randomized round counts, "
        "bounds carry declared Monte-Carlo slack</p>"
    )
    return "".join(out)


def _telemetry_section(records) -> str:
    """Runtime telemetry: RSS/CPU sparklines, worker lanes, overhead.

    Built from ``telemetry.*`` records when the trace was captured with
    ``--telemetry``; renders a hint otherwise.
    """
    samples = [r for r in records if r.name == "telemetry.sample"]
    heartbeats = [r for r in records if r.name == "telemetry.heartbeat"]
    stalls = [r for r in records if r.name == "telemetry.stall"]
    overheads = [r for r in records if r.name == "telemetry.overhead"]
    if not (samples or heartbeats or overheads):
        return (
            "<p class='meta'>no runtime telemetry in this trace "
            "(re-run with <code>--telemetry</code>)</p>"
        )
    out = []

    rss = [float(r.attrs["rss_kb"]) / 1024.0 for r in samples
           if r.attrs.get("rss_kb") is not None]
    cpu = [
        float(r.attrs.get("cpu_user_s") or 0.0)
        + float(r.attrs.get("cpu_sys_s") or 0.0)
        for r in samples
    ]
    for label, values, unit in (("RSS", rss, "MiB"), ("CPU", cpu, "s")):
        if values:
            out.append(
                f"<div class='sparkrow'>{_sparkline(values)}"
                f"<strong>{label} ({unit})</strong> "
                f"<span class='meta'>({len(values)} samples; "
                f"min {min(values):.2f} · max {max(values):.2f})</span></div>"
            )

    if heartbeats:
        lanes: dict[int, dict] = {}
        for r in heartbeats:
            worker = int(r.attrs.get("worker", 0) or 0)
            trial = int(r.attrs.get("trial", 0) or 0)
            elapsed = float(r.attrs.get("elapsed_s") or 0.0)
            lane = lanes.setdefault(
                worker, {"count": 0, "slowest": (0.0, trial)}
            )
            lane["count"] += 1
            if elapsed > lane["slowest"][0]:
                lane["slowest"] = (elapsed, trial)
        out.append(
            "<table><tr><th class='l'>worker</th><th>heartbeats</th>"
            "<th>slowest trial</th><th>slowest (ms)</th></tr>"
        )
        for worker, lane in sorted(
            lanes.items(), key=lambda kv: (-kv[1]["slowest"][0], kv[0])
        ):
            slow_s, slow_trial = lane["slowest"]
            out.append(
                f"<tr><td class='l'>{worker}</td><td>{lane['count']}</td>"
                f"<td>{slow_trial}</td><td>{slow_s * 1e3:.3f}</td></tr>"
            )
        out.append("</table>")

    if overheads:
        a = overheads[-1].attrs
        frac = a.get("overhead_frac")
        out.append(
            "<p class='meta'>tracer self-overhead: "
            f"<strong>{float(a.get('overhead_s') or 0.0) * 1e3:.3f} ms</strong>"
            f" across {a.get('records', '?')} record emissions"
            + (
                f" — <strong>{float(frac) * 100:.2f}%</strong> of wall-clock"
                if frac is not None else ""
            )
            + "</p>"
        )

    if stalls:
        out.append(
            f"<p class='violation'>{len(stalls)} worker stall(s):</p><ul>"
        )
        for s in stalls:
            out.append(
                f"<li class='violation'>{_esc(s.attrs.get('message'))}</li>"
            )
        out.append("</ul>")
    elif heartbeats:
        out.append(
            f"<p class='ok'>no stalls across {len(heartbeats)} "
            "heartbeat(s)</p>"
        )
    return "".join(out)


def _violations_section(records) -> str:
    violations = [r for r in records if r.name == "monitor.violation"]
    if not violations:
        return "<p class='ok'>no invariant violations recorded</p>"
    out = [f"<p class='violation'>{len(violations)} violations:</p><ul>"]
    for v in violations:
        out.append(
            f"<li class='violation'><code>{_esc(v.attrs.get('check'))}</code>"
            f" — {_esc(v.attrs.get('message'))}</li>"
        )
    out.append("</ul>")
    return "".join(out)


def _forensics_section(records) -> str:
    """Anomaly triage (:func:`repro.obs.forensics.triage`) as HTML.

    The report twin of ``repro why``: each ``monitor.violation`` /
    ``cost.mismatch`` with its enclosing span chain, nearest per-round
    counter deltas, and the records immediately preceding it.
    """
    anomalies = triage(records)
    if not anomalies:
        return (
            "<p class='ok'>no anomalies: no monitor.violation or "
            "cost.mismatch events in this trace</p>"
        )
    out = [
        f"<p class='violation'>{len(anomalies)} "
        f"anomal{'y' if len(anomalies) == 1 else 'ies'} "
        "(see <code>repro why</code> for the same triage on the CLI):</p>"
    ]
    for anomaly in anomalies:
        out.append(
            f"<details open><summary class='violation'>"
            f"{_esc(anomaly.headline)}</summary><ul>"
        )
        for label, items in (
            ("span chain", anomaly.chain),
            ("nearest counter deltas", anomaly.counter_deltas),
            ("preceding records", anomaly.preceding),
        ):
            if items:
                out.append(f"<li class='l'><strong>{label}</strong><ul>")
                out.extend(
                    f"<li class='l'><code>{_esc(item)}</code></li>"
                    for item in items
                )
                out.append("</ul></li>")
        out.append("</ul></details>")
    return "".join(out)


def render_html(records, *, title: str | None = None) -> str:
    """The self-contained HTML report for one trace."""
    records = list(records)
    experiment_ids = [
        r.attrs.get("experiment_id", "?")
        for r in records
        if r.name == "experiment" and r.kind == "span"
    ]
    if title is None:
        title = "trace report" + (
            f" — {', '.join(experiment_ids)}" if experiment_ids else ""
        )
    profiler = SpanProfiler.of(records)
    series = _round_series(records)

    sparkrows = []
    for label, values in series.items():
        stats = (
            f"min {min(values):g} · max {max(values):g}" if values else "empty"
        )
        sparkrows.append(
            f"<div class='sparkrow'>{_sparkline(values)}"
            f"<strong>{_esc(label)}</strong> "
            f"<span class='meta'>({len(values)} rounds; {stats})</span></div>"
        )

    headline = "".join(
        f"<tr><td class='l'><code>{_esc(k)}</code></td><td>{_esc(v)}</td></tr>"
        for k, v in _headline_rows(records)
    )

    parts = [
        "<!doctype html><html lang='en'><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class='meta'>{len(records)} trace records · "
        f"{len(experiment_ids)} experiment span(s)</p>",
        "<h2>Headline metrics</h2>",
        f"<table><tr><th class='l'>metric</th><th>value</th></tr>"
        f"{headline}</table>",
        "<h2>Per-round shape</h2>",
        *sparkrows,
        "<h2>Predicted vs measured (cost oracle)</h2>",
        _cost_section(records),
        "<h2>Estimates &amp; convergence</h2>",
        _estimates_section(records),
        "<h2>Hotspots</h2>",
        _hotspot_section(profiler),
        "<h2>Communication matrix</h2>",
        _matrix_section(records),
        "<h2>Oracle-query locality</h2>",
        _locality_section(records),
        "<h2>Critical path</h2>",
        _critical_path_section(records),
        "<h2>Invariant monitor</h2>",
        _violations_section(records),
        "<h2>Forensics</h2>",
        _forensics_section(records),
        "<h2>Runtime telemetry</h2>",
        _telemetry_section(records),
        "</body></html>",
    ]
    return "".join(parts)


def write_html_report(records, path: str, *, title: str | None = None) -> int:
    """Write the HTML report; returns the number of bytes written."""
    content = render_html(records, title=title)
    with open(path, "w") as fh:
        fh.write(content)
    return len(content)

