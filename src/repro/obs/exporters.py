"""Trace exporters: JSONL files and human-readable summaries.

A trace leaves the process in one of three shapes:

* **JSONL** -- one :class:`~repro.obs.tracer.TraceRecord` per line via
  :class:`JsonlExporter` (streaming, usable as a ``Tracer`` sink) or
  :func:`write_jsonl` (one shot).  :func:`read_jsonl` round-trips the
  file back into records for offline analysis.
* **summary** -- :func:`summarize` renders the per-name span/event
  totals as the compact table ``repro trace`` prints.
* **metrics** -- :class:`repro.obs.metrics.TraceMetrics` aggregates the
  model-level counters; see that module.
"""

from __future__ import annotations

import json
import warnings
from typing import IO, Iterable, Iterator, Sequence

from repro.obs.tracer import TraceRecord

__all__ = [
    "JsonlExporter",
    "TraceFormatError",
    "coerce_jsonable",
    "write_jsonl",
    "read_jsonl",
    "iter_trace_records",
    "summarize",
]


class TraceFormatError(ValueError):
    """A JSONL file is not a trace (bad JSON mid-file, or rows that are
    not ``{kind, name, ...}`` record objects).

    Raised by :func:`iter_trace_records` so CLI consumers can exit with
    a clear message instead of a traceback.  A *final* unparseable line
    is not an error -- it is the signature of a run killed mid-write,
    and is tolerated with one warning.
    """


def _json_default(value: object) -> object:
    # numpy scalars (np.int64 bits counts, np.float64 probabilities)
    # leak into attrs from vectorized experiments; unwrap them rather
    # than killing the export mid-run.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            unwrapped = item()
        except (TypeError, ValueError):
            unwrapped = value
        if isinstance(unwrapped, (bool, int, float, str)):
            return unwrapped
    return repr(value)


def coerce_jsonable(value):
    """Recursively force ``value`` into JSON-serializable shape.

    Mapping keys become strings, sequences become lists, scalar
    primitives pass through, and anything else (a stray ``Bits``, a
    numpy scalar, an exception object) is repr- or ``.item()``-coerced.
    Used by the JSONL exporter's fallback path and the Chrome-trace
    exporter, so one weird attr value degrades to a string instead of
    aborting an export.
    """
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): coerce_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [coerce_jsonable(v) for v in value]
    return _json_default(value)


def _dump_record(row: dict) -> str:
    try:
        return json.dumps(row, sort_keys=True, default=_json_default)
    except (TypeError, ValueError):
        # Mixed-type dict keys (sort_keys chokes) or similar: sanitize
        # the whole row and try once more.
        return json.dumps(coerce_jsonable(row), sort_keys=True)


class JsonlExporter:
    """Streams records to a JSONL file; usable as a ``Tracer`` sink.

    Crash-safe: every record is written as one complete newline-ended
    line and the stream is flushed every ``flush_every`` records, so a
    run that dies mid-experiment (exception, or even SIGKILL between
    flushes) still leaves a parseable JSONL prefix on disk.  Robust to
    attr payloads: values ``json`` cannot serialize (numpy scalars,
    ``Bits``, exceptions) are ``.item()``/repr-coerced instead of
    aborting the export (see :func:`coerce_jsonable`).  The
    context-manager form flushes and closes on both clean and
    exceptional exit::

        with JsonlExporter("trace.jsonl") as sink:
            with use_tracer(Tracer(sink=sink)):
                ...
    """

    def __init__(self, path: str, *, flush_every: int = 1) -> None:
        if flush_every <= 0:
            raise ValueError(f"flush_every must be positive, got {flush_every}")
        self._path = path
        self._fh: IO[str] | None = open(path, "w")
        self._flush_every = flush_every
        self.written = 0

    @property
    def path(self) -> str:
        return self._path

    @property
    def closed(self) -> bool:
        return self._fh is None

    def __call__(self, record: TraceRecord) -> None:
        if self._fh is None:
            raise ValueError(f"exporter for {self._path} is closed")
        # Every line ends with \n *after* a successful dump, so the file
        # always ends with a newline and a record whose serialization
        # fails (already softened by repr-coercion) cannot leave a
        # partial line behind.
        self._fh.write(_dump_record(record.to_dict()) + "\n")
        self.written += 1
        if self.written % self._flush_every == 0:
            self._fh.flush()

    def flush(self) -> None:
        """Push buffered lines to disk (no-op once closed)."""
        if self._fh is not None:
            self._fh.flush()

    def close(self) -> None:
        """Flush and close; idempotent."""
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlExporter":
        return self

    def __exit__(self, *exc) -> None:
        # Close on exceptions too: the file must stay parseable when
        # the traced workload fails (see tests/obs/test_exporters.py).
        self.close()


def write_jsonl(records: Iterable[TraceRecord], path: str) -> int:
    """Write ``records`` to ``path``; returns the number written."""
    with JsonlExporter(path) as sink:
        for record in records:
            sink(record)
        return sink.written


def _record_of_row(row: object, path: str, line_no: int) -> TraceRecord:
    if (
        not isinstance(row, dict)
        or not isinstance(row.get("kind"), str)
        or not isinstance(row.get("name"), str)
    ):
        raise TraceFormatError(
            f"{path}:{line_no}: not a trace record (expected an object "
            "with 'kind' and 'name' keys)"
        )
    return TraceRecord(
        kind=row["kind"],
        name=row["name"],
        ts=row.get("ts", 0.0),
        dur=row.get("dur"),
        attrs=row.get("attrs", {}),
    )


def iter_trace_records(path: str) -> Iterator[TraceRecord]:
    """Stream a JSONL trace as :class:`TraceRecord` objects, lazily.

    The one loading path every offline consumer shares
    (``trace-diff``, ``cost check --trace``): records are yielded one
    line at a time, so a multi-hundred-MB trace never has to fit in
    memory unless the caller materializes it.

    Crash tolerance: a run killed between the exporter's write and its
    flush can leave a *truncated final line*.  That line is skipped
    with a single :class:`RuntimeWarning` instead of aborting -- every
    complete record before it is still usable.  Bad JSON anywhere
    *else*, or rows that are not record objects, raise
    :class:`TraceFormatError` (the file is not a trace).
    """
    with open(path) as fh:
        pending: tuple[int, str] | None = None
        line_no = 0
        for raw in fh:
            line_no += 1
            line = raw.strip()
            if not line:
                continue
            if pending is not None:
                # The unparseable line was not final after all.
                raise TraceFormatError(
                    f"{path}:{pending[0]}: invalid JSON mid-trace: "
                    f"{pending[1]}"
                )
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                pending = (line_no, str(exc))
                continue
            yield _record_of_row(row, path, line_no)
        if pending is not None:
            warnings.warn(
                f"{path}:{pending[0]}: skipping truncated final line "
                "(run died mid-write?)",
                RuntimeWarning,
                stacklevel=2,
            )


def read_jsonl(path: str) -> list[TraceRecord]:
    """Load a JSONL trace back into :class:`TraceRecord` objects.

    Materializing twin of :func:`iter_trace_records` (same tolerance
    for a truncated final line); prefer the iterator for single-pass
    consumers over large traces.
    """
    return list(iter_trace_records(path))


def summarize(records: Sequence[TraceRecord]) -> str:
    """The human-readable rollup: count and total duration per name.

    One line per distinct record name, spans first (with total/mean
    duration), then events (count only), ordered by total time spent.
    """
    spans: dict[str, tuple[int, float]] = {}
    events: dict[str, int] = {}
    for rec in records:
        if rec.kind == "span":
            count, total = spans.get(rec.name, (0, 0.0))
            spans[rec.name] = (count + 1, total + (rec.dur or 0.0))
        else:
            events[rec.name] = events.get(rec.name, 0) + 1

    lines = [f"trace summary: {len(records)} records"]
    if spans:
        width = max(len(n) for n in spans)
        lines.append("  spans:")
        for name, (count, total) in sorted(
            spans.items(), key=lambda kv: -kv[1][1]
        ):
            mean = total / count
            lines.append(
                f"    {name:<{width}}  x{count:<6} total {total:9.4f}s  "
                f"mean {mean * 1e3:9.3f}ms"
            )
    if events:
        width = max(len(n) for n in events)
        lines.append("  events:")
        for name, count in sorted(events.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<{width}}  x{count}")
    return "\n".join(lines)
