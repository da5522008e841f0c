"""The cost oracle: a tracer subscriber asserting predicted counters.

:class:`CostOracle` rides the same fan-out as
:class:`repro.obs.InvariantMonitor`: protocols emit a ``cost.model``
announcement (model id + bindings) just before starting a run, the
simulator/interpreter closes its ``mpc.run`` / ``ram.run`` span with
the measured counters, and the oracle pairs the two, evaluates the
model's formulas, and emits

* ``cost.predicted`` -- one structured ledger event per checked run
  (every counter with its prediction, measurement, and status);
* ``cost.mismatch``  -- one event per drifted counter, alongside the
  existing ``monitor.violation`` stream.

``inline`` models (Monte-Carlo estimators) carry their measurement in
the announcement itself and are checked on receipt.  Announcements pair
with the *next* matching span close; trial fan-out replays worker
records chunk-by-chunk in order, so per-run streams stay linear and the
pairing is exact under ``--jobs N`` too.

Strict mode raises :class:`CostMismatchError` at the first drifted
counter, turning any traced run into a hard regression gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.backend import require_sympy
from repro.costmodel.formulas import CostEntry
from repro.costmodel.models import cost_model_for

__all__ = [
    "CostCheck",
    "CostMismatchError",
    "CostOracle",
    "check_trace_records",
]

#: Span names whose close carries measured counters, with the counter
#: attribute names each one exposes.
_TRIGGER_COUNTERS = {
    "mpc.run": (
        "rounds",
        "total_messages",
        "total_message_bits",
        "total_oracle_queries",
    ),
    "ram.run": ("instructions", "time", "oracle_queries", "peak_memory_words"),
}


class CostMismatchError(RuntimeError):
    """Strict mode: a measured counter drifted from its prediction."""

    def __init__(self, model_id: str, entry: CostEntry) -> None:
        self.model_id = model_id
        self.entry = entry
        expected = (
            f"[{entry.lo}, {entry.hi}]" if entry.kind == "band"
            else (
                f"<= {entry.predicted} + {entry.slack}"
                if entry.kind == "bound" else str(entry.predicted)
            )
        )
        super().__init__(
            f"cost mismatch [{model_id}.{entry.counter}]: measured "
            f"{entry.measured}, predicted {expected} ({entry.ref})"
        )


@dataclass
class CostCheck:
    """One paired (announcement, measurement) evaluation."""

    model_id: str
    status: str  # "pass" | "fail" | "skipped" | "inapplicable"
    bindings: dict
    entries: list[CostEntry] = field(default_factory=list)
    note: str = ""

    @property
    def mismatches(self) -> list[CostEntry]:
        """The drifted entries (empty unless status is ``fail``)."""
        return [e for e in self.entries if e.status == "mismatch"]

    def to_attrs(self) -> dict:
        """JSON-safe view for the ``cost.predicted`` event."""
        out = {
            "model": self.model_id,
            "status": self.status,
            "params": dict(self.bindings),
            "entries": [e.to_attrs() for e in self.entries],
        }
        if self.note:
            out["note"] = self.note
        return out


def _record_fields(record) -> tuple[str, str, dict]:
    """Normalize a :class:`TraceRecord` or its JSONL dict form."""
    if isinstance(record, dict):
        return (
            record.get("kind", ""),
            record.get("name", ""),
            record.get("attrs", {}) or {},
        )
    return record.kind, record.name, record.attrs or {}


class CostOracle:
    """Evaluate symbolic cost models against measured trace counters.

    Parameters
    ----------
    strict:
        Raise :class:`CostMismatchError` on the first drifted counter.
    tracer:
        Where to emit ``cost.predicted`` / ``cost.mismatch`` events
        (normally the tracer this oracle subscribes to); ``None`` only
        records.

    Constructing the oracle requires sympy (fail fast, not mid-run).
    """

    def __init__(self, *, strict: bool = False, tracer=None) -> None:
        require_sympy()
        self._strict = strict
        self._tracer = tracer
        self._pending: dict[str, tuple[str, dict]] = {}
        self.checks: list[CostCheck] = []

    # ------------------------------------------------------------------
    @property
    def mismatches(self) -> list[tuple[str, CostEntry]]:
        """Every drifted counter seen, as ``(model_id, entry)`` pairs."""
        out = []
        for check in self.checks:
            out.extend((check.model_id, e) for e in check.mismatches)
        return out

    @property
    def verdict(self) -> str:
        """``pass`` / ``fail`` / ``none`` (nothing was checkable)."""
        evaluated = [c for c in self.checks if c.status in ("pass", "fail")]
        if any(c.status == "fail" for c in evaluated):
            return "fail"
        return "pass" if evaluated else "none"

    def summary(self) -> dict:
        """Deterministic scalar summary (registry / ``runs compare``).

        ``predicted`` holds per-counter totals of the exact predictions
        across all checks -- the flat keys
        ``cost.predicted.<counter>`` become the predicted-value columns
        ``repro runs compare`` diffs between runs.
        """
        by_status: dict[str, int] = {}
        predicted: dict[str, int] = {}
        for check in self.checks:
            by_status[check.status] = by_status.get(check.status, 0) + 1
            for entry in check.entries:
                if entry.kind == "exact" and isinstance(entry.predicted, int):
                    predicted[entry.counter] = (
                        predicted.get(entry.counter, 0) + entry.predicted
                    )
        return {
            "verdict": self.verdict,
            "checks": len(self.checks),
            "passed": by_status.get("pass", 0),
            "failed": by_status.get("fail", 0),
            "skipped": by_status.get("skipped", 0)
            + by_status.get("inapplicable", 0),
            "mismatched_counters": len(self.mismatches),
            "models": sorted({c.model_id for c in self.checks}),
            "predicted": dict(sorted(predicted.items())),
        }

    def render(self) -> str:
        """Human-readable one-line-per-check summary."""
        lines = [f"cost oracle: verdict={self.verdict} "
                 f"({len(self.checks)} checks)"]
        for check in self.checks:
            marks = ", ".join(
                f"{e.counter}={e.measured}"
                + ("" if e.status == "match" else f" (predicted {e.predicted})")
                for e in check.entries
                if e.status in ("match", "mismatch")
            )
            lines.append(f"  [{check.status}] {check.model_id}: {marks or check.note}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def __call__(self, record) -> None:
        kind, name, attrs = _record_fields(record)
        if kind == "event" and name == "cost.model":
            self._on_announcement(attrs)
        elif kind == "span" and name in _TRIGGER_COUNTERS:
            pending = self._pending.pop(name, None)
            if pending is None:
                return
            model_id, bindings = pending
            measured = {
                key: attrs[key]
                for key in _TRIGGER_COUNTERS[name]
                if key in attrs
            }
            if not measured:
                return  # not a close record with counters
            bindings = dict(bindings)
            if "rounds" in measured:
                bindings.setdefault("R", measured["rounds"])
            self._evaluate(
                model_id, bindings, measured, halted=attrs.get("halted")
            )

    def _on_announcement(self, attrs: dict) -> None:
        model_id = attrs.get("model")
        if not model_id:
            return
        bindings = dict(attrs.get("params") or {})
        trigger = attrs.get("trigger")
        if trigger == "inline":
            self._evaluate(
                model_id, bindings, dict(attrs.get("measured") or {}),
                halted=None,
            )
        elif trigger in _TRIGGER_COUNTERS:
            # Latest announcement wins: a crashed run never pairs.
            self._pending[trigger] = (model_id, bindings)

    def _evaluate(
        self, model_id: str, bindings: dict, measured: dict, *, halted
    ) -> None:
        try:
            model = cost_model_for(model_id)
        except KeyError:
            self._finish(CostCheck(
                model_id, "skipped", bindings, note="unknown model id"
            ))
            return
        if not model.applicable(bindings):
            self._finish(CostCheck(
                model_id, "inapplicable", bindings,
                note=model.guard_note or "model guard rejected bindings",
            ))
            return
        if halted is False:
            self._finish(CostCheck(
                model_id, "skipped", bindings,
                note="run hit max_rounds without halting",
            ))
            return
        entries = model.check(bindings, measured)
        evaluated = [e for e in entries if e.status in ("match", "mismatch")]
        if not evaluated:
            self._finish(CostCheck(
                model_id, "skipped", bindings, entries=entries,
                note="no measured counters matched the model",
            ))
            return
        status = "fail" if any(
            e.status == "mismatch" for e in evaluated
        ) else "pass"
        self._finish(CostCheck(model_id, status, bindings, entries=entries))

    def _finish(self, check: CostCheck) -> None:
        self.checks.append(check)
        if self._tracer is not None:
            self._tracer.event("cost.predicted", **check.to_attrs())
            for entry in check.mismatches:
                attrs = entry.to_attrs()
                attrs["model"] = check.model_id
                drift = entry.drift
                if drift is not None:
                    attrs["drift"] = drift
                self._tracer.event("cost.mismatch", **attrs)
        if self._strict and check.mismatches:
            raise CostMismatchError(check.model_id, check.mismatches[0])


def check_trace_records(records, *, strict: bool = False) -> CostOracle:
    """Replay captured records (or JSONL dicts) through a fresh oracle.

    The offline twin of live subscription: ``repro cost check --trace``
    and the drift-injection tests feed saved traces through this.
    """
    oracle = CostOracle(strict=strict)
    for record in records:
        oracle(record)
    return oracle
