"""Rendering for the cost models: formula listings, eval tables, ledgers.

Three audiences:

* ``repro cost show``  -- :func:`render_formulas` (plain or LaTeX);
* ``repro cost eval``  -- :func:`eval_table`, a numeric table of every
  formula at concrete bindings;
* ``repro cost check`` / ``repro trace`` -- :func:`render_ledger`
  prints the predicted-vs-measured table with drift called out.
"""

from __future__ import annotations

from repro.analysis.tables import format_table
from repro.costmodel.backend import require_sympy
from repro.costmodel.formulas import CostModel

__all__ = [
    "render_formulas",
    "eval_table",
    "render_ledger",
]


def _expr_str(expr, *, latex: bool) -> str:
    sp = require_sympy()
    return sp.latex(expr) if latex else sp.sstr(expr)


def _formula_lines(formula, *, latex: bool) -> list[str]:
    if formula.kind == "band":
        body = (
            f"{_expr_str(formula.lo, latex=latex)}  <=  {formula.counter}"
            f"  <=  {_expr_str(formula.hi, latex=latex)}"
        )
    elif formula.kind == "bound":
        body = (
            f"{formula.counter}  <=  {_expr_str(formula.expr, latex=latex)}"
            f"  +  {_expr_str(formula.slack, latex=latex)}"
        )
    else:
        body = f"{formula.counter}  =  {_expr_str(formula.expr, latex=latex)}"
    lines = [f"  {body}"]
    detail = f"[{formula.kind}] {formula.ref}"
    if formula.note:
        detail += f" -- {formula.note}"
    lines.append(f"      {detail}")
    return lines


def render_formulas(models: list[CostModel], *, latex: bool = False) -> str:
    """The ``repro cost show`` listing: every formula with its reference."""
    lines: list[str] = []
    for model in models:
        lines.append(f"{model.model_id} -- {model.title}")
        lines.append(f"  trigger: {model.trigger}    ref: {model.ref}")
        if model.guard_note:
            lines.append(f"  applies when: {model.guard_note}")
        for formula in model.formulas:
            lines.extend(_formula_lines(formula, latex=latex))
        lines.append("")
    return "\n".join(lines).rstrip()


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def eval_table(model: CostModel, bindings: dict) -> str:
    """Numeric evaluation of every formula at concrete bindings."""
    rows = []
    for entry in model.predict(bindings):
        if entry.kind == "band":
            value = f"[{_fmt(entry.lo)}, {_fmt(entry.hi)}]"
        elif entry.kind == "bound":
            value = f"<= {_fmt(entry.predicted)} (+{_fmt(entry.slack)})"
        else:
            value = _fmt(entry.predicted)
        rows.append((
            entry.counter,
            entry.kind,
            value if entry.status != "skipped" else f"n/a ({entry.note})",
            entry.ref,
        ))
    binding_str = ", ".join(
        f"{k}={v}" for k, v in sorted(bindings.items())
    )
    return format_table(
        ("counter", "kind", "predicted", "paper ref"),
        rows,
        title=f"{model.model_id} @ {binding_str}",
    )


def render_ledger(ledgers: list[dict], *, title: str = "") -> str:
    """The predicted-vs-measured table, one row per checked counter."""
    if not ledgers:
        return "no cost.predicted events (no announced models ran)"
    rows = []
    for ledger in ledgers:
        model = ledger.get("model", "?")
        status = ledger.get("status", "?")
        entries = ledger.get("entries") or []
        if not entries:
            rows.append((model, "-", "-", "-", "-", status))
            continue
        for entry in entries:
            kind = entry.get("kind", "exact")
            if kind == "band":
                predicted = f"[{_fmt(entry.get('lo'))}, {_fmt(entry.get('hi'))}]"
            elif kind == "bound":
                predicted = f"<= {_fmt(entry.get('predicted'))}"
                if entry.get("slack") is not None:
                    predicted += f" (+{_fmt(entry.get('slack'))})"
            else:
                predicted = _fmt(entry.get("predicted"))
            measured = entry.get("measured")
            drift = ""
            if entry.get("status") == "mismatch":
                p = entry.get("predicted")
                if isinstance(measured, (int, float)) and isinstance(
                    p, (int, float)
                ):
                    drift = f"{measured - p:+g}"
                else:
                    drift = "DRIFT"
            rows.append((
                model,
                entry.get("counter", "?"),
                predicted,
                _fmt(measured),
                drift,
                entry.get("status", "?"),
            ))
    return format_table(
        ("model", "counter", "predicted", "measured", "drift", "status"),
        rows,
        title=title or "Predicted vs measured",
    )
