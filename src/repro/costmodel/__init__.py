"""Symbolic cost models: exact predicted-vs-measured counter ledgers.

The paper's protocols have *closed-form* costs: the chain protocol's
message traffic, the pipeline's round count, the RAM programs'
instruction totals are all exact functions of ``(n, m, s, q, T)`` (plus
the derived ``u, v, b``).  The tracer already measures every one of
those counters; this package writes the formulas down **symbolically**
(sympy), annotates each with its paper reference, and checks measured
runs against the predictions -- exactly, or within a declared and
justified slack term.

Layers:

* :mod:`repro.costmodel.backend`  -- the lazy sympy gate (the rest of
  the CLI works without sympy; cost commands fail with a clear message);
* :mod:`repro.costmodel.symbols`  -- shared symbols and the bit-width
  helpers (``bits_needed``, STORE/FRONTIER sizes) as sympy expressions;
* :mod:`repro.costmodel.formulas` -- :class:`CounterFormula` /
  :class:`CostModel`: one counter prediction, one protocol's ledger;
* :mod:`repro.costmodel.models`   -- the registry: chain, pipeline,
  fullmem, pointer-jump, guessing, RAM programs, encoding schemes,
  bound formulas;
* :mod:`repro.costmodel.announce` -- sympy-free helpers protocols use
  to emit ``cost.model`` announcement events;
* :mod:`repro.costmodel.oracle`   -- :class:`CostOracle`, the tracer
  subscriber pairing announcements with ``mpc.run`` / ``ram.run`` spans
  and emitting ``cost.predicted`` / ``cost.mismatch`` events;
* :mod:`repro.costmodel.ledger`   -- rendering: formula listings
  (pretty / LaTeX), numeric evaluation tables, predicted-vs-measured
  ledgers for the CLI.

See docs/OBSERVABILITY.md ("Cost-model oracle") and docs/PAPER_MAP.md
(formula cross-reference).

Each name below is importable from this package; the submodule that
defines it is imported when the name is first used
(:func:`repro._lazy.lazy_exports`).  The protocols import
:mod:`repro.costmodel.announce` directly, so an untraced run loads no
other part of the package.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "announce": (
        "chain_cost_bindings",
        "fullmem_cost_bindings",
        "pipeline_cost_bindings",
        "pointer_jump_cost_bindings",
    ),
    "backend": ("CostModelUnavailable", "available", "require_sympy"),
    "formulas": ("CostEntry", "CostEvalError", "CostModel", "CounterFormula"),
    "ledger": ("eval_table", "render_formulas", "render_ledger"),
    "models": (
        "all_models",
        "cost_model_for",
        "model_ids",
        "paper_table2_constraints",
        "paper_table3_constraints",
        "runner_model_map",
    ),
    "oracle": (
        "CostCheck",
        "CostMismatchError",
        "CostOracle",
        "check_trace_records",
    ),
})
