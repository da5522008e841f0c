"""One measured pass, run in a fresh process.

    python -m benchmarks.e2e.child MODE [SCALE ID...]

``MODE`` is ``probe`` (only time ``import repro.experiments``),
``pass`` (untraced, unwrapped: the timed passes), ``layer`` (under
:class:`~benchmarks.e2e.layers.LayerProfile`) or ``traced`` (under a
``Tracer(keep_records=False)`` with one counting subscriber).  The
experiments run in the order given.  An experiment that raises counts
as failed and the pass goes on.  The last line of standard output is
one JSON object; nothing is written to disk.
"""

from __future__ import annotations

import hashlib
import json
import sys
from time import perf_counter


def _vm_hwm_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def run_pass(scale: str, ids: list[str]) -> tuple[float, list[dict]]:
    """Run each experiment once; returns (seconds inside run_experiment,
    one result row per experiment)."""
    from repro.experiments import run_experiment

    total = 0.0
    rows = []
    for eid in ids:
        start = perf_counter()
        try:
            result = run_experiment(eid, scale)
        except Exception as exc:  # noqa: BLE001 - counted as a failed run
            elapsed = perf_counter() - start
            row = {"passed": False, "digest": None,
                   "error": f"{type(exc).__name__}: {exc}"}
        else:
            elapsed = perf_counter() - start
            digest = hashlib.sha256(result.render().encode()).hexdigest()
            row = {"passed": result.passed, "digest": digest, "error": None}
        total += elapsed
        rows.append({"id": eid, "s": elapsed, **row})
    return total, rows


def main(argv: list[str]) -> dict:
    mode, scale, ids = argv[0], (argv[1] if len(argv) > 1 else ""), argv[2:]
    start = perf_counter()
    import repro.experiments  # noqa: F401
    out: dict = {"import_s": perf_counter() - start}
    if mode == "probe":
        return out
    if mode == "layer":
        from benchmarks.e2e.layers import LayerProfile

        profile = LayerProfile().install()
        out["wall_s"], out["results"] = run_pass(scale, ids)
        out.update(profile.totals())
    elif mode == "traced":
        from repro.obs import Tracer, use_tracer

        records = [0]

        def count(_record) -> None:
            records[0] += 1

        tracer = Tracer(keep_records=False, subscribers=[count])
        with use_tracer(tracer):
            out["wall_s"], out["results"] = run_pass(scale, ids)
        out["records"] = records[0]
    elif mode == "pass":
        out["wall_s"], out["results"] = run_pass(scale, ids)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["vm_hwm_kib"] = _vm_hwm_kib()
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
