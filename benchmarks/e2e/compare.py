"""Compare two benchmark results: ``python -m benchmarks.e2e compare A B``.

``A`` and ``B`` are files written by ``--out``, ``A`` the reference.
For every workload and end-to-end metric in ``BENCHMARK.json`` it
prints both medians, both quartile ranges and the change of ``B``
against ``A``, and marks a change worse than the metric's bound.  A
rise in the share of failed experiment runs is always a regression.
Exit status 1 when anything regressed or is missing from ``B``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from benchmarks.e2e.spec import load_benchmark


def compare(a: dict, b: dict, end_to_end: list[dict]) -> tuple[list[str], bool]:
    """Report lines, and whether ``b`` regressed against ``a``."""
    lines, regressed = [], False
    for workload, ra in a["workloads"].items():
        rb = b["workloads"].get(workload)
        if rb is None:
            lines.append(f"{workload}: missing from B")
            regressed = True
            continue
        for spec in end_to_end:
            name = spec["name"]
            ma, mb = ra["metrics"].get(name), rb["metrics"].get(name)
            if ma is None or mb is None:
                continue
            change = (mb["value"] - ma["value"]) / ma["value"]
            worse = change if spec["better"] == "lower" else -change
            bad = worse > spec["bound"]
            regressed |= bad
            lines.append(
                f"{workload:16s} {name:12s} "
                f"A {ma['value']:.4g} [{ma['q1']:.4g}, {ma['q3']:.4g}]  "
                f"B {mb['value']:.4g} [{mb['q1']:.4g}, {mb['q3']:.4g}]  "
                f"{change:+.1%} (bound {spec['bound']:.0%})"
                f"{'  REGRESSION' if bad else ''}")
        bad = rb["fail_frac"] > ra["fail_frac"]
        regressed |= bad
        lines.append(
            f"{workload:16s} {'fail_frac':12s} A {ra['fail_frac']:.4g}  "
            f"B {rb['fail_frac']:.4g}  (bound: no increase)"
            f"{'  REGRESSION' if bad else ''}")
    return lines, regressed


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    p.add_argument("a", type=Path, help="reference result (--out file)")
    p.add_argument("b", type=Path, help="result to check against it")
    args = p.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    for label, result in (("A", a), ("B", b)):
        stamp = result["stamp"]
        print(f"{label}: git {stamp['git_sha']}, load "
              f"{stamp['load_start']:.2f} -> {stamp['load_end']:.2f} "
              f"on {stamp['nproc']} cpus")
    lines, regressed = compare(a, b, load_benchmark()["end_to_end"])
    print("\n".join(lines))
    return 1 if regressed else 0
