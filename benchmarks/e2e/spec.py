"""What the benchmark runs and what each of its metrics means.

``BENCHMARK.json`` at the repository root is the single source of the
workload names, the metric names, their units and the regression
bounds.  This module adds what that file has no room for: which
experiments make up each workload, and which end-to-end metric each
per-layer metric should move.  The tests check that both agree with
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The repository (or benchmark checkout) root.
ROOT = Path(__file__).resolve().parents[2]

#: workload name -> (scale, experiment ids one pass runs, in order).
WORKLOADS: dict[str, tuple[str, tuple[str, ...]]] = {
    "guess": ("quick", ("E-GUESS",)),
    "rounds": ("full", ("E-LINE", "E-MEM", "E-SIMLINE", "E-SCALE")),
    "encode-hash-ram": ("full", ("E-RAM", "E-HASH", "E-ENC-L", "E-ENC-A")),
    # The 21 registered experiments; the tests pin this list to the
    # registry, so a new experiment has to be added here on purpose.
    "suite-quick": ("quick", (
        "E-ABL-PLACE", "E-BASE", "E-BEST", "E-BOUND", "E-BUDGET",
        "E-DECAY", "E-ENC-A", "E-ENC-L", "E-GUESS", "E-HASH", "E-LIMIT",
        "E-LINE", "E-MEM", "E-MHF", "E-PROGRESS", "E-RAM", "E-SCALE",
        "E-SIMLINE", "E-THROUGHPUT", "F1", "T1",
    )),
}

#: Fewest fresh-process import timings behind one ``setup_s`` median.
#: Every timed pass gives one; short-pass workloads need no extra probes.
MIN_SETUP_SAMPLES = 5

_ALL = tuple(WORKLOADS)

#: (per-layer metric name prefix, end-to-end metrics it should move,
#: workloads on which it should move them).  The first matching prefix
#: wins.  ``experiments.<ID>.`` rows are derived from WORKLOADS.
#: An empty tuple is a prediction of no change.
MOVES: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = (
    ("setup.", ("setup_s",), _ALL),
    ("oracle.sample.", ("wall_s", "peak_rss_mb"), ("guess", "suite-quick")),
    ("oracle.table.", ("wall_s", "peak_rss_mb"), ("guess", "suite-quick")),
    ("parallel.", ("wall_s",), ("guess", "suite-quick")),
    ("oracle.lazy.", ("wall_s",), ("rounds", "suite-quick")),
    ("oracle.meter.", ("wall_s",), ("rounds", "guess", "suite-quick")),
    ("oracle.query.", ("wall_s",), _ALL),
    ("mpc.", ("wall_s",), ("rounds", "suite-quick")),
    ("wire.", ("wall_s",), ("rounds", "suite-quick")),
    ("oracle.hash.", ("wall_s",), ("encode-hash-ram", "suite-quick")),
    ("compression.", ("wall_s",), ("encode-hash-ram", "suite-quick")),
    ("bits.", ("wall_s",), ("encode-hash-ram", "suite-quick")),
    ("ram.", ("wall_s",), ("encode-hash-ram", "suite-quick")),
    # Timed passes run untraced and unwrapped, so observing a run and
    # the benchmark's own accounting move no end-to-end metric.
    ("obs.", (), ()),
    ("bench.", (), ()),
) + tuple(
    (
        f"experiments.{eid}.",
        ("wall_s",),
        tuple(w for w, (_, ids) in WORKLOADS.items() if eid in ids),
    )
    for eid in WORKLOADS["suite-quick"][1]
)


def load_benchmark(root: Path = ROOT) -> dict:
    """The parsed ``BENCHMARK.json``."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def moves_of(metric: str) -> tuple[tuple[str, ...], tuple[str, ...]] | None:
    """``(end-to-end metrics, workloads)`` a per-layer metric should move."""
    for prefix, metrics, workloads in MOVES:
        if metric.startswith(prefix):
            return metrics, workloads
    return None
