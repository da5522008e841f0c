"""The layer wrappers observe without changing what they observe."""

from __future__ import annotations

import pytest

from benchmarks.e2e.cli import import_times, layer_metrics, run_child
from benchmarks.e2e.layers import SELF_KEYS, LayerProfile, Probe
from benchmarks.e2e.spec import load_benchmark

IDS = ("T1", "E-LINE")


@pytest.fixture(scope="module")
def passes() -> dict:
    return {mode: run_child(mode, "quick", IDS)
            for mode in ("pass", "layer", "traced")}


def _digests(result: dict) -> dict:
    assert all(row["passed"] and row["error"] is None
               for row in result["results"])
    return {row["id"]: row["digest"] for row in result["results"]}


def test_wrappers_and_tracer_leave_render_identical(passes):
    plain = _digests(passes["pass"])
    assert set(plain) == set(IDS)
    assert _digests(passes["layer"]) == plain
    assert _digests(passes["traced"]) == plain


def test_self_times_partition_the_layer_pass(passes):
    layer = passes["layer"]
    assert layer["absent"] == []
    assert set(layer["self_s"]) == set(SELF_KEYS)
    attributed = sum(layer["self_s"].values())
    unattributed = layer["wall_s"] - attributed
    assert 0 <= unattributed <= 0.15 * layer["wall_s"]
    metrics = layer_metrics([passes["pass"]], layer, passes["traced"],
                            import_times(), passes["pass"]["wall_s"])
    total = sum(metrics[f"{key}.frac"] for key in SELF_KEYS)
    assert total + metrics["bench.unattributed_frac"] == pytest.approx(
        1, abs=0.01)
    assert metrics["mpc.run.calls"] > 0 and metrics["wire.encode.calls"] > 0
    declared = {m["name"] for m in load_benchmark()["per_layer"]}
    assert set(metrics) == declared


def test_missing_entry_points_are_reported_absent():
    targets = (
        "repro.no_such_module:run",
        "repro.oracle:NoSuchOracle.query",
        "repro.oracle:Oracle.no_such_method",
        "repro.protocols.wire:no_such_prefix_*",
    )
    profile = LayerProfile().install(tuple(Probe(t, "x") for t in targets))
    assert profile.absent == list(targets)
