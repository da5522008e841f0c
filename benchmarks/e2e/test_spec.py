"""BENCHMARK.json, the workload table and the import rule agree."""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e.compare import compare
from benchmarks.e2e.spec import ROOT, WORKLOADS, load_benchmark, moves_of

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
HERE = Path(__file__).resolve().parent

#: The public modules the benchmark may use; ``repro.obs`` only for
#: the names below.  Never ``repro.engine``, ``repro.perfwatch``,
#: ``repro.telemetry`` or ``repro.obs.baseline``.
ALLOWED_MODULES = {
    "repro.experiments", "repro.oracle", "repro.mpc", "repro.ram",
    "repro.parallel", "repro.protocols.wire", "repro.bits",
    "repro.compression", "repro.hashes", "repro.obs",
}
ALLOWED_OBS_NAMES = {"Tracer", "use_tracer"}


@pytest.fixture(scope="module")
def bench() -> dict:
    return load_benchmark()


def test_benchmark_json_shape(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/e2e"]
    assert all((ROOT / p).is_dir() for p in bench["paths"])
    assert isinstance(bench["run_seconds"], int)
    assert 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    names = [m["name"] for m in bench["workloads"] + bench["end_to_end"]]
    names += [m["name"] for m in bench["per_layer"]]
    assert len(set(names)) == len(names)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"}
        assert NAME.fullmatch(w["name"]) and len(w["why"]) <= 200
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_workloads_match_the_registry(bench):
    from repro.experiments import experiment_ids

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    registered = set(experiment_ids())
    for scale, ids in WORKLOADS.values():
        assert scale in ("quick", "full")
        assert set(ids) <= registered
    assert sorted(WORKLOADS["suite-quick"][1]) == sorted(registered)
    per_experiment = {
        m["name"] for m in bench["per_layer"]
        if m["name"].startswith("experiments.")
    }
    assert per_experiment == {f"experiments.{e}.frac" for e in registered}


def test_every_layer_metric_names_what_it_moves(bench):
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for m in bench["per_layer"]:
        moves = moves_of(m["name"])
        assert moves is not None, m["name"]
        metrics, workloads = moves
        assert set(metrics) <= end_to_end
        assert set(workloads) <= set(WORKLOADS)
        if not metrics:
            assert m["name"].startswith(("obs.", "bench.")), m["name"]
        else:
            assert workloads, m["name"]


def _module_references(path: Path):
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module, {a.name for a in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = re.match(r"(repro(?:\.\w+)*):", node.value)
            if match:  # a layers.Probe target
                yield match.group(1), None


def test_only_public_modules_are_imported():
    for path in HERE.glob("*.py"):
        if path.name.startswith("test_"):
            continue
        for module, names in _module_references(path):
            if module != "repro" and not module.startswith("repro."):
                continue
            assert module in ALLOWED_MODULES, f"{path.name}: {module}"
            if module == "repro.obs":
                assert names is None or names <= ALLOWED_OBS_NAMES


def _result(wall: float, fail_frac: float = 0.0) -> dict:
    metric = {"value": wall, "q1": wall, "q3": wall}
    return {"stamp": {}, "workloads": {"guess": {
        "metrics": {"wall_s": metric}, "fail_frac": fail_frac}}}


def test_compare_flags_a_change_past_the_bound(bench):
    e2e = bench["end_to_end"]
    assert not compare(_result(10.0), _result(11.0), e2e)[1]
    assert compare(_result(10.0), _result(13.0), e2e)[1]
    assert not compare(_result(10.0), _result(5.0), e2e)[1]
    assert compare(_result(10.0), _result(10.0, fail_frac=0.1), e2e)[1]


def test_fails_without_a_result_when_src_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "guess",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
