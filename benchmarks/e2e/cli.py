"""Run the benchmark: ``python -m benchmarks.e2e [--workload NAME]...``.

Every pass runs in a fresh child process (:mod:`benchmarks.e2e.child`),
one child at a time, so no pass inherits caches or heap from another
and every pass pays the cold start a ``repro run`` pays.  Per workload:

1. timed passes, untraced and unwrapped, until the next one would end
   past ``--seconds`` (at least one);
2. for ``setup_s``, ``import repro.experiments`` probes until there are
   ``MIN_SETUP_SAMPLES`` import timings (every timed pass gives one);
3. for the per-layer metrics, one ``-X importtime`` probe, one layer
   pass and one traced pass.

``--trace 0`` does steps 1-2 and reports the end-to-end metrics,
``--trace 1`` does steps 1 and 3 and reports the per-layer metrics; by
default it does all three and reports both.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--out FILE`` also writes every sample, the
per-experiment digests and a run stamp, the input of ``compare``.

Exit status: 0 when every experiment run passed, 1 when one failed,
2 when the benchmark itself could not run (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from benchmarks.e2e.spec import (
    MIN_SETUP_SAMPLES, ROOT, WORKLOADS, load_benchmark,
)

#: A child that runs longer than this is stuck; the whole run has to end
#: within 180 s.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed run)."""


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    """The environment without any ``REPRO_*`` setting, importing this
    checkout's ``src``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _spawn(args: list[str]) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} ran past {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(f"child {args} exited {proc.returncode}:\n{tail}")
    return proc


def run_child(mode: str, scale: str = "", ids: tuple[str, ...] = ()) -> dict:
    """One :mod:`benchmarks.e2e.child` process; its JSON result."""
    proc = _spawn(["-m", "benchmarks.e2e.child", mode, scale, *ids])
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"child {mode} printed no result") from exc


#: ``setup.*`` metric -> top-level package whose modules' import self
#: times it sums (scipy is imported only for ``scipy.stats``, which
#: loads its submodules lazily, so no single line holds its total).
_SETUP_PACKAGES = {"setup.numpy_s": "numpy", "setup.scipy_stats_s": "scipy",
                   "setup.repro_s": "repro"}


def import_times() -> dict[str, float]:
    """``setup.*`` from one ``python -X importtime`` probe, in seconds."""
    proc = _spawn(["-X", "importtime", "-c", "import repro.experiments"])
    by_package: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        package = parts[2].strip().split(".")[0]
        by_package[package] = by_package.get(package, 0.0) + int(parts[0]) / 1e6
    return {metric: by_package.get(package, 0.0)
            for metric, package in _SETUP_PACKAGES.items()}


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def stat(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values),
            "q1": q1, "q3": q3}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_workload(name: str, seconds: float, trace: int | None) -> dict:
    """Measure one workload; returns its metrics, failures and digests."""
    scale, ids = WORKLOADS[name]
    timed, start = [], perf_counter()
    while True:
        timed.append(run_child("pass", scale, ids))
        spent = perf_counter() - start
        if spent + spent / len(timed) > seconds:
            break
    walls = [p["wall_s"] for p in timed]
    metrics: dict[str, dict] = {}
    if trace != 1:
        imports = [p["import_s"] for p in timed]
        while len(imports) < MIN_SETUP_SAMPLES:
            imports.append(run_child("probe")["import_s"])
        metrics["wall_s"] = stat(walls)
        metrics["setup_s"] = stat(imports)
        metrics["peak_rss_mb"] = stat(
            [p["vm_hwm_kib"] * 1024 / 1e6 for p in timed])
    passes = [("timed", p) for p in timed]
    absent: list[str] = []
    if trace != 0:
        setup = import_times()
        layer = run_child("layer", scale, ids)
        traced = run_child("traced", scale, ids)
        passes += [("layer", layer), ("traced", traced)]
        absent = layer["absent"]
        for key, value in layer_metrics(
            timed, layer, traced, setup, statistics.median(walls)
        ).items():
            metrics[key] = {"value": value, "n": 1, "q1": value, "q3": value}

    digests = {row["id"]: row["digest"] for row in timed[0]["results"]}
    failures = []
    for kind, result in passes:
        for row in result["results"]:
            reason = row["error"] or (
                "passed=False" if not row["passed"]
                else "output differs from the first pass"
                if row["digest"] != digests[row["id"]] else None
            )
            if reason:
                failures.append({"pass": kind, "id": row["id"],
                                 "reason": reason})
    attempted = sum(len(result["results"]) for _, result in passes)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "digests": digests,
        "absent": absent,
    }


#: Per-layer metrics that are :class:`~benchmarks.e2e.layers.LayerProfile`
#: counters reported as they are.
_COUNT_METRICS = (
    "parallel.map.calls", "parallel.trials", "oracle.sample.calls",
    "oracle.sample.entries", "oracle.query.calls", "mpc.run.calls",
    "mpc.rounds", "mpc.steps", "mpc.messages", "mpc.message_bits",
    "wire.encode.calls", "wire.decode.calls", "bits.record.calls",
    "compression.encode.calls", "compression.decode.calls",
    "ram.run.calls", "ram.instructions",
)


def layer_metrics(timed: list[dict], layer: dict, traced: dict,
                  setup: dict[str, float], wall: float) -> dict[str, float]:
    """The per-layer metrics of one workload, by ``BENCHMARK.json`` name.

    Layer self times are shares of the layer pass, whose length is
    ``bench.layer_pass_s``; experiment times are shares of the timed
    passes (median over passes).  ``wall`` is the workload's ``wall_s``.
    """
    out = dict(setup)
    for eid in WORKLOADS["suite-quick"][1]:
        shares = [
            row["s"] / p["wall_s"]
            for p in timed for row in p["results"] if row["id"] == eid
        ]
        out[f"experiments.{eid}.frac"] = (
            statistics.median(shares) if shares else 0.0)
    layer_wall = layer["wall_s"]
    for key, self_s in layer["self_s"].items():
        out[f"{key}.frac"] = _ratio(self_s, layer_wall)
    counts = layer["counts"]
    for name in _COUNT_METRICS:
        out[name] = counts.get(name, 0)
    out["oracle.table.queried_frac"] = _ratio(
        counts.get("oracle.table.queried", 0),
        counts.get("oracle.sample.entries", 0))
    out["mpc.active_frac"] = _ratio(
        counts.get("mpc.active", 0), counts.get("mpc.steps", 0))
    out["obs.traced_s"] = traced["wall_s"]
    out["obs.overhead_frac"] = traced["wall_s"] / wall - 1
    out["obs.records"] = traced["records"]
    out["bench.layer_pass_s"] = layer_wall
    out["bench.wrap_overhead_frac"] = layer_wall / wall - 1
    out["bench.unattributed_frac"] = 1 - _ratio(
        sum(layer["self_s"].values()), layer_wall)
    return out


# ----------------------------------------------------------------------
# Run stamp
# ----------------------------------------------------------------------
def _git_sha(root: Path) -> str | None:
    """HEAD of ``root/.git``, read from files so nothing outside the
    checkout is touched; None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _check_load(when: str, nproc: int) -> float:
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"warning: 1-minute load average {load:.2f} at {when} exceeds "
              f"nproc={nproc}; timings are contended", file=sys.stderr)
    return load


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def _parser(bench: dict) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="Run the experiment-suite benchmark "
                    "(or: python -m benchmarks.e2e compare A.json B.json).")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]],
                   help="workload to run; repeatable (default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="recorded only: the experiments draw their inputs "
                        "from their own keyed seeds")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="time budget for the timed passes of a workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics only; 1: per-layer only "
                        "(default: both)")
    p.add_argument("--out", type=Path, help="write the full result as JSON")
    return p


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    bench = load_benchmark()
    args = _parser(bench).parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    declared = (
        ([] if args.trace == 1 else bench["end_to_end"])
        + ([] if args.trace == 0 else bench["per_layer"])
    )
    units = {m["name"]: m["unit"] for m in declared}

    nproc = len(os.sched_getaffinity(0))
    stamp = {
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": nproc,
        "load_start": _check_load("start", nproc),
    }
    results = {}
    try:
        for name in names:
            result = run_workload(name, args.seconds, args.trace)
            if set(result["metrics"]) != set(units):
                raise BenchError(
                    f"{name}: measured metrics differ from BENCHMARK.json: "
                    f"{sorted(set(result['metrics']) ^ set(units))}")
            results[name] = result
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    stamp["load_end"] = _check_load("end", nproc)

    flat = {}
    for name, result in results.items():
        for failure in result["failures"]:
            print(f"FAILED {name} {failure['pass']} {failure['id']}: "
                  f"{failure['reason']}")
        for target in result["absent"]:
            print(f"absent {name}: entry point {target} not found")
        print(f"{name}: attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={result['fail_frac']}")
        for metric in units:
            m = result["metrics"][metric]
            m["unit"] = units[metric]
            print(f"  {metric:32s} {m['value']:.6g} {units[metric]} "
                  f"(n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})")
            key = metric if len(results) == 1 else f"{name}/{metric}"
            flat[key] = {"value": m["value"], "unit": units[metric]}
    if args.out:
        args.out.write_text(json.dumps({
            "stamp": stamp, "seed": args.seed, "seconds": args.seconds,
            "workloads": results,
        }, indent=1) + "\n")
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": flat,
    }))
    return 1 if failed else 0
