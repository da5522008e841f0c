"""What a cold start loads.

Every ``repro`` process and every benchmark pass begins with ``import
repro.experiments``.  Where bytecode is not cached, each process
compiles every module it imports, so the paper core imports only what
an untraced run executes.  Of the observability packages that is the
tracer, the convergence estimators and the cost-model announcements
(DESIGN.md section 2); the package roots resolve their other names on
first use.  This file is the authoritative list.  scipy and sympy stay
out of both the experiments and the CLI: the statistics use only numpy
and the standard library, and the cost models import sympy only when
they run.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: The observability modules ``import repro.experiments`` may load.
ALLOWED_OBSERVABILITY = {
    "repro.costmodel",
    "repro.costmodel.announce",
    "repro.obs",
    "repro.obs.convergence",
    "repro.obs.tracer",
    "repro.telemetry",
    "repro.telemetry.config",
}

#: Top-level packages no cold start may load.
FORBIDDEN = {"concurrent", "html", "multiprocessing", "scipy", "sqlite3", "sympy"}

LAZY_ROOTS = ("repro.obs", "repro.telemetry", "repro.costmodel")


def run_fresh(code: str):
    """Run ``code`` in a new interpreter; its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def top_level(modules) -> set[str]:
    return {name.partition(".")[0] for name in modules}


PROBE = """
import sys
import repro.experiments, repro.cli
top = {name.partition(".")[0] for name in sys.modules}
print(sorted(top & {"scipy", "sympy"}))
"""


def test_experiments_and_cli_import_neither_scipy_nor_sympy():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


COLD_IMPORT = """
import json, sys
before = set(sys.modules)
import repro.experiments
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cold_import_loads_only_the_core_observability():
    loaded = run_fresh(COLD_IMPORT)
    observability = {m for m in loaded if m.startswith(LAZY_ROOTS)}
    assert observability == ALLOWED_OBSERVABILITY
    assert not top_level(loaded) & FORBIDDEN


TRACED_AFTER_COLD_IMPORT = """
import json
import repro.experiments
from repro.obs import Tracer, use_tracer

records = []
with use_tracer(Tracer(keep_records=False, subscribers=[records.append])):
    repro.experiments.run_experiment("T1", "quick")
print(json.dumps(len(records)))
"""


def test_traced_pass_after_cold_import():
    """The benchmark's traced pass imports its tracer from the root."""
    assert run_fresh(TRACED_AFTER_COLD_IMPORT) > 0


CLI_COMMAND = """
import contextlib, io, json, sys
from repro.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("argv", [["list"], ["run", "T1", "--no-record"]])
def test_cli_list_and_untraced_run_stay_light(argv):
    code, loaded = run_fresh(CLI_COMMAND.format(argv=argv))
    assert code == 0
    assert not top_level(loaded) & FORBIDDEN


TRACE_OUT_THEN_DIFF = """
import contextlib, io, json, os, sys
from repro.cli import main

path = os.path.join({out_dir!r}, "t.jsonl")
out = io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
    codes = [
        main(["trace", "E-BOUND", "--trace-out", path]),
        main(["trace-diff", path, path]),
    ]
print(json.dumps([codes, sorted(os.listdir({out_dir!r})), sorted(sys.modules)]))
"""


def test_trace_out_writes_only_the_trace(tmp_path):
    """A traced run and its trace-diff leave one file and load no SQLite."""
    codes, files, loaded = run_fresh(
        TRACE_OUT_THEN_DIFF.format(out_dir=str(tmp_path))
    )
    assert codes == [0, 0]
    assert files == ["t.jsonl"]
    assert "sqlite3" not in top_level(loaded)


@pytest.mark.parametrize("root", LAZY_ROOTS)
class TestLazyRoots:
    def test_every_public_name_is_its_submodule_attribute(self, root):
        package = importlib.import_module(root)
        defined_in: dict[str, list] = {}
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{root}.{info.name}")
            for name in module.__all__:
                defined_in.setdefault(name, []).append(module)
        for name in package.__all__:
            (module,) = defined_in[name]
            assert getattr(package, name) is getattr(module, name), name

    def test_dir_lists_every_public_name(self, root):
        package = importlib.import_module(root)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, root):
        package = importlib.import_module(root)
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(package, "no_such_name")
