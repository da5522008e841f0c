"""Importing the experiments and the CLI loads neither scipy nor sympy.

Both are heavy imports that every ``repro`` invocation would pay before
doing any work.  The statistics use only numpy and the standard
library, and the cost models import sympy only when they run.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

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
