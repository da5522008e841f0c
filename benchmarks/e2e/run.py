"""Script form of ``python -m benchmarks.e2e``, runnable from the
repository root without setting ``PYTHONPATH``:

    python3 benchmarks/e2e/run.py --workload guess --seed 1 --seconds 24 --trace 0
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
