"""Script entry point: ``python3 benchmarks/e2e/run.py [options]``.

Equivalent to ``PYTHONPATH=src python -m benchmarks.e2e [options]`` run
from the repository root, for callers that can pass neither.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[0] = str(ROOT)

from benchmarks.e2e.cli import main  # noqa: E402

sys.exit(main())
