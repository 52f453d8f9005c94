"""Script form of ``python -m benchmarks.e2e`` — the command in ``BENCHMARK.json``.

Runs from any checkout without ``PYTHONPATH``: the repo root is this file's
grandparent's parent, and the runner hands ``src`` to the workers itself.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from benchmarks.e2e.cli import main

    sys.exit(main())
