"""Make the in-tree package importable by the subprocesses the tests start.

pytest's ``pythonpath`` setting reaches only the test process itself; the
CLI tests run ``python -m oddshift`` in a child, which sees the
environment alone.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
