"""Puts the checkout's src/ on PYTHONPATH for processes the tests spawn (the
reference judge runs as `python -m rls3.external_stub`), as pyproject's
pytest `pythonpath` does for the test process itself."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
