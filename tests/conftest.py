"""Child interpreters that the tests start (the CLI runs and the capped
sqrev search) import polyzero from this checkout's ``src/``, like the
test process itself does through pytest's ``pythonpath`` setting."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [SRC, os.environ.get("PYTHONPATH")]))
