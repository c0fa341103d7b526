"""Put the harness (``perf/``) and the library (``src/``) on the import path."""

import pathlib
import sys

PERF_DIR = pathlib.Path(__file__).resolve().parents[1]
for path in (PERF_DIR.parent / "src", PERF_DIR):
    sys.path.insert(0, str(path))
