"""Import opfsample from a source tree and load one CSV, then report.

Usage: python3 bench/setup_probe.py SRC_DIR CSV_PATH

The caller times from starting this process until the "loaded" line.
"""

import sys

sys.path.insert(0, sys.argv[1])

import opfsample  # noqa: E402

opfsample.load_csv(sys.argv[2])
print("loaded", flush=True)
