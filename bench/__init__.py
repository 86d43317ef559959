"""The stack benchmark: four seeded workloads, one per layer boundary.

``python3 -m bench --workload <name> --seed N --seconds S --trace 0|1``
runs one workload in one process and prints every metric by name with
its unit; see ``bench/README.md`` for the protocol, the metric tables
and how the layers' metrics are expected to move the end-to-end ones.

The package measures the program from outside: it imports ``repro``
from the checkout's ``src/`` directory, drives public entry points
with ops it generated itself, and in a traced run times the layers by
attribute replacement (:mod:`bench.trace`).  Nothing under ``src/``
knows the benchmark exists.
"""

import sys
import time
from pathlib import Path

#: Process start as far as the benchmark can see it: ``setup_s`` counts
#: from here, before numpy or repro are imported.
START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
