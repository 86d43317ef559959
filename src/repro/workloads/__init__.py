"""Workload generators reproducing the paper's traces.

- :mod:`repro.workloads.traces` — partial-stripe-write traces: the
  ``uniform_w_L`` family and random ``(S, L, F)`` traces, including the
  paper's exact Table II trace.
- :mod:`repro.workloads.degraded` — degraded-read patterns for Fig. 7.
- :mod:`repro.workloads.service` — seeded many-client Zipf traces for
  the concurrent volume service's serve-bench.
"""

from .traces import (
    WritePattern,
    WriteTrace,
    PAPER_TABLE_II,
    paper_random_trace,
    uniform_write_trace,
)
from .degraded import ReadPattern, uniform_read_patterns
from .service import ClientOp, ServiceTrace, service_trace
from .synthetic import (
    sequential_write_trace,
    zipf_write_trace,
)

__all__ = [
    "WritePattern",
    "WriteTrace",
    "PAPER_TABLE_II",
    "paper_random_trace",
    "uniform_write_trace",
    "ReadPattern",
    "uniform_read_patterns",
    "sequential_write_trace",
    "zipf_write_trace",
    "ClientOp",
    "ServiceTrace",
    "service_trace",
]
