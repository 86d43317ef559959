"""Fault injection, scrubbing, and self-healing recovery.

This package exercises every recovery path of the reproduction under
adversity — the regime the paper's reliability argument actually cares
about.  Clean whole-disk failures are the easy case; real RAID-6 data
loss is dominated by latent sector errors and silent corruption that
surface *mid-rebuild* (cf. PAPERS.md "Beyond RAID 6" and the CR-SIM
reliability simulator's Crashed/LatentError/Corrupted unit states).

- :mod:`repro.faults.plan` — deterministic, seedable fault schedules
  (:class:`FaultPlan`): whole-disk crashes, transient I/O error
  windows, latent sector errors (UREs), and silent bit flips.
- :mod:`repro.faults.injector` — :class:`FaultInjector` arms a
  :class:`~repro.array.filestore.FileStore` with a plan and fires the
  events at the store's per-element I/O boundary
  (``FileStore._element_io``) as element I/O streams by.
- :mod:`repro.faults.checksum` — per-element CRC32 sidecars and the
  checksum scrub: detect silent flips and latent errors, repair each
  stripe's bad elements through its compiled ``read`` plan.
- :mod:`repro.faults.healing` — the reference escalation ladder: direct
  read → alternate parity chain → full decode →
  :class:`~repro.exceptions.UnrecoverableFaultError`.
- :mod:`repro.faults.rebuild_orchestrator` — stripe-by-stripe hot-spare
  rebuilds that survive faults injected mid-rebuild, checkpoint
  progress, and report a structured :class:`RebuildReport`.
- :mod:`repro.faults.scenarios` — the Monte-Carlo scenario runner
  comparing codes under identical seeded fault plans (the ``repro
  faults`` CLI subcommand).
- :mod:`repro.faults.crash` — the kill-anywhere crash harness:
  :class:`CrashingStore` cuts power at a scheduled durable-I/O
  boundary; :func:`crash_matrix` does it at *every* boundary and
  differentially verifies each recovery against a write-through
  oracle (see :mod:`repro.journal`).
- :mod:`repro.faults.crash_bench` — the matrix as a pinned-hash CI
  gate (``repro crash-bench --smoke``).
"""

from .plan import FaultKind, FaultEvent, FaultPlan
from .injector import FaultInjector
from .checksum import ChecksumSidecar, ScrubReport, scrub_store
from .healing import HealingStats, recover_element, decode_resilient
from .rebuild_orchestrator import RebuildOrchestrator, RebuildReport
from .scenarios import ScenarioResult, run_scenario, compare_codes
from .crash import (
    CrashingStore,
    CrashMatrixResult,
    CrashScenarioResult,
    crash_matrix,
    run_crash_scenario,
    seeded_write_trace,
)
from .crash_bench import CRASH_SMOKE_HASH, check_smoke_hash, run_crash_bench

__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultPlan",
    "FaultInjector",
    "ChecksumSidecar",
    "ScrubReport",
    "scrub_store",
    "HealingStats",
    "recover_element",
    "decode_resilient",
    "RebuildOrchestrator",
    "RebuildReport",
    "ScenarioResult",
    "run_scenario",
    "compare_codes",
    "CrashingStore",
    "CrashMatrixResult",
    "CrashScenarioResult",
    "crash_matrix",
    "run_crash_scenario",
    "seeded_write_trace",
    "CRASH_SMOKE_HASH",
    "check_smoke_hash",
    "run_crash_bench",
]
