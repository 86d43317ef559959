"""Erasure-recovery engines and I/O-minimal recovery planners.

- :mod:`repro.recovery.peeling` — the symbolic peeling scheduler: which
  lost cells become solvable in which parallel round.  The plan
  compiler lowers it into the generic decode and double-failure plans.
- :mod:`repro.recovery.gauss` — the Gaussian reference decoder (the
  universal XOR decoder), the fallback of every code's ``decode``.
- :mod:`repro.recovery.single` — minimal-I/O single-disk recovery and
  degraded reads: the hybrid parity-chain selection of Xiang et al.
  (SIGMETRICS'10), solved exactly as a small integer program with a
  greedy fallback.
- :mod:`repro.recovery.cost` — the one repair price: reads per disk,
  rounds (the paper's ``Lc``) and start parallelism, read off the
  compiled recovery plan the store runs (Fig. 9, Table III, the rebuild
  window, the MTTDL model and the fleet simulator all use it).
"""

from .peeling import PeelSchedule, peel_schedule
from .single import (
    SingleDiskRecoveryPlan,
    degraded_read_choices,
    plan_single_disk_recovery,
)
from .cost import RepairCost, repair_cost

__all__ = [
    "PeelSchedule",
    "peel_schedule",
    "SingleDiskRecoveryPlan",
    "degraded_read_choices",
    "plan_single_disk_recovery",
    "RepairCost",
    "repair_cost",
]
