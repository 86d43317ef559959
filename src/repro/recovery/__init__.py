"""Erasure-recovery engines and I/O-minimal recovery planners.

- :mod:`repro.recovery.peeling` — the symbolic peeling scheduler: which
  lost cells become solvable in which parallel round.  The plan
  compiler lowers it into the generic decode and double-failure plans.
- :mod:`repro.recovery.gauss` — the Gaussian reference decoder (the
  universal XOR decoder), the fallback of every code's ``decode``.
- :mod:`repro.recovery.single` — the one chain chooser,
  :func:`degraded_read_choices`: the hybrid parity-chain selection of
  Xiang et al. (SIGMETRICS'10) for a degraded read, a single-disk
  recovery being the read of the whole column, solved exactly as a
  small integer program with a greedy fallback.  The compiler lowers
  its choice into the ``read`` plan.
- :mod:`repro.recovery.cost` — the one repair price: reads per disk,
  rounds (the paper's ``Lc``) and start parallelism, read off the
  compiled ``read`` / ``recover-double`` plan the store runs (Fig. 9,
  Table III, the rebuild window, the MTTDL model and the fleet
  simulator all use it).
"""

from .peeling import PeelSchedule, peel_schedule
from .single import degraded_read_choices
from .cost import RepairCost, repair_cost

__all__ = [
    "PeelSchedule",
    "peel_schedule",
    "degraded_read_choices",
    "RepairCost",
    "repair_cost",
]
